"""Tabular preprocessing: imputation, scaling, one-hot encoding.

The Polluter injects missing values and the learners require finite
matrices, so the preprocessing stage is where dirty cells become model
inputs: numeric missing cells are mean-imputed (the train mean), while
categorical missing cells become an explicit ``<missing>`` category —
mirroring how placeholder values behave in the paper's pipeline.

The preprocessor keeps no memo of its own. Categorical columns are read
through :meth:`Column.codes`, the integer-codes cache each column already
carries (carried through writes that add no category, dropped on any
other write), so fitting a category set
and one-hot encoding a column are both array operations on those codes.
"""

from __future__ import annotations

import numpy as np

from repro.frame import Column, DataFrame

__all__ = ["StandardScaler", "OneHotEncoder", "TabularPreprocessor"]


class StandardScaler:
    """Zero-mean unit-variance scaling; constant columns stay at zero."""

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Fit on the given training data and return ``self``."""
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Transform the input using the fitted state."""
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"fitted on {self.mean_.shape[0]} columns, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(X).transform(X)


class OneHotEncoder:
    """One-hot encoding of object columns; unseen categories encode to zeros."""

    def fit(self, columns: list[np.ndarray]) -> "OneHotEncoder":
        """Fit on the given training data and return ``self``."""
        self.categories_: list[list] = []
        for values in columns:
            present = [v for v in values.tolist() if v is not None]
            self.categories_.append(sorted(set(present), key=str))
        return self

    def transform(self, columns: list[np.ndarray]) -> np.ndarray:
        """Transform the input using the fitted state."""
        if len(columns) != len(self.categories_):
            raise ValueError(
                f"fitted on {len(self.categories_)} columns, got {len(columns)}"
            )
        blocks = []
        for values, cats in zip(columns, self.categories_):
            lookup = {c: i for i, c in enumerate(cats)}
            block = np.zeros((len(values), len(cats)))
            for row, value in enumerate(values.tolist()):
                j = lookup.get(value)
                if j is not None:
                    block[row, j] = 1.0
            blocks.append(block)
        if not blocks:
            return np.zeros((0, 0))
        return np.hstack(blocks)

    def n_output_features(self) -> int:
        """Number of columns the transform produces."""
        return sum(len(c) for c in self.categories_)


_MISSING_CATEGORY = "<missing>"


def _fit_numeric_column(column: Column) -> tuple[float, float, float]:
    """(imputation mean, scaler mean, scaler std) for one numeric column."""
    values = column.values
    present = values[~column.missing_mask]
    present = present[np.isfinite(present)]
    impute = float(present.mean()) if present.size else 0.0
    filled = values.copy()
    filled[~np.isfinite(filled)] = impute
    std = float(filled.std())
    return impute, float(filled.mean()), std if std != 0.0 else 1.0


def _fit_categorical_column(column: Column) -> list:
    """Sorted categories (with ``<missing>``) for one object column."""
    cats = list(column.codes()[1])
    if column.n_missing and _MISSING_CATEGORY not in cats:
        cats.append(_MISSING_CATEGORY)
    return sorted(cats, key=str)


class TabularPreprocessor:
    """DataFrame → float matrix: impute, scale numerics, one-hot categoricals.

    Fit on the training frame only and reuse for the test frame so that no
    statistics leak across the split. The feature order of the output matrix
    is: scaled numeric columns (frame order), then one-hot blocks (frame
    order).

    Parameters
    ----------
    feature_names:
        Columns to encode, in order. The label column must not be included.
    """

    def __init__(self, feature_names: list[str]) -> None:
        if not feature_names:
            raise ValueError("need at least one feature column")
        self.feature_names = list(feature_names)

    def fit(self, frame: DataFrame) -> "TabularPreprocessor":
        """Fit on the given training data and return ``self``."""
        self.numeric_names_ = [
            n for n in self.feature_names if frame[n].is_numeric
        ]
        self.categorical_names_ = [
            n for n in self.feature_names if frame[n].is_categorical
        ]
        self.numeric_means_ = {}
        scale_means, scale_stds = [], []
        for name in self.numeric_names_:
            impute, mean, std = _fit_numeric_column(frame[name])
            self.numeric_means_[name] = impute
            scale_means.append(mean)
            scale_stds.append(std)
        if self.numeric_names_:
            self.scaler_ = StandardScaler()
            self.scaler_.mean_ = np.asarray(scale_means)
            self.scaler_.scale_ = np.asarray(scale_stds)
        else:
            self.scaler_ = None
        self.encoder_ = OneHotEncoder()
        self.encoder_.categories_ = [
            _fit_categorical_column(frame[n]) for n in self.categorical_names_
        ]
        return self

    def transform(self, frame: DataFrame) -> np.ndarray:
        """Transform the input using the fitted state.

        Numeric cells that are missing or non-finite take the column's
        imputation mean, then every numeric column is standardized. Each
        categorical column's own codes are mapped to fitted one-hot
        indices through a remap array whose last slot serves code ``-1``
        (missing cells land on ``<missing>``); categories unseen at fit
        time map to no index and encode to zeros.
        """
        out = np.zeros((frame.n_rows, self.n_output_features()))
        for j, name in enumerate(self.numeric_names_):
            # Missing numeric cells hold nan, so "non-finite" covers them.
            values = frame[name].values
            filled = np.where(np.isfinite(values), values, self.numeric_means_[name])
            out[:, j] = (filled - self.scaler_.mean_[j]) / self.scaler_.scale_[j]
        rows, cols = [], []
        offset = len(self.numeric_names_)
        for name, cats in zip(self.categorical_names_, self.encoder_.categories_):
            codes, own = frame[name].codes()
            fitted = {c: i for i, c in enumerate(cats)}
            remap = np.array(
                [fitted.get(c, -1) for c in own]
                + [fitted.get(_MISSING_CATEGORY, -1)],
                dtype=np.intp,
            )
            index = remap[codes]
            hit = np.flatnonzero(index >= 0)
            rows.append(hit)
            cols.append(index[hit] + offset)
            offset += len(cats)
        if rows:
            out[np.concatenate(rows), np.concatenate(cols)] = 1.0
        return out

    def fit_transform(self, frame: DataFrame) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(frame).transform(frame)

    def n_output_features(self) -> int:
        """Number of columns the transform produces."""
        return len(self.numeric_names_) + self.encoder_.n_output_features()
