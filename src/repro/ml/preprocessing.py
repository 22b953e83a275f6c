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

A column's fitted statistics and its block of the output depend on that
column alone, and equal column tokens mean equal content
(:mod:`repro.frame.column`). So :meth:`TabularPreprocessor.fit` and
:meth:`TabularPreprocessor.design` can take a *base* — a preprocessor,
or a :class:`Design` it produced, for a frame that shares columns with
this one — and copy what the base computed for every column whose
tokens match, encoding only the rest. The result is
byte-identical to encoding every column; without a base, every column
is encoded.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _runs(
    blocks: dict[str, tuple[int, int]], found: dict[str, int]
) -> list[list[int]]:
    """``[start, stop, base start]`` of each run of copied blocks that is
    contiguous in both the output and the base matrix."""
    runs: list[list[int]] = []
    for name, (start, stop) in blocks.items():
        if name not in found:
            continue
        last = runs[-1] if runs else None
        if last and last[1] == start and last[2] + start - last[0] == found[name]:
            last[1] = stop
        else:
            runs.append([start, stop, found[name]])
    return runs


class Design(NamedTuple):
    """A frame's design matrix, kept as a splice source for later transforms.

    Built by :meth:`TabularPreprocessor.design`. ``matrix`` is read-only;
    ``blocks`` maps ``(column token, statistics token)`` — the content a
    block encodes and the content its statistics were fitted on — to the
    block's ``(start, stop)`` columns in ``matrix``.
    """

    matrix: np.ndarray
    blocks: dict[tuple[bytes, bytes], tuple[int, int]]


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

    def fit(
        self, frame: DataFrame, base: "TabularPreprocessor | None" = None
    ) -> "TabularPreprocessor":
        """Fit on the given training data and return ``self``.

        ``tokens_`` records the token of each feature column fitted on,
        and ``statistics_`` maps each of those tokens to the column's
        fitted statistics. A fitted ``base`` lends its statistics to
        every column whose token it was fitted on too; the other columns
        are fitted here.
        """
        names = self.feature_names
        self.tokens_ = {n: frame[n].token for n in names}
        known = {} if base is None else base.statistics_
        self.statistics_ = {}

        def statistics(name, fit_column):
            token = self.tokens_[name]
            stats = known[token] if token in known else fit_column(frame[name])
            self.statistics_[token] = stats
            return stats

        self.numeric_names_ = [n for n in names if frame[n].is_numeric]
        self.categorical_names_ = [n for n in names if frame[n].is_categorical]
        numeric = [statistics(n, _fit_numeric_column) for n in self.numeric_names_]
        self.numeric_means_ = {
            n: impute for n, (impute, __, ___) in zip(self.numeric_names_, numeric)
        }
        if numeric:
            self.scaler_ = StandardScaler()
            self.scaler_.mean_ = np.asarray([mean for __, mean, ___ in numeric])
            self.scaler_.scale_ = np.asarray([std for __, ___, std in numeric])
        else:
            self.scaler_ = None
        self.encoder_ = OneHotEncoder()
        self.encoder_.categories_ = [
            list(statistics(n, _fit_categorical_column))
            for n in self.categorical_names_
        ]
        return self

    def _blocks(self) -> dict[str, tuple[int, int]]:
        """Feature name → ``(start, stop)`` of its output block, in output order."""
        blocks = {n: (j, j + 1) for j, n in enumerate(self.numeric_names_)}
        offset = len(self.numeric_names_)
        for name, cats in zip(self.categorical_names_, self.encoder_.categories_):
            blocks[name] = (offset, offset + len(cats))
            offset += len(cats)
        return blocks

    def transform(
        self, frame: DataFrame, *, _base: Design | None = None
    ) -> np.ndarray:
        """Transform the input using the fitted state.

        Numeric cells that are missing or non-finite take the column's
        imputation mean, then every numeric column is standardized. Each
        categorical column's own codes are mapped to fitted one-hot
        indices through a remap array whose last slot serves code ``-1``
        (missing cells land on ``<missing>``); categories unseen at fit
        time map to no index and encode to zeros.

        ``_base`` is internal to :meth:`design`, which splices through
        here so that every featurization runs inside this method (the
        span ``perfbench`` times as ``ml.preprocessing.transform``).
        Every column whose token and statistics token both name a block
        of the base is copied from it, one slice per run of such blocks
        contiguous in both matrices; only the other columns are encoded.
        """
        blocks = self._blocks()
        out = np.zeros((frame.n_rows, self.n_output_features()))
        found: dict[str, int] = {}  # copied column -> its start in base
        if _base is not None:
            for name in blocks:
                source = _base.blocks.get((frame[name].token, self.tokens_[name]))
                if source is not None:
                    found[name] = source[0]
            for start, stop, source in _runs(blocks, found):
                out[:, start:stop] = _base.matrix[:, source : source + stop - start]
        for j, name in enumerate(self.numeric_names_):
            if name in found:
                continue
            # Missing numeric cells hold nan, so "non-finite" covers them.
            values = frame[name].values
            filled = np.where(np.isfinite(values), values, self.numeric_means_[name])
            out[:, j] = (filled - self.scaler_.mean_[j]) / self.scaler_.scale_[j]
        rows, cols = [], []
        for name, cats in zip(self.categorical_names_, self.encoder_.categories_):
            if name in found:
                continue
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
            cols.append(index[hit] + blocks[name][0])
        if rows:
            out[np.concatenate(rows), np.concatenate(cols)] = 1.0
        return out

    def design(self, frame: DataFrame, base: Design | None = None) -> Design:
        """Transform ``frame`` into a read-only :class:`Design`.

        Given the ``base`` design of a frame that shares columns with
        this one, the shared columns' blocks are copied from it and only
        the rest encoded, byte-identically to :meth:`transform`.
        """
        matrix = self.transform(frame, _base=base)
        matrix.setflags(write=False)
        blocks = {
            (frame[name].token, self.tokens_[name]): block
            for name, block in self._blocks().items()
        }
        return Design(matrix, blocks)

    def fit_transform(self, frame: DataFrame) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(frame).transform(frame)

    def n_output_features(self) -> int:
        """Number of columns the transform produces."""
        return len(self.numeric_names_) + self.encoder_.n_output_features()
