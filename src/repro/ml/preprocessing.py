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

A polluted E1 state differs from its base in one column, so what a
spliced fit or design costs beyond the fixed O(features) token
comparison is that column: :meth:`~TabularPreprocessor.fit` copies the
base's tables, block layout included, and refits only the columns whose
token changed; :meth:`~TabularPreprocessor.design` copies the base's
buffer in runs (an unchanged layout is one contiguous copy of the whole
buffer) and re-encodes the changed blocks in place. A design is laid
out for the linear models: one read-only ``n × (d + 1)`` buffer whose
last column is the bias column of ones, with the ``n × d`` matrix its
leading view, so a fit or predict on it makes no bias copy
(:func:`repro.ml.base.bias_buffer_of`).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.frame import Column, DataFrame

__all__ = ["StandardScaler", "OneHotEncoder", "TabularPreprocessor"]

#: :meth:`TabularPreprocessor.transform`'s default: a plain ``n × d``
#: array, not a :class:`Design`.
_PUBLIC = object()


class StandardScaler:
    """Zero-mean unit-variance scaling; constant columns (up to rounding)
    are only centred."""

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Fit on the given training data and return ``self``."""
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        var = X.var(axis=0)
        std = np.sqrt(var)
        std[_is_constant(var, self.mean_, len(X))] = 1.0
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
    mean, var = float(filled.mean()), float(filled.var())
    std = 1.0 if _is_constant(var, mean, len(filled)) else float(np.sqrt(var))
    return impute, mean, std


def _is_constant(var, mean, n: int):
    """Whether ``n`` values with this variance and mean are equal up to
    rounding (scikit-learn's ``_is_constant_feature`` rule).

    The computed variance of equal floats need not be 0: the mean may
    round, and a std of float noise would scale other values by ~1e16.
    """
    eps = np.finfo(np.float64).eps
    return var <= n * eps * var + (n * mean * eps) ** 2


def _fit_categorical_column(column: Column) -> list:
    """Sorted categories (with ``<missing>``) for one object column."""
    cats = list(column.codes()[1])
    if column.n_missing and _MISSING_CATEGORY not in cats:
        cats.append(_MISSING_CATEGORY)
    return sorted(cats, key=str)


def _layout(
    numeric_names: list[str], categorical_names: list[str], categories: list[list]
) -> dict[str, tuple[int, int]]:
    """Feature name → ``(start, stop)`` of its output block, in output order."""
    blocks = {n: (j, j + 1) for j, n in enumerate(numeric_names)}
    offset = len(numeric_names)
    for name, cats in zip(categorical_names, categories):
        blocks[name] = (offset, offset + len(cats))
        offset += len(cats)
    return blocks


def _runs(copied: list[tuple[int, int, int]]) -> list[list[int]]:
    """``[start, stop, base start]`` of each run of the ``copied`` blocks
    (``(start, stop, base start)`` in output order) that keeps one offset
    into the base's buffer. A run spans the re-encoded blocks between its
    copied ones too (they are overwritten after the copy), so a block
    re-encoded in place leaves one full-width slice."""
    runs: list[list[int]] = []
    for start, stop, source in copied:
        last = runs[-1] if runs else None
        if last and last[2] - last[0] == source - start:
            last[1] = stop
        else:
            runs.append([start, stop, source])
    return runs


class Design(NamedTuple):
    """A frame's design matrix, kept as a splice source for later transforms.

    Built by :meth:`TabularPreprocessor.design`. ``buffer`` is one
    read-only C-contiguous ``n × (d + 1)`` float array whose last column
    is 1.0, the bias column the linear models append; ``matrix`` is its
    leading ``n × d`` view, which they fit and predict on without a bias
    copy (:func:`repro.ml.base.bias_buffer_of`). ``blocks`` maps
    ``(column token, statistics token)`` — the content a block encodes
    and the content its statistics were fitted on — to the block's
    ``(start, stop)`` columns in ``matrix``.
    """

    buffer: np.ndarray
    blocks: dict[tuple[bytes, bytes], tuple[int, int]]

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``n × d`` design matrix: ``buffer`` without its
        bias column."""
        return self.buffer[:, :-1]


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
        fitted statistics. Given a fitted ``base`` that encodes the same
        features, where no column whose token changed changed kind, the
        base's tables are copied and only the changed columns refitted,
        so the fit costs the changed columns, not the frame; otherwise
        every column is fitted.
        """
        names = self.feature_names
        self.tokens_ = {n: frame[n].token for n in names}
        if base is not None and base.feature_names == names:
            changed = [n for n in names if self.tokens_[n] != base.tokens_[n]]
            if all(
                frame[n].is_numeric == (n in base.numeric_means_) for n in changed
            ):
                return self._refit(frame, base, changed)
        self.numeric_names_ = [n for n in names if frame[n].is_numeric]
        self.categorical_names_ = [n for n in names if frame[n].is_categorical]
        numeric = [_fit_numeric_column(frame[n]) for n in self.numeric_names_]
        categorical = [
            _fit_categorical_column(frame[n]) for n in self.categorical_names_
        ]
        self.statistics_ = {
            self.tokens_[n]: stats
            for n, stats in zip(
                self.numeric_names_ + self.categorical_names_, numeric + categorical
            )
        }
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
        self.encoder_.categories_ = [list(cats) for cats in categorical]
        self._blocks = _layout(
            self.numeric_names_, self.categorical_names_, self.encoder_.categories_
        )
        return self

    def _refit(
        self, frame: DataFrame, base: "TabularPreprocessor", changed: list[str]
    ) -> "TabularPreprocessor":
        """:meth:`fit` from ``base``'s tables when only ``changed`` columns'
        tokens differ and none of them changed kind: the same tables a
        full fit builds, at the cost of the changed columns."""
        self.numeric_names_ = base.numeric_names_
        self.categorical_names_ = base.categorical_names_
        self.numeric_means_ = dict(base.numeric_means_)
        self.scaler_ = None
        if base.scaler_ is not None:
            self.scaler_ = StandardScaler()
            self.scaler_.mean_ = base.scaler_.mean_.copy()
            self.scaler_.scale_ = base.scaler_.scale_.copy()
        self.encoder_ = OneHotEncoder()
        self.encoder_.categories_ = categories = list(base.encoder_.categories_)
        fitted = {}
        widened = False
        for name in changed:
            if name in self.numeric_means_:
                stats = _fit_numeric_column(frame[name])
                j = base._blocks[name][0]
                impute, self.scaler_.mean_[j], self.scaler_.scale_[j] = stats
                self.numeric_means_[name] = impute
            else:
                stats = _fit_categorical_column(frame[name])
                i = self.categorical_names_.index(name)
                widened |= len(stats) != len(categories[i])
                categories[i] = list(stats)
            fitted[self.tokens_[name]] = stats
        self.statistics_ = {
            token: fitted[token] if token in fitted else base.statistics_[token]
            for token in self.tokens_.values()
        }
        self._blocks = (
            _layout(self.numeric_names_, self.categorical_names_, categories)
            if widened
            else base._blocks
        )
        return self

    @cached_property
    def _blocks(self) -> dict[str, tuple[int, int]]:
        """Feature name → ``(start, stop)`` of its output block, in output
        order: set by :meth:`fit`, derived on first use for a preprocessor
        unpickled from a release that did not keep it."""
        return _layout(
            self.numeric_names_, self.categorical_names_, self.encoder_.categories_
        )

    def transform(
        self, frame: DataFrame, *, _base: "Design | None | object" = _PUBLIC
    ) -> np.ndarray | Design:
        """Transform the input using the fitted state.

        Numeric cells that are missing or non-finite take the column's
        imputation mean, then every numeric column is standardized. Each
        categorical column's own codes are mapped to fitted one-hot
        indices through a remap array whose last slot serves code ``-1``
        (missing cells land on ``<missing>``); categories unseen at fit
        time map to no index and encode to zeros. Returns a fresh
        C-contiguous ``n × d`` array.

        ``_base`` is internal to :meth:`design`, which splices through
        here so that every featurization runs inside this method (the
        span ``perfbench`` times as ``ml.preprocessing.transform``):
        given ``None`` or a base :class:`Design`, the result is a
        :class:`Design`. Every column whose token and statistics token
        both name a block of the base is copied from the base's buffer,
        the bias column being one more copied block, one slice per run of
        copied blocks that keeps one offset into it (see :func:`_runs`):
        an unchanged layout is one run, the whole buffer. Only the other
        columns are encoded, in place.
        """
        blocks = self._blocks
        n_rows, width = frame.n_rows, self.n_output_features()
        found: dict[str, int] = {}  # copied column -> its start in base
        if _base is _PUBLIC:
            out = np.empty((n_rows, width))
        else:
            out = np.empty((n_rows, width + 1))
            tokens = self.tokens_
            named = [(name, (frame[name].token, tokens[name])) for name in blocks]
            keys = {key: blocks[name] for name, key in named}
            if _base is None:
                out[:, -1] = 1.0
            else:
                sources, source = _base.blocks, _base.buffer
                found = {name: sources[key][0] for name, key in named if key in sources}
                copied = [(*blocks[name], at) for name, at in found.items()]
                copied.append((width, width + 1, source.shape[1] - 1))
                for start, stop, at in _runs(copied):
                    out[:, start:stop] = source[:, at : at + stop - start]
        for j, name in enumerate(self.numeric_names_):
            if name in found:
                continue
            # Missing numeric cells hold nan, so "non-finite" covers them.
            values = frame[name].values
            filled = np.where(np.isfinite(values), values, self.numeric_means_[name])
            out[:, j] = (filled - self.scaler_.mean_[j]) / self.scaler_.scale_[j]
        for name, cats in zip(self.categorical_names_, self.encoder_.categories_):
            if name in found:
                continue
            start, stop = blocks[name]
            codes, own = frame[name].codes()
            fitted = {c: i for i, c in enumerate(cats)}
            remap = np.array(
                [fitted.get(c, -1) for c in own]
                + [fitted.get(_MISSING_CATEGORY, -1)],
                dtype=np.intp,
            )
            index = remap[codes]
            # One strided pass per indicator column writes every cell of
            # the block, zeros included.
            for j in range(stop - start):
                np.equal(index, j, out=out[:, start + j])
        if _base is _PUBLIC:
            return out
        out.setflags(write=False)
        return Design(out, keys)

    def design(self, frame: DataFrame, base: Design | None = None) -> Design:
        """Transform ``frame`` into a read-only :class:`Design`.

        Given the ``base`` design of a frame that shares columns with
        this one, the shared columns' blocks are copied from it and only
        the rest encoded, byte-identically to :meth:`transform`.
        """
        return self.transform(frame, _base=base)

    def fit_transform(self, frame: DataFrame) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(frame).transform(frame)

    def n_output_features(self) -> int:
        """Number of columns the transform produces."""
        return len(self.numeric_names_) + self.encoder_.n_output_features()
