"""Estimator protocol: parameters, cloning, and validation helpers."""

from __future__ import annotations

import inspect
from typing import Any

import numpy as np

__all__ = ["BaseEstimator", "clone", "check_X_y", "check_X", "one_hot"]


class BaseEstimator:
    """Base class with the sklearn-style parameter protocol.

    Subclasses must accept all hyperparameters as keyword arguments of
    ``__init__`` and store them under the same attribute names; fitted state
    uses a trailing underscore (``coef_`` etc.). That convention is what
    makes :func:`clone` and random hyperparameter search work generically.
    """

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        # Cached in the class's own ``__dict__``, which subclasses never share.
        names = cls.__dict__.get("_param_names_of_class")
        if names is None:
            signature = inspect.signature(cls.__init__)
            names = tuple(
                name
                for name, p in signature.parameters.items()
                if name != "self" and p.kind is not inspect.Parameter.VAR_KEYWORD
            )
            cls._param_names_of_class = names
        return names

    def get_params(self) -> dict[str, Any]:
        """Return the constructor hyperparameters of this estimator."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor hyperparameters; unknown names raise."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no hyperparameter {name!r}; valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def is_fitted(self) -> bool:
        """True once ``fit`` has produced trailing-underscore state."""
        return any(
            name.endswith("_") and not name.startswith("_") for name in vars(self)
        )


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of ``estimator`` with the same parameters."""
    return type(estimator)(**estimator.get_params())


def _leading_buffer(X: np.ndarray) -> np.ndarray | None:
    """The read-only C-contiguous float array one column wider than
    ``X`` whose leading columns ``X`` is (same start, same strides), or
    ``None``."""
    buffer = X.base
    if (
        type(buffer) is not np.ndarray
        or buffer.flags.writeable
        or not buffer.flags.c_contiguous
        or buffer.dtype != np.float64
        or X.dtype != np.float64
        or buffer.shape != (X.shape[0], X.shape[1] + 1)
        or X.strides != buffer.strides
        or X.__array_interface__["data"][0] != buffer.__array_interface__["data"][0]
    ):
        return None
    return buffer


def bias_buffer_of(X: np.ndarray) -> np.ndarray | None:
    """The biased buffer ``X`` is the leading view of, or ``None``.

    Returns a buffer only when it is a read-only C-contiguous float
    array one column wider than ``X``, ``X`` starts at its first byte
    with its strides, and its last column is all 1.0: it then holds the
    bytes of ``X`` with a bias column appended.
    """
    buffer = _leading_buffer(X)
    if buffer is None or not (buffer[:, -1] == 1.0).all():
        return None
    return buffer


def as_matrix(X: np.ndarray) -> np.ndarray:
    """``X`` as a 2-D float array, not yet tested for NaN or infinity."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    return X


def check_X(X: np.ndarray) -> np.ndarray:
    """Validate a 2-D float feature matrix without NaNs.

    The leading view of a wider read-only buffer (a featurized design
    matrix) is first tested through the contiguous buffer, about twice
    as fast as a strided pass; only when that finds a non-finite value,
    which may sit in the extra column, is the view itself tested.
    """
    X = as_matrix(X)
    buffer = _leading_buffer(X)
    finite = buffer is not None and np.isfinite(buffer).all()
    if not finite and not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity; impute before fitting")
    return X


def check_labels(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Validate an integer label vector against the rows of matrix ``X``."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    return y.astype(int)


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and an integer label vector together."""
    X = check_X(X)
    return X, check_labels(X, y)


def unique_labels(y: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``y``: ``np.unique(y)``'s values and
    dtype (NaNs collapsed to one), found by sorting — on a few thousand
    labels numpy's hash-based ``unique`` is about ten times slower."""
    values = np.sort(y, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    if values.dtype.kind == "f" and len(values) and np.isnan(values[-1]):
        keep[np.searchsorted(values, values[-1]) + 1 :] = False
    return values[keep]


def one_hot(y: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Indicator matrix of ``y`` over the distinct ``classes``.

    Raises ``KeyError`` when ``y`` holds a label outside ``classes``.
    """
    y = np.asarray(y)
    hits = y[:, None] == classes
    # Each row hits at most one of the distinct classes, so a short count
    # of hits finds an unknown label: at 2400 rows it costs ~3 µs against
    # ~65 µs for ``hits.any(axis=1)``.
    if np.count_nonzero(hits) != len(y):
        raise KeyError(y[~hits.any(axis=1)][0])
    return hits.astype(float)
