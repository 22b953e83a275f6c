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
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind is not inspect.Parameter.VAR_KEYWORD
        ]

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


def check_X(X: np.ndarray) -> np.ndarray:
    """Validate a 2-D float feature matrix without NaNs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity; impute before fitting")
    return X


def check_X_y(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and an integer label vector together."""
    X = check_X(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y.astype(int)


def one_hot(y: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Indicator matrix of ``y`` over the sorted ``classes``.

    Raises ``KeyError`` when ``y`` holds a label outside ``classes``.
    """
    y = np.asarray(y)
    index = np.searchsorted(classes, y).clip(max=len(classes) - 1)
    unknown = classes[index] != y
    if unknown.any():
        raise KeyError(y[unknown][0])
    out = np.zeros((len(y), len(classes)))
    out[np.arange(len(y)), index] = 1.0
    return out
