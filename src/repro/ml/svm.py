"""Linear support vector classification.

A one-vs-rest linear SVM trained on the smooth squared-hinge loss with
L-BFGS; exposes per-sample hinge gradients for ActiveClean (which the paper
evaluates as "AC-SVM").
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X, check_X_y, unique_labels
from repro.ml.linear import _add_bias

__all__ = ["LinearSVC"]


class LinearSVC(BaseEstimator):
    """One-vs-rest linear SVM (squared hinge, L2 regularized).

    Parameters
    ----------
    C:
        Inverse regularization strength.
    max_iter:
        L-BFGS iteration cap per binary subproblem.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        self.C = C
        self.max_iter = max_iter

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVC":
        """Fit on the given training data and return ``self``."""
        # Loaded on the first fit, not with the package (~0.4 s).
        from scipy import optimize

        X, y = check_X_y(X, y)
        self.classes_ = unique_labels(y)
        Xb = _add_bias(X)
        n, d = Xb.shape
        lam = 1.0 / (self.C * n)
        weights = []
        for cls in self.classes_:
            target = np.where(y == cls, 1.0, -1.0)

            def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
                margins = target * (Xb @ w)
                slack = np.maximum(0.0, 1.0 - margins)
                loss = np.mean(slack**2) + 0.5 * lam * np.sum(w[:-1] ** 2)
                coef = -2.0 * slack * target / n
                grad = Xb.T @ coef
                grad[:-1] += lam * w[:-1]
                return loss, grad

            result = optimize.minimize(
                objective,
                np.zeros(d),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.max_iter},
            )
            weights.append(result.x)
        self.coef_ = np.column_stack(weights)  # (d+1, n_classes)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores (pre-argmax)."""
        X = check_X(X)
        return _add_bias(X) @ self.coef_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        scores = self.decision_function(X)
        if len(self.classes_) == 2:
            # Use the positive-class column of the OvR pair for a stable
            # binary decision.
            return self.classes_[(scores[:, 1] > scores[:, 0]).astype(int)]
        return self.classes_[np.argmax(scores, axis=1)]

    def gradient_norms(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample hinge-loss gradient norms (for ActiveClean)."""
        X, y = check_X_y(X, y)
        Xb = _add_bias(X)
        scores = Xb @ self.coef_
        norms = np.zeros(len(X))
        row_norm = np.linalg.norm(Xb, axis=1)
        for j, cls in enumerate(self.classes_):
            target = np.where(y == cls, 1.0, -1.0)
            slack = np.maximum(0.0, 1.0 - target * scores[:, j])
            norms += 2.0 * slack * row_norm
        return norms

    def sgd_step(self, X: np.ndarray, y: np.ndarray, lr: float) -> None:
        """One batch gradient step on the squared hinge (ActiveClean update)."""
        X, y = check_X_y(X, y)
        Xb = _add_bias(X)
        scores = Xb @ self.coef_
        for j, cls in enumerate(self.classes_):
            target = np.where(y == cls, 1.0, -1.0)
            slack = np.maximum(0.0, 1.0 - target * scores[:, j])
            grad = Xb.T @ (-2.0 * slack * target) / len(X)
            self.coef_[:, j] -= lr * grad
