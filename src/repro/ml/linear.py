"""Linear models: ridge regression, logistic regression, and their
classification adapters.

These are also the convex learners ActiveClean requires (§4.5 of the paper
evaluates AC with SVM, linear regression — LIR — and logistic regression —
LOR), so they expose per-sample loss gradients through
``gradient_norms(X, y)``.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.ml.base import BaseEstimator, check_X, check_X_y, one_hot

__all__ = ["LinearRegression", "LinearRegressionClassifier", "LogisticRegression"]


class LinearRegression(BaseEstimator):
    """Ridge regression with a closed-form normal-equation solution."""

    def __init__(self, alpha: float = 1e-3) -> None:
        self.alpha = alpha

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        """Fit on the given training data and return ``self``."""
        X = check_X(X)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        Xb = _add_bias(X)
        d = Xb.shape[1]
        reg = self.alpha * np.eye(d)
        reg[-1, -1] = 0.0  # do not penalize the bias
        self.coef_ = np.linalg.solve(Xb.T @ Xb + reg, Xb.T @ y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        X = check_X(X)
        out = _add_bias(X) @ self.coef_
        return out[:, 0] if out.shape[1] == 1 else out


class LinearRegressionClassifier(BaseEstimator):
    """Least-squares classification ("LIR" in the paper's AC comparison).

    Binary problems regress on the {0, 1} label and threshold at 0.5;
    multiclass problems fit one-vs-rest regressions and take the argmax.
    """

    def __init__(self, alpha: float = 1e-3) -> None:
        self.alpha = alpha

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegressionClassifier":
        """Fit on the given training data and return ``self``."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        Y = one_hot(y, self.classes_)
        self._model_ = LinearRegression(alpha=self.alpha).fit(X, Y)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores (pre-argmax)."""
        scores = self._model_.predict(X)
        return scores if scores.ndim == 2 else scores[:, None]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def gradient_norms(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample squared-loss gradient norms (for ActiveClean)."""
        X, y = check_X_y(X, y)
        residual = self.decision_function(X) - one_hot(y, self.classes_)
        row_norm = np.linalg.norm(_add_bias(X), axis=1)
        return np.linalg.norm(residual, axis=1) * row_norm

    def sgd_step(self, X: np.ndarray, y: np.ndarray, lr: float) -> None:
        """One batch gradient step on the squared loss (ActiveClean update)."""
        X, y = check_X_y(X, y)
        Xb = _add_bias(X)
        residual = Xb @ self._model_.coef_ - one_hot(y, self.classes_)
        grad = Xb.T @ residual / len(X)
        self._model_.coef_ -= lr * grad


class LogisticRegression(BaseEstimator):
    """Multinomial logistic regression trained with L-BFGS.

    Parameters
    ----------
    C:
        Inverse regularization strength (larger = weaker L2 penalty).
    max_iter:
        L-BFGS iteration cap.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        self.C = C
        self.max_iter = max_iter

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on the given training data and return ``self``."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        n, d = X.shape
        k = len(self.classes_)
        Xb = _add_bias(X)
        Y = one_hot(y, self.classes_)
        lam = 1.0 / (self.C * n)

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat.reshape(d + 1, k)
            probs = _softmax(Xb @ W)
            nll = -np.sum(Y * np.log(probs + 1e-12)) / n
            penalty = 0.5 * lam * np.sum(W[:-1] ** 2)
            grad = Xb.T @ (probs - Y) / n
            grad[:-1] += lam * W[:-1]
            return nll + penalty, grad.ravel()

        w0 = np.zeros((d + 1) * k)
        result = optimize.minimize(
            objective, w0, jac=True, method="L-BFGS-B", options={"maxiter": self.max_iter}
        )
        self.coef_ = result.x.reshape(d + 1, k)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates; rows sum to one."""
        X = check_X(X)
        return _softmax(_add_bias(X) @ self.coef_)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores (pre-argmax)."""
        X = check_X(X)
        return _add_bias(X) @ self.coef_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def gradient_norms(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample NLL gradient norms (for ActiveClean)."""
        X, y = check_X_y(X, y)
        probs = self.predict_proba(X)
        residual = probs - one_hot(y, self.classes_)
        row_norm = np.linalg.norm(_add_bias(X), axis=1)
        return np.linalg.norm(residual, axis=1) * row_norm

    def sgd_step(self, X: np.ndarray, y: np.ndarray, lr: float) -> None:
        """One batch gradient step on the NLL (ActiveClean update)."""
        X, y = check_X_y(X, y)
        Xb = _add_bias(X)
        probs = _softmax(Xb @ self.coef_)
        grad = Xb.T @ (probs - one_hot(y, self.classes_)) / len(X)
        self.coef_ -= lr * grad


def _add_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((len(X), 1))])


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
