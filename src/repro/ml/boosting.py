"""Gradient boosting classification on CART regression trees."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X, check_X_y
from repro.ml.tree import DecisionTreeRegressor, _check_X_target, _presort

__all__ = ["GradientBoostingClassifier", "GradientBoostingRegressor"]


class GradientBoostingRegressor(BaseEstimator):
    """Squared-loss gradient boosting on CART trees (for the §6
    regression-task extension of COMET)."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit on the given training data and return ``self``."""
        X, y = _check_X_target(X, y)
        self.base_score_ = float(y.mean())
        residual = y - self.base_score_
        order = _presort(X)
        self.trees_: list[DecisionTreeRegressor] = []
        for __ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            leaf = tree._fit_sorted(X, residual, order)
            residual -= self.learning_rate * tree.value_[leaf]
            self.trees_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        X = check_X(X)
        out = np.full(len(X), self.base_score_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out


class GradientBoostingClassifier(BaseEstimator):
    """Binomial-deviance gradient boosting; multiclass via one-vs-rest.

    Each stage fits a regression tree to the negative gradient of the
    logistic loss (``y − p``) and adds it with a shrinkage factor, the
    classic Friedman (2001) recipe the paper's GB configuration uses.

    Parameters
    ----------
    n_estimators:
        Boosting stages per binary problem.
    learning_rate:
        Shrinkage applied to each stage.
    max_depth:
        Depth of the stage trees.
    subsample:
        Row fraction sampled (without replacement) per stage; 1.0 disables
        stochastic boosting.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        random_state: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Fit on the given training data and return ``self``."""
        X, y = check_X_y(X, y)
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.random_state)
        self.ensembles_: list[tuple[float, list[DecisionTreeRegressor]]] = []
        binary_targets = (
            [np.where(y == self.classes_[1], 1.0, 0.0)]
            if len(self.classes_) == 2
            else [np.where(y == cls, 1.0, 0.0) for cls in self.classes_]
        )
        # Without row sampling every stage fits on all of X: sort it once.
        order = _presort(X) if self.subsample == 1.0 else None
        for target in binary_targets:
            self.ensembles_.append(self._fit_binary(X, target, rng, order))
        return self

    def _fit_binary(
        self,
        X: np.ndarray,
        target: np.ndarray,
        rng: np.random.Generator,
        order: np.ndarray | None,
    ) -> tuple[float, list[DecisionTreeRegressor]]:
        pos_rate = float(np.clip(target.mean(), 1e-6, 1.0 - 1e-6))
        base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
        raw = np.full(len(X), base_score)
        trees: list[DecisionTreeRegressor] = []
        n = len(X)
        for __ in range(self.n_estimators):
            prob = _sigmoid(raw)
            residual = target - prob
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            if order is None:
                size = max(2 * self.min_samples_leaf, int(round(n * self.subsample)))
                idx = rng.choice(n, size=min(size, n), replace=False)
                tree.fit(X[idx], residual[idx])
                raw += self.learning_rate * tree.predict(X)
            else:
                leaf = tree._fit_sorted(X, residual, order)
                raw += self.learning_rate * tree.value_[leaf]
            trees.append(tree)
        return base_score, trees

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores (pre-argmax)."""
        X = check_X(X)
        scores = np.empty((len(X), len(self.ensembles_)))
        for j, (base_score, trees) in enumerate(self.ensembles_):
            raw = np.full(len(X), base_score)
            for tree in trees:
                raw += self.learning_rate * tree.predict(X)
            scores[:, j] = raw
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates; rows sum to one."""
        scores = self.decision_function(X)
        if len(self.classes_) == 2:
            p1 = _sigmoid(scores[:, 0])
            return np.column_stack([1.0 - p1, p1])
        probs = _sigmoid(scores)
        return probs / probs.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
