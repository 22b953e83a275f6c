"""CART regression trees (the weak learner inside gradient boosting)."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X

__all__ = ["DecisionTreeRegressor"]


class DecisionTreeRegressor(BaseEstimator):
    """Exact greedy CART with squared-error splits.

    The fitted tree is stored as parallel arrays indexed by node id (the
    root is node 0, ids in depth-first preorder): ``feature_`` (-1 for a
    leaf), ``threshold_``, ``left_``/``right_`` (-1 for a leaf) and
    ``value_``. A row goes left when ``x[feature] <= threshold``.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a single leaf is depth 0).
    min_samples_leaf:
        Minimum samples on each side of a split.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit on the given training data and return ``self``."""
        X = check_X(X)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_in_ = X.shape[1]
        nodes: list[list] = []
        self._build(X, y, np.arange(len(X)), 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=float)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (or values) for the given input."""
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but the tree was fitted on "
                f"{self.n_features_in_}"
            )
        # All rows descend together, one level per pass.
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.feature_[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature_[at]] <= self.threshold_[at]
            node[rows] = np.where(go_left, self.left_[at], self.right_[at])
            rows = rows[self.feature_[node[rows]] >= 0]
        return self.value_[node]

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self.feature_ < 0))

    # ------------------------------------------------------------------ #
    def _build(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int, nodes: list
    ) -> int:
        node_id = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y[idx].mean())])
        if depth >= self.max_depth or len(idx) < self.min_samples_split:
            return node_id
        split = self._best_split(X, y, idx)
        if split is None:
            return node_id
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_id = self._build(X, y, idx[mask], depth + 1, nodes)
        right_id = self._build(X, y, idx[~mask], depth + 1, nodes)
        nodes[node_id][:4] = [feature, threshold, left_id, right_id]
        return node_id

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) over every feature in one 2-D pass.

        Row ``p - 1`` of the gain matrix scores putting the ``p`` smallest
        values of a column on the left. A stable sort, a sequential
        ``cumsum`` and first-maximum ``argmax`` (within a column, then
        across columns) pick the same split, bit for bit, as scanning the
        features one at a time in index order.
        """
        n, n_features = len(idx), X.shape[1]
        if n < 2 or n_features == 0:
            return None
        X_node = X[idx]
        y_node = y[idx]
        total_sum = y_node.sum()
        base_sse = np.sum(y_node**2) - total_sum**2 / n
        order = np.argsort(X_node, axis=0, kind="stable")
        v_sorted = np.take_along_axis(X_node, order, axis=0)
        prefix = np.cumsum(y_node[order], axis=0)
        positions = np.arange(1.0, n)[:, None]  # left part size
        left_sum = prefix[:-1]
        right_sum = total_sum - left_sum
        gain = left_sum**2 / positions + right_sum**2 / (n - positions) - total_sum**2 / n
        # Splits fall between distinct consecutive values and leave at
        # least ``min_samples_leaf`` rows on each side.
        min_leaf = self.min_samples_leaf
        valid = (
            (v_sorted[1:] != v_sorted[:-1]) & (positions >= min_leaf) & (positions <= n - min_leaf)
        )
        gain[~valid] = -np.inf
        rows = np.argmax(gain, axis=0)
        column_best = gain[rows, np.arange(n_features)]
        feature = int(np.argmax(column_best))
        best_gain = column_best[feature]
        if best_gain > 1e-12 and best_gain > 1e-12 * max(1.0, base_sse):
            pos = rows[feature] + 1
            threshold = 0.5 * (v_sorted[pos - 1, feature] + v_sorted[pos, feature])
            return feature, float(threshold)
        return None
