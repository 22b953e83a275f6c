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
        X, y = _check_X_target(X, y)
        self._fit_sorted(X, y, _presort(X))
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
    def _fit_sorted(self, X: np.ndarray, y: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Fit on validated ``X`` and ``y`` given ``order = _presort(X)``.

        Each node holds its rows in ascending order (``idx``) and, per
        feature, stably sorted by that feature (``order``, F × n). A
        child's ``order`` is its parent's filtered by the split mask: a
        stable filter of a stable sort is the subset's stable sort, so no
        node below the root sorts. Returns the leaf of every training row,
        the one ``predict(X)`` reaches: the partition makes the same
        ``<=`` comparisons.
        """
        n_rows, n_features = X.shape
        self.n_features_in_ = n_features
        XT = np.ascontiguousarray(X.T)
        values = XT.ravel()
        offsets = np.arange(n_features)[:, None] * n_rows  # row ids -> ids into values
        nodes: list[list] = []
        leaf = np.empty(n_rows, dtype=np.intp)
        # Grown in preorder: a left child, popped first, gets the id after
        # its parent's; a right child learns its id once the left subtree
        # is done, and writes it into its parent (``right_of``).
        stack = [(np.arange(n_rows), order, 0, -1)]
        while stack:
            idx, order, depth, right_of = stack.pop()
            node_id = len(nodes)
            if right_of >= 0:
                nodes[right_of][3] = node_id
            n = len(idx)
            y_node = y[idx]
            total = y_node.sum()  # total / n is y_node.mean(), byte for byte
            nodes.append([-1, 0.0, -1, -1, float(total / n)])
            split = None
            if depth < self.max_depth and n >= self.min_samples_split:
                split = self._best_split(values.take(order + offsets), y[order], y_node, total)
            if split is None:
                leaf[idx] = node_id
                continue
            feature, threshold = split
            nodes[node_id][:3] = [feature, threshold, node_id + 1]
            goes_left = XT[feature] <= threshold
            mask = goes_left[idx]
            in_left = goes_left.take(order).ravel()
            rows = order.ravel()
            right_order = rows.compress(~in_left).reshape(n_features, -1)
            stack.append((idx[~mask], right_order, depth + 1, node_id))
            left_order = rows.compress(in_left).reshape(n_features, -1)
            stack.append((idx[mask], left_order, depth + 1, -1))
        feature, threshold, left, right, value = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=float)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=float)
        return leaf

    def _best_split(
        self, v_sorted: np.ndarray, y_sorted: np.ndarray, y_node: np.ndarray, total: float
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) over every feature in one 2-D pass.

        Row ``f`` of ``v_sorted``/``y_sorted`` holds the node's values of
        feature ``f`` ascending and the targets in the same order. Split
        ``j`` puts the ``j + 1`` smallest on the left. Gains are scored
        only where a split can fall: between distinct consecutive values,
        leaving at least ``min_samples_leaf`` rows on each side. Read in
        (feature, position) order, the first maximum is the split that
        scanning the features one at a time, in index order, keeps.
        """
        n = len(y_node)
        min_leaf = max(self.min_samples_leaf, 1)
        lo, hi = min_leaf - 1, n - min_leaf
        if hi <= lo:
            return None
        valid = np.zeros(v_sorted.shape, dtype=bool)
        valid[:, lo:hi] = v_sorted[:, lo + 1 : hi + 1] != v_sorted[:, lo:hi]
        at = np.flatnonzero(valid)  # feature * n + j, in (feature, position) order
        if at.size == 0:
            return None
        left_sum = np.cumsum(y_sorted, axis=1).take(at)
        positions = (at % n + 1).astype(float)  # left part size
        right_sum = total - left_sum
        gain = left_sum**2 / positions + right_sum**2 / (n - positions) - total**2 / n
        best = int(np.argmax(gain))
        best_gain = gain[best]
        base_sse = np.sum(y_node**2) - total**2 / n
        if best_gain > 1e-12 and best_gain > 1e-12 * max(1.0, base_sse):
            feature, j = divmod(int(at[best]), n)
            threshold = 0.5 * (v_sorted[feature, j] + v_sorted[feature, j + 1])
            return feature, float(threshold)
        return None


def _presort(X: np.ndarray) -> np.ndarray:
    """Row ids stably sorted by each feature, one row per feature (F × n)."""
    return np.argsort(X.T, axis=1, kind="stable")


def _check_X_target(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and a finite float target together."""
    X = check_X(X)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinity")
    return X, y
