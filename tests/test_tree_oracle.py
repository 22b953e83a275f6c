"""The vectorized CART split search against a per-feature loop oracle.

``_reference_tree`` is the original greedy CART: at each node it scans the
features one at a time (stable sort, prefix sums, first maximum) and keeps
a node list that ``_reference_predict`` walks row by row. The library tree
must reproduce its ``(feature, threshold, left, right, value)`` arrays and
its predictions byte for byte, including on tied values, tied gains,
constant columns and targets, and the smallest nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeRegressor


def _reference_best_split(X, y, idx, min_leaf):
    n = len(idx)
    y_node = y[idx]
    best_gain = 1e-12
    best = None
    total_sum = y_node.sum()
    base_sse = np.sum(y_node**2) - total_sum**2 / n
    for feature in range(X.shape[1]):
        values = X[idx, feature]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        y_sorted = y_node[order]
        distinct = v_sorted[1:] != v_sorted[:-1]
        positions = np.flatnonzero(distinct) + 1
        if positions.size == 0:
            continue
        valid = (positions >= min_leaf) & (positions <= n - min_leaf)
        positions = positions[valid]
        if positions.size == 0:
            continue
        prefix = np.cumsum(y_sorted)
        left_sum = prefix[positions - 1]
        right_sum = total_sum - left_sum
        gain = left_sum**2 / positions + right_sum**2 / (n - positions) - total_sum**2 / n
        j = int(np.argmax(gain))
        if gain[j] > best_gain and gain[j] > 1e-12 * max(1.0, base_sse):
            best_gain = gain[j]
            pos = positions[j]
            threshold = 0.5 * (v_sorted[pos - 1] + v_sorted[pos])
            best = (feature, float(threshold))
    return best


def _reference_tree(X, y, max_depth, min_samples_leaf, min_samples_split):
    """Node list ``[feature, threshold, left, right, value]`` in preorder."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    nodes = []

    def build(idx, depth):
        node_id = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y[idx].mean())])
        if depth >= max_depth or len(idx) < min_samples_split:
            return node_id
        split = _reference_best_split(X, y, idx, min_samples_leaf)
        if split is None:
            return node_id
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_id = build(idx[mask], depth + 1)
        right_id = build(idx[~mask], depth + 1)
        nodes[node_id][:4] = [feature, threshold, left_id, right_id]
        return node_id

    build(np.arange(len(X)), 0)
    return nodes


def _reference_predict(nodes, X):
    out = np.empty(len(X))
    for i, row in enumerate(np.asarray(X, dtype=float)):
        node = nodes[0]
        while node[0] != -1:
            node = nodes[node[2]] if row[node[0]] <= node[1] else nodes[node[3]]
        out[i] = node[4]
    return out


def _assert_same_tree(X, y, X_test, **params):
    tree = DecisionTreeRegressor(**params).fit(X, y)
    nodes = _reference_tree(X, y, **params)
    feature, threshold, left, right, value = (np.array(col) for col in zip(*nodes))
    np.testing.assert_array_equal(tree.feature_, feature)
    assert tree.threshold_.tobytes() == threshold.astype(float).tobytes()
    np.testing.assert_array_equal(tree.left_, left)
    np.testing.assert_array_equal(tree.right_, right)
    assert tree.value_.tobytes() == value.astype(float).tobytes()
    # A row sitting exactly on each threshold checks the ``<=`` tie rule.
    on_threshold = np.repeat(threshold.astype(float)[:, None], X.shape[1], axis=1)
    for rows in (X, X_test, on_threshold):
        assert tree.predict(rows).tobytes() == _reference_predict(nodes, rows).tobytes()
    return tree


@st.composite
def _frames(draw):
    n = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for __ in range(n_features):
        kind = draw(st.sampled_from(["ints", "floats", "constant", "copy"]))
        if kind == "ints":  # many ties
            columns.append(rng.integers(0, draw(st.integers(1, 4)), size=n).astype(float))
        elif kind == "floats":
            columns.append(rng.normal(size=n))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.floats(-5, 5))))
        else:  # a duplicate column ties every gain with an earlier feature
            columns.append(columns[-1].copy() if columns else np.zeros(n))
    X = np.column_stack(columns)
    target = draw(st.sampled_from(["ints", "floats", "constant"]))
    if target == "ints":  # tied gains within and across columns
        y = rng.integers(0, 3, size=n).astype(float)
    elif target == "floats":
        y = rng.normal(size=n)
    else:
        y = np.full(n, draw(st.floats(-5, 5)))
    X_test = rng.integers(-1, 5, size=(7, n_features)).astype(float)
    return X, y, X_test


@settings(max_examples=300, deadline=None)
@given(
    frame=_frames(),
    max_depth=st.sampled_from([0, 4]),
    min_samples_leaf=st.sampled_from([1, 3]),
    min_samples_split=st.sampled_from([1, 2]),
)
def test_vectorized_tree_matches_loop_oracle(
    frame, max_depth, min_samples_leaf, min_samples_split
):
    _assert_same_tree(
        *frame,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
    )


@pytest.mark.parametrize("seed", range(12))
def test_boosting_sized_trees_match_loop_oracle(seed):
    # The shape gradient boosting fits inside a Figure 12 iteration: a
    # few hundred rows of one-hot and scaled columns, depth 3.
    rng = np.random.default_rng(seed)
    n = 160
    X = np.column_stack(
        [rng.normal(size=(n, 6)), rng.integers(0, 2, size=(n, 18)).astype(float)]
    )
    y = rng.integers(0, 2, size=n) - rng.uniform(size=n)
    _assert_same_tree(X, y, X[::-1], max_depth=3, min_samples_leaf=1, min_samples_split=2)


def test_single_row_with_min_samples_split_one_is_a_leaf():
    tree = _assert_same_tree(
        np.array([[1.0, 2.0]]),
        np.array([3.0]),
        np.zeros((2, 2)),
        max_depth=4,
        min_samples_leaf=1,
        min_samples_split=1,
    )
    assert tree.n_leaves == 1


def test_zero_feature_input_is_a_leaf():
    tree = DecisionTreeRegressor().fit(np.zeros((4, 0)), np.arange(4.0))
    assert tree.predict(np.zeros((2, 0))).tolist() == [1.5, 1.5]


def test_predict_rejects_a_different_feature_count():
    X = np.random.default_rng(0).normal(size=(20, 3))
    tree = DecisionTreeRegressor().fit(X, X[:, 0])
    assert tree.n_features_in_ == 3
    for width in (2, 4):
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((5, width)))
