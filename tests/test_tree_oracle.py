"""The vectorized CART split search against a per-feature loop oracle.

``_reference_tree`` is the original greedy CART: at each node it scans the
features one at a time (stable sort, prefix sums, first maximum) and keeps
a node list that ``_reference_predict`` walks row by row. The library tree
must reproduce its ``(feature, threshold, left, right, value)`` arrays and
its predictions byte for byte, including on tied values, tied gains,
constant columns and targets, and the smallest nodes.

``_reference_boosting`` is the original stage loop on top of it: every
stage grows a reference tree on its own (sorting at every node) and
updates the training scores by walking the training rows through it. The
library's boosting, which sorts once per fit and reads each training
row's leaf, must give the same scores and probabilities byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
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


@pytest.mark.parametrize("seed", range(40))
def test_tied_rows_are_summed_in_row_order(seed):
    # Targets that cancel make a prefix sum depend on the order of the
    # tied rows before it: 1e16 + 1 - 1e16 is 0, 1e16 - 1e16 + 1 is 1.
    # Every node must see its tied rows in ascending row order, as a
    # stable sort of the node's own rows gives them.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    X = rng.integers(0, 3, size=(n, 3)).astype(float)
    y = rng.choice([1e16, -1e16, 1.0, 3.0], size=n)
    _assert_same_tree(X, y, X[::-1], max_depth=4, min_samples_leaf=1, min_samples_split=2)


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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _reference_boosting(X, y, n_estimators, learning_rate, max_depth, subsample, random_state):
    """Per-class ``(base_score, [node list per stage])`` of the original loop."""
    classes = np.unique(y)
    rng = np.random.default_rng(random_state)
    targets = (
        [np.where(y == classes[1], 1.0, 0.0)]
        if len(classes) == 2
        else [np.where(y == cls, 1.0, 0.0) for cls in classes]
    )
    n = len(X)
    ensembles = []
    for target in targets:
        pos_rate = float(np.clip(target.mean(), 1e-6, 1.0 - 1e-6))
        base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
        raw = np.full(n, base_score)
        stages = []
        for __ in range(n_estimators):
            residual = target - _sigmoid(raw)
            if subsample < 1.0:
                size = max(2, int(round(n * subsample)))
                idx = rng.choice(n, size=min(size, n), replace=False)
            else:
                idx = np.arange(n)
            nodes = _reference_tree(X[idx], residual[idx], max_depth, 1, 2)
            raw += learning_rate * _reference_predict(nodes, X)
            stages.append(nodes)
        ensembles.append((base_score, stages))
    return ensembles


def _reference_scores(ensembles, learning_rate, X):
    scores = np.empty((len(X), len(ensembles)))
    for j, (base_score, stages) in enumerate(ensembles):
        raw = np.full(len(X), base_score)
        for nodes in stages:
            raw += learning_rate * _reference_predict(nodes, X)
        scores[:, j] = raw
    return scores


def _reference_proba(scores):
    if scores.shape[1] == 1:
        p1 = _sigmoid(scores[:, 0])
        return np.column_stack([1.0 - p1, p1])
    probs = _sigmoid(scores)
    return probs / probs.sum(axis=1, keepdims=True)


def _boosting_frame(seed, n=90):
    # One-hot-like binary columns (many ties) beside scaled numerics.
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.normal(size=(n, 3)), rng.integers(0, 2, size=(n, 5)).astype(float)]
    )
    X_test = np.column_stack(
        [rng.normal(size=(40, 3)), rng.integers(0, 2, size=(40, 5)).astype(float)]
    )
    return rng, X, X_test


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("subsample", [1.0, 0.7])
@pytest.mark.parametrize("seed", range(3))
def test_boosting_classifier_matches_stage_loop_oracle(n_classes, subsample, seed):
    rng, X, X_test = _boosting_frame(seed)
    y = (X[:, 0] + X[:, 3] + rng.normal(scale=0.7, size=len(X)) > 0.5).astype(int)
    if n_classes == 3:
        y = y + (X[:, 1] > 0.6)
    params = dict(n_estimators=12, learning_rate=0.3, max_depth=3, subsample=subsample)
    model = GradientBoostingClassifier(**params, random_state=seed).fit(X, y)
    ensembles = _reference_boosting(X, y, **params, random_state=seed)
    assert [base for base, __ in model.ensembles_] == [base for base, __ in ensembles]
    for rows in (X, X_test):
        scores = _reference_scores(ensembles, params["learning_rate"], rows)
        assert model.decision_function(rows).tobytes() == scores.tobytes()
        assert model.predict_proba(rows).tobytes() == _reference_proba(scores).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_boosting_regressor_matches_stage_loop_oracle(seed):
    rng, X, X_test = _boosting_frame(seed)
    y = np.sin(X[:, 0]) + X[:, 4] - 0.5 * X[:, 5] + rng.normal(scale=0.1, size=len(X))
    learning_rate = 0.2
    model = GradientBoostingRegressor(n_estimators=12, learning_rate=learning_rate).fit(X, y)
    base_score = float(y.mean())
    residual = y - base_score
    stages = []
    for __ in range(12):
        nodes = _reference_tree(X, residual, 3, 1, 2)
        residual -= learning_rate * _reference_predict(nodes, X)
        stages.append(nodes)
    for rows in (X, X_test):
        expected = np.full(len(rows), base_score)
        for nodes in stages:
            expected += learning_rate * _reference_predict(nodes, rows)
        assert model.predict(rows).tobytes() == expected.tobytes()
