"""Unit tests for preprocessing, model selection, trees, and the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import Column, ColumnKind, DataFrame
from repro.ml import (
    KFold,
    OneHotEncoder,
    RandomSearch,
    StandardScaler,
    TabularModel,
    TabularPreprocessor,
    make_classifier,
    train_test_split,
)
from repro.ml import preprocessing
from repro.ml.tree import DecisionTreeRegressor


class TestStandardScaler:
    def test_zero_mean_unit_std(self):
        X = np.random.default_rng(0).normal(3.0, 2.0, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_stays_zero(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z, 0.0)

    def test_column_count_checked(self):
        scaler = StandardScaler().fit(np.ones((5, 2)))
        with pytest.raises(ValueError):
            scaler.transform(np.ones((5, 3)))


class TestOneHotEncoder:
    def test_basic_encoding(self):
        enc = OneHotEncoder().fit([np.array(["a", "b", "a"], dtype=object)])
        out = enc.transform([np.array(["b", "a"], dtype=object)])
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_unseen_category_encodes_to_zeros(self):
        enc = OneHotEncoder().fit([np.array(["a", "b"], dtype=object)])
        out = enc.transform([np.array(["z"], dtype=object)])
        assert out.tolist() == [[0.0, 0.0]]

    def test_n_output_features(self):
        enc = OneHotEncoder().fit(
            [np.array(["a", "b"], dtype=object), np.array(["x", "y", "z"], dtype=object)]
        )
        assert enc.n_output_features() == 5

    def test_column_count_checked(self):
        enc = OneHotEncoder().fit([np.array(["a"], dtype=object)])
        with pytest.raises(ValueError):
            enc.transform([np.array(["a"], dtype=object)] * 2)


class TestTabularPreprocessor:
    @pytest.fixture
    def frame(self):
        return DataFrame(
            {
                "num": [1.0, 2.0, np.nan, 4.0],
                "cat": np.array(["a", "b", None, "b"], dtype=object),
            }
        )

    def test_output_width(self, frame):
        prep = TabularPreprocessor(["num", "cat"]).fit(frame)
        X = prep.transform(frame)
        # 1 numeric + one-hot of {a, b, <missing>}
        assert X.shape == (4, 4)
        assert prep.n_output_features() == 4

    def test_missing_numeric_imputed_with_train_mean(self, frame):
        prep = TabularPreprocessor(["num"]).fit(frame)
        X = prep.transform(frame)
        # mean of present values (1,2,4) = 7/3; imputed cell scales to where
        # the mean sits → exactly 0 after standardization
        assert X[2, 0] == pytest.approx(0.0)

    def test_missing_category_gets_own_column(self, frame):
        prep = TabularPreprocessor(["cat"]).fit(frame)
        X = prep.transform(frame)
        assert X[2].sum() == 1.0  # the <missing> indicator fires

    def test_no_features_raises(self):
        with pytest.raises(ValueError):
            TabularPreprocessor([])

    def test_all_finite_output(self, frame):
        X = TabularPreprocessor(["num", "cat"]).fit_transform(frame)
        assert np.isfinite(X).all()

    def test_infinite_cell_clamped(self):
        frame = DataFrame({"num": [1.0, np.inf, 3.0]})
        X = TabularPreprocessor(["num"]).fit_transform(frame)
        assert np.isfinite(X).all()

    def test_near_constant_column_is_only_centred(self):
        # Two cells one ulp apart: their variance is rounding noise, so
        # the column counts as constant and is not scaled by ~1e16.
        train = DataFrame({"num": [1.0, 1.0 + 2.0**-52]})
        test = DataFrame({"num": [1.5, 1.0]})
        prep = TabularPreprocessor(["num"]).fit(train)
        assert prep.scaler_.scale_.tolist() == [1.0]
        assert np.abs(prep.transform(test)).max() < 1.0
        scaler = StandardScaler().fit(train["num"].values[:, None])
        assert scaler.scale_.tolist() == [1.0]


class TestTrainTestSplit:
    def test_disjoint_and_complete(self):
        train, test = train_test_split(100, test_size=0.3, rng=0)
        assert len(set(train) & set(test)) == 0
        assert len(train) + len(test) == 100

    def test_stratified_keeps_class_shares(self):
        y = np.array([0] * 90 + [1] * 10)
        train, test = train_test_split(100, test_size=0.2, rng=0, stratify=y)
        assert (y[test] == 1).sum() == 2

    def test_invalid_test_size_raises(self):
        with pytest.raises(ValueError):
            train_test_split(10, test_size=1.5)

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError):
            train_test_split(1)

    @given(st.integers(10, 200), st.floats(0.1, 0.5))
    @settings(max_examples=25)
    def test_property_disjoint(self, n, ts):
        train, test = train_test_split(n, test_size=ts, rng=0)
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == n


class TestKFold:
    def test_folds_partition_rows(self):
        folds = list(KFold(n_splits=4, rng=0).split(20))
        assert len(folds) == 4
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))

    def test_too_many_splits_raises(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_min_splits_validated(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestRandomSearch:
    def test_finds_better_than_worst(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(int)
        search = RandomSearch(
            make_classifier("knn"),
            {"n_neighbors": [1, 5, 199]},
            n_iter=6,
            rng=0,
        )
        search.fit(X, y)
        assert search.best_params_ is not None
        assert search.best_estimator_.is_fitted()
        assert search.best_score_ > 0.5

    def test_invalid_n_iter(self):
        with pytest.raises(ValueError):
            RandomSearch(make_classifier("knn"), {}, n_iter=0)

    def test_callable_distribution(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(int)
        search = RandomSearch(
            make_classifier("svm"),
            {"C": lambda r: float(10 ** r.uniform(-2, 1))},
            n_iter=3,
            rng=0,
        )
        search.fit(X, y)
        assert "C" in search.best_params_


class TestDecisionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).max() < 0.01

    def test_depth_zero_is_single_leaf(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = X[:, 0]
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert tree.n_leaves == 1
        assert np.allclose(tree.predict(X), y.mean())

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float)[:, None]
        y = (X[:, 0] > 8).astype(float)  # split would isolate 1 sample
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=3).fit(X, y)
        # All leaves must hold >= 3 samples: check prediction granularity
        values, counts = np.unique(tree.predict(X), return_counts=True)
        assert counts.min() >= 3

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        tree = DecisionTreeRegressor(max_depth=4).fit(X, np.ones(30))
        assert tree.n_leaves == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises(self, bad):
        y = np.arange(6, dtype=float)
        y[2] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            DecisionTreeRegressor().fit(np.arange(12.0).reshape(6, 2), y)


class TestTabularModel:
    def test_fit_score_end_to_end(self):
        rng = np.random.default_rng(0)
        n = 200
        frame = DataFrame(
            {
                "x": rng.normal(size=n),
                "c": rng.choice(["u", "v"], size=n),
                "y": (rng.normal(size=n) > 0).astype(int),
            }
        )
        # Make the label depend on the features so the model can learn.
        y = ((frame["x"].values > 0) | (frame["c"].values == "u")).astype(int)
        frame.set_column(Column("y", y))
        model = TabularModel(make_classifier("gb"), label="y")
        f1 = model.fit_score(frame.take(range(150)), frame.take(range(150, 200)))
        assert f1 > 0.8

    def test_features_exclude_label(self):
        frame = DataFrame({"x": [1.0, 2.0, 3.0, 4.0], "y": [0, 1, 0, 1]})
        model = TabularModel(make_classifier("knn"), label="y").fit(frame)
        assert model.features_ == ["x"]

    def test_explicit_feature_subset(self):
        frame = DataFrame(
            {"x": [1.0, 2.0, 3.0, 4.0], "z": [0.0, 0.0, 1.0, 1.0], "y": [0, 1, 0, 1]}
        )
        model = TabularModel(make_classifier("knn"), label="y", feature_names=["z"])
        model.fit(frame)
        assert model.features_ == ["z"]


def _oracle_transform(train, test, numeric, categorical):
    """The textbook pipeline: impute, ``StandardScaler``, ``OneHotEncoder``."""

    def imputed(frame):
        cols = []
        for name in numeric:
            fit_values = train[name].values
            present = fit_values[np.isfinite(fit_values)]
            mean = float(present.mean()) if present.size else 0.0
            values = frame[name].values.copy()
            values[~np.isfinite(values)] = mean
            cols.append(values)
        # Column-major, so each column reduces exactly like a 1-D array.
        return np.asfortranarray(np.column_stack(cols))

    def filled(frame):
        out = []
        for name in categorical:
            values = frame[name].values.copy()
            values[frame[name].missing_mask] = "<missing>"
            out.append(values)
        return out

    parts = []
    if numeric:
        parts.append(StandardScaler().fit(imputed(train)).transform(imputed(test)))
    if categorical:
        parts.append(OneHotEncoder().fit(filled(train)).transform(filled(test)))
    return np.hstack(parts)


_NUMERIC_CELLS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
_CATEGORY_CELLS = st.sampled_from(["u", "v", "w", "<missing>", None])


@st.composite
def _split_frames(draw):
    n_numeric = draw(st.integers(0, 2))
    n_categorical = draw(st.integers(0 if n_numeric else 1, 2))
    numeric = [f"x{i}" for i in range(n_numeric)]
    categorical = [f"c{i}" for i in range(n_categorical)]

    def frame(n_rows, extra_categories):
        columns = [
            Column(name, draw(st.lists(_NUMERIC_CELLS, min_size=n_rows, max_size=n_rows)))
            for name in numeric
        ]
        cells = st.one_of(_CATEGORY_CELLS, st.sampled_from(extra_categories))
        for name in categorical:
            values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
            columns.append(Column(name, np.array(values, dtype=object), ColumnKind.CATEGORICAL))
        return DataFrame(columns)

    train = frame(draw(st.integers(1, 25)), ["u"])
    test = frame(draw(st.integers(1, 25)), ["only-in-test", "u"])
    return train, test, numeric, categorical


class TestTransformOracle:
    """``TabularPreprocessor.transform`` equals the textbook pipeline —
    imputed numerics through ``StandardScaler``, ``<missing>``-filled
    categoricals through ``OneHotEncoder`` — bit for bit."""

    def _assert_matches(self, train, test, numeric, categorical):
        prep = TabularPreprocessor(numeric + categorical).fit(train)
        out = prep.transform(test)
        assert out.shape == (test.n_rows, prep.n_output_features())
        assert np.array_equal(out, _oracle_transform(train, test, numeric, categorical))

    @given(_split_frames())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, case):
        self._assert_matches(*case)

    def test_missing_infinite_and_test_only_cells(self):
        train = DataFrame(
            {
                "x": [1.0, np.nan, np.inf, -np.inf, 5.0],
                "c": np.array(["a", None, "b", "a", None], dtype=object),
            }
        )
        test = DataFrame(
            {
                "x": [np.inf, 2.0, np.nan, 0.5],
                "c": np.array(["z", "b", None, "a"], dtype=object),
            }
        )
        self._assert_matches(train, test, ["x"], ["c"])
        # The test-only category "z" encodes to an all-zero block row.
        X = TabularPreprocessor(["c"]).fit(train).transform(test)
        assert X[0].tolist() == [0.0, 0.0, 0.0]

    def test_all_missing_columns(self):
        train = DataFrame(
            {
                "x": [np.nan, np.nan, np.nan],
                "c": np.array([None, None, None], dtype=object),
            }
        )
        test = DataFrame(
            {"x": [1.0, np.nan], "c": np.array(["a", None], dtype=object)}
        )
        self._assert_matches(train, test, ["x"], ["c"])

    def test_literal_missing_value_beside_missing_cells(self):
        train = DataFrame(
            {"c": np.array(["<missing>", None, "a", "<missing>"], dtype=object)}
        )
        test = DataFrame({"c": np.array([None, "<missing>", "a"], dtype=object)})
        self._assert_matches(train, test, [], ["c"])
        # The literal and real missing cells share one indicator column.
        prep = TabularPreprocessor(["c"]).fit(train)
        assert prep.encoder_.categories_ == [["<missing>", "a"]]

    def test_missing_cells_without_fitted_missing_category_encode_to_zeros(self):
        train = DataFrame({"c": np.array(["a", "b"], dtype=object)})
        test = DataFrame({"c": np.array([None, "b"], dtype=object)})
        self._assert_matches(train, test, [], ["c"])

    def test_mutated_column_re_encodes(self):
        frame = DataFrame(
            {"c": np.array(["a", "b", "a", "b"], dtype=object), "x": [1.0, 2.0, 3.0, 4.0]}
        )
        prep = TabularPreprocessor(["x", "c"]).fit(frame)
        before = prep.transform(frame)
        mutated = frame.copy()
        mutated["c"].set_values([0], ["b"])
        mutated["x"].set_missing([1])
        after = prep.transform(mutated)
        assert np.array_equal(before, prep.transform(frame))
        assert np.array_equal(
            after, _oracle_transform(frame, mutated, ["x"], ["c"])
        )
        assert not np.array_equal(before, after)


def _fingerprint(state):
    """Everything a featurization produced, as comparable bytes."""
    prep = state.preprocessor
    scaler = prep.scaler_
    parts = [
        prep.tokens_,
        prep.statistics_,
        prep.numeric_names_,
        prep.categorical_names_,
        [(name, np.float64(v).tobytes()) for name, v in prep.numeric_means_.items()],
        None if scaler is None else (scaler.mean_.tobytes(), scaler.scale_.tobytes()),
        prep.encoder_.categories_,
    ]
    for split in (state.train, state.test):
        X, y = split.design.matrix, split.targets
        parts += [X.shape, X.dtype.str, X.tobytes(), y.dtype.str, y.tobytes()]
        buffer = _buffer(split)
        parts += [
            buffer.shape,
            buffer.tobytes(),
            buffer.flags.writeable,
            buffer.flags.c_contiguous,
        ]
    return parts


def _buffer(split):
    """The ``n × (d + 1)`` buffer a split's design matrix is the leading
    view of, checked: read-only, C-contiguous, last column all ones."""
    X, buffer = split.design.matrix, split.design.buffer
    assert X.base is buffer
    assert buffer.shape == (X.shape[0], X.shape[1] + 1)
    assert buffer[:, :-1].tobytes() == X.tobytes()
    assert not buffer.flags.writeable and not X.flags.writeable
    assert buffer.flags.c_contiguous
    assert (buffer[:, -1] == 1.0).all()
    return buffer


def _coefficients(name, X, y):
    """The bytes of ``name``'s fitted ``coef_`` on ``(X, y)``, or the
    error it raises: drawn designs can be singular in floating point
    (a near-constant numeric column scales to ~1e16), and then both
    layouts must fail the same way."""
    try:
        model = make_classifier(name).fit(X, y)
    except np.linalg.LinAlgError as error:
        return repr(error)
    return (model._model_ if name == "lir" else model).coef_.tobytes()


def _assert_splice_matches(train, test, derive, task="classification"):
    """Featurizing ``derive``'s state with the base ``(train, test)``
    equals featurizing it from scratch, byte for byte."""
    model = TabularModel(make_classifier("lor"), label="y", task=task)
    base = model.featurize(train, test)
    splits = (base.train, base.test)
    kept = [(s.design.matrix.copy(), s.targets.copy()) for s in splits]
    train2, test2 = train.copy(), test.copy()
    derive(train2, test2)
    spliced = model.featurize(train2, test2, base)
    full = TabularModel(make_classifier("lor"), label="y", task=task).featurize(
        train2, test2
    )
    assert _fingerprint(spliced) == _fingerprint(full)
    for split, (X, y), derived in zip(splits, kept, spliced[1:]):
        assert not split.design.matrix.flags.writeable
        assert not split.targets.flags.writeable
        assert split.design.matrix.tobytes() == X.tobytes()
        assert split.targets.tobytes() == y.tobytes()
        assert not np.shares_memory(derived.design.matrix, split.design.matrix)
        assert not np.shares_memory(_buffer(derived), _buffer(split))
        assert not np.shares_memory(derived.targets, split.targets)
        # The models fit on the buffer without a bias copy, and get the
        # coefficients a fit on a plain contiguous copy gets.
        matrix = derived.design.matrix
        for name in ("lir", "lor"):
            assert _coefficients(name, matrix, derived.targets) == _coefficients(
                name, np.ascontiguousarray(matrix), derived.targets
            )


def _splice_frame():
    return DataFrame(
        {
            "x": np.linspace(-1.0, 1.0, 6),
            "z": [1.0, np.nan, 3.0, 4.0, 5.0, 6.0],
            "c": np.array(["u", "v", "w", "u", "v", "w"], dtype=object),
            "d": np.array(["p", None, "q", "p", "q", "p"], dtype=object),
            "y": np.array(["yes", "no", "yes", "no", "yes", "no"], dtype=object),
        }
    )


def _write(name, rows, values, splits=(0,)):
    def derive(train, test):
        for split in splits:
            (train, test)[split][name].set_values(rows, values)

    return derive


def _all_missing(name, splits=(0,)):
    def derive(train, test):
        for split in splits:
            frame = (train, test)[split]
            frame[name].set_missing(range(frame.n_rows))

    return derive


@st.composite
def _splice_cases(draw):
    """A base state plus up to two writes to 0, 1 or 2 columns of its
    train and/or test split (features or the label)."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n_numeric = draw(st.integers(0, 2))
    numeric = [f"x{i}" for i in range(n_numeric)]
    categorical = [f"c{i}" for i in range(draw(st.integers(0 if n_numeric else 1, 3)))]
    if task == "classification":
        labels = st.sampled_from(["yes", "no", "maybe"])
    else:
        labels = st.floats(-100, 100)
    categories = st.one_of(_CATEGORY_CELLS, st.just("new"))

    def frame(n_rows):
        cells = lambda values: st.lists(values, min_size=n_rows, max_size=n_rows)
        columns = [Column(n, draw(cells(_NUMERIC_CELLS))) for n in numeric]
        columns += [
            Column(
                n,
                np.array(draw(cells(_CATEGORY_CELLS)), dtype=object),
                ColumnKind.CATEGORICAL,
            )
            for n in categorical
        ]
        columns.append(Column("y", draw(cells(labels))))
        return DataFrame(columns)

    train, test = frame(draw(st.integers(1, 20))), frame(draw(st.integers(1, 20)))
    writes = []
    for __ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(numeric + categorical + ["y"]))
        split = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        modes = ["cells", "one value"] + ([] if name == "y" else ["all missing"])
        mode = draw(st.sampled_from(modes))
        if name == "y":
            values = labels
        elif name in numeric:
            values = _NUMERIC_CELLS
        else:
            values = categories
        for s in split:
            n_rows = (train, test)[s].n_rows
            if mode == "all missing":
                writes.append(_all_missing(name, (s,)))
                continue
            if mode == "cells":
                rows = draw(
                    st.lists(st.integers(0, n_rows - 1), min_size=1, unique=True)
                )
                cells = [draw(values) for __ in rows]
            else:
                rows = list(range(n_rows))
                cells = [draw(values.filter(lambda v: v is not None))] * n_rows
            writes.append(_write(name, rows, cells, (s,)))

    def derive(train2, test2):
        for write in writes:
            write(train2, test2)

    return train, test, derive, task


class TestBaseSplice:
    """Featurizing with a base equals featurizing without one, byte for
    byte: design matrices, targets and fitted statistics."""

    @given(_splice_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_featurization(self, case):
        train, test, derive, task = case
        _assert_splice_matches(train, test, derive, task)

    @pytest.mark.parametrize(
        "derive",
        [
            pytest.param(lambda train, test: None, id="no-write"),
            pytest.param(_write("c", [1], [None]), id="first-missing-widens-block"),
            pytest.param(_write("c", range(6), ["u"] * 6), id="categories-vanish"),
            pytest.param(_write("d", [0, 2], ["new", "new"]), id="new-category"),
            pytest.param(_all_missing("c", (0, 1)), id="all-missing-categorical"),
            pytest.param(_all_missing("x"), id="all-missing-numeric"),
            pytest.param(
                _write("x", [0, 3], [np.inf, -np.inf], (0, 1)), id="infinities"
            ),
            pytest.param(_write("y", [0, 1], ["no", "maybe"]), id="label-changed"),
            pytest.param(_write("d", [4], ["new"], (1,)), id="test-only-change"),
            pytest.param(_write("y", [2], ["maybe"], (1,)), id="test-only-label"),
        ],
    )
    def test_cases(self, derive):
        _assert_splice_matches(_splice_frame(), _splice_frame(), derive)

    def test_two_columns_change_and_later_blocks_shift(self):
        def derive(train, test):
            train["z"].set_values([2], [np.inf])
            # <missing> widens "c"'s block, so "d"'s block moves right.
            train["c"].set_values([1], [None])
            test["d"].set_missing([0])

        _assert_splice_matches(_splice_frame(), _splice_frame(), derive)

    def test_column_changing_kind_moves_blocks(self):
        # "k" turns numeric, so it leaves the one-hot region and the
        # numeric block grows: copied blocks land elsewhere, and runs
        # that meet in the output are apart in the base.
        def frame():
            columns = [Column("k", np.array(list("ababab"), dtype=object))]
            return DataFrame(columns + list(_splice_frame()))

        def derive(train, test):
            for split in (train, test):
                split.set_column(Column("k", [0.0, 1.0, 0.0, 1.0, 0.0, 2.0]))

        _assert_splice_matches(frame(), frame(), derive)

    def test_regression_targets(self):
        def frame():
            out = _splice_frame()
            out.set_column(Column("y", [0.5, 1.5, -2.0, 3.0, 0.0, 1.0]))
            return out

        for derive in (_write("y", [1], [7.25]), _write("c", [1], [None])):
            _assert_splice_matches(frame(), frame(), derive, "regression")

    def test_only_changed_columns_are_fitted_and_encoded(self, monkeypatch):
        train, test = _splice_frame(), _splice_frame()
        model = TabularModel(make_classifier("lor"), label="y")
        base = model.featurize(train, test)
        train2, test2 = train.copy(), test.copy()
        train2["c"].set_values([0], ["v"])
        test2["d"].set_values([0], ["q"])
        fitted, encoded = [], []
        for name in ("_fit_numeric_column", "_fit_categorical_column"):
            fit = getattr(preprocessing, name)
            monkeypatch.setattr(
                preprocessing, name, lambda col, fit=fit: fitted.append(col.name) or fit(col)
            )
        codes = Column.codes
        monkeypatch.setattr(
            Column, "codes", lambda col: encoded.append(col.name) or codes(col)
        )
        model.featurize(train2, test2, base)
        # "c" changed in train: re-fitted and encoded in both splits; "d"
        # changed in test only: encoded there alone. The label reuses
        # the base's targets.
        assert fitted == ["c"]
        assert sorted(encoded) == ["c", "c", "c", "d"]


class TestTabularModelPreprocessorReuse:
    def _frame(self):
        rng = np.random.default_rng(3)
        n = 80
        return DataFrame(
            {
                "x": rng.normal(size=n),
                "c": rng.choice(["u", "v"], size=n),
                "y": rng.integers(0, 2, size=n),
            }
        )

    def test_prefit_preprocessor_is_reused_not_refit(self):
        frame = self._frame()
        prefit = TabularPreprocessor(["x", "c"]).fit(frame)
        model = TabularModel(make_classifier("lor"), label="y", preprocessor=prefit)
        model.fit(frame)
        assert model.preprocessor_ is prefit
        assert model.features_ == ["x", "c"]

    def test_prefit_reuse_scores_like_fresh_fit(self):
        frame = self._frame()
        train, test = frame.take(range(60)), frame.take(range(60, 80))
        prefit = TabularPreprocessor(["x", "c"]).fit(train)
        reused = TabularModel(
            make_classifier("lor"), label="y", preprocessor=prefit
        ).fit_score(train, test)
        fresh = TabularModel(make_classifier("lor"), label="y").fit_score(train, test)
        assert reused == fresh

    def test_unfitted_preprocessor_fit_once_then_kept(self):
        frame = self._frame()
        prep = TabularPreprocessor(["x", "c"])
        model = TabularModel(make_classifier("lor"), label="y", preprocessor=prep)
        model.fit(frame)
        assert model.preprocessor_ is prep
        assert hasattr(prep, "encoder_")
