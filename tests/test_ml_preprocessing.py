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
