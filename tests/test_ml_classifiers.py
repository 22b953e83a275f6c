"""Behavioural tests for every classifier in the ML substrate."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LinearRegressionClassifier,
    LinearSVC,
    LogisticRegression,
    MLPClassifier,
    available_algorithms,
    clone,
    f1_score,
    make_classifier,
)
from repro.ml.base import one_hot
from repro.ml.registry import hyperparameter_space

ALL_NAMES = ["svm", "knn", "mlp", "gb", "lir", "lor", "ac_svm"]


def _blobs(n=240, d=4, k=2, sep=3.0, seed=0):
    """Well-separated Gaussian blobs — every sane classifier should ace them."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=sep, size=(k, d))
    y = rng.integers(0, k, size=n)
    X = centers[y] + rng.normal(size=(n, d))
    return X, y


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryClassifier:
    def test_learns_separable_binary(self, name):
        X, y = _blobs()
        model = make_classifier(name).fit(X[:180], y[:180])
        assert f1_score(y[180:], model.predict(X[180:])) > 0.9

    def test_learns_three_classes(self, name):
        X, y = _blobs(k=3, sep=4.0, seed=1)
        model = make_classifier(name).fit(X[:180], y[:180])
        assert f1_score(y[180:], model.predict(X[180:])) > 0.8

    def test_predict_shape_and_labels(self, name):
        X, y = _blobs(n=60)
        model = make_classifier(name).fit(X, y)
        pred = model.predict(X)
        assert pred.shape == (60,)
        assert set(np.unique(pred)).issubset(set(np.unique(y)))

    def test_clone_is_unfitted_same_params(self, name):
        model = make_classifier(name)
        dup = clone(model)
        assert dup.get_params() == model.get_params()
        assert not dup.is_fitted()

    def test_nan_input_raises(self, name):
        X, y = _blobs(n=30)
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN|impute"):
            make_classifier(name).fit(X, y)

    def test_nonconstant_labels_required(self, name):
        X, y = _blobs(n=30)
        model = make_classifier(name).fit(X, np.zeros(30, dtype=int))
        # Degenerate single-class training must still predict that class.
        assert set(model.predict(X)) == {0}

    def test_hyperparameter_space_is_valid(self, name):
        space = hyperparameter_space(name)
        model = make_classifier(name)
        for key, values in space.items():
            model.set_params(**{key: values[0]})


class TestRegistry:
    def test_available_algorithms(self):
        assert set(ALL_NAMES) == set(available_algorithms())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_classifier("deep-transformer")

    def test_unknown_space_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            hyperparameter_space("nope")


class TestGradientAccess:
    """The convex learners expose per-sample gradients for ActiveClean."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LinearSVC(),
            lambda: LogisticRegression(),
            lambda: LinearRegressionClassifier(),
        ],
    )
    def test_gradient_norms_nonnegative(self, factory):
        X, y = _blobs(n=100)
        model = factory().fit(X, y)
        norms = model.gradient_norms(X, y)
        assert norms.shape == (100,)
        assert (norms >= 0.0).all()

    def test_misclassified_points_have_larger_gradient(self):
        X, y = _blobs(n=200, sep=2.5, seed=3)
        model = LogisticRegression().fit(X, y)
        pred = model.predict(X)
        wrong = pred != y
        if wrong.any() and (~wrong).any():
            norms = model.gradient_norms(X, y)
            assert norms[wrong].mean() > norms[~wrong].mean()


class TestKnnSpecifics:
    def test_k_one_memorizes(self):
        X, y = _blobs(n=50, seed=2)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)

    def test_k_clamped_to_train_size(self):
        X, y = _blobs(n=10)
        model = KNeighborsClassifier(n_neighbors=50).fit(X, y)
        model.predict(X)  # must not raise

    def test_proba_rows_sum_to_one(self):
        X, y = _blobs(n=40)
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert np.allclose(model.predict_proba(X).sum(axis=1), 1.0)


class TestBoostingSpecifics:
    def test_more_estimators_fit_train_better(self):
        X, y = _blobs(n=200, sep=1.0, seed=4)
        weak = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        strong = GradientBoostingClassifier(n_estimators=60).fit(X, y)
        assert f1_score(y, strong.predict(X)) >= f1_score(y, weak.predict(X))

    def test_subsample_validation(self):
        X, y = _blobs(n=30)
        with pytest.raises(ValueError, match="subsample"):
            GradientBoostingClassifier(subsample=0.0).fit(X, y)

    def test_deterministic_given_seed(self):
        X, y = _blobs(n=80)
        a = GradientBoostingClassifier(subsample=0.7, random_state=5).fit(X, y)
        b = GradientBoostingClassifier(subsample=0.7, random_state=5).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()


class TestMlpSpecifics:
    def test_deterministic_given_seed(self):
        X, y = _blobs(n=80)
        a = MLPClassifier(random_state=7, max_epochs=20).fit(X, y)
        b = MLPClassifier(random_state=7, max_epochs=20).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()

    def test_proba_rows_sum_to_one(self):
        X, y = _blobs(n=40)
        model = MLPClassifier(max_epochs=10).fit(X, y)
        assert np.allclose(model.predict_proba(X).sum(axis=1), 1.0)

    def test_two_hidden_layers(self):
        X, y = _blobs(n=100)
        model = MLPClassifier(hidden_sizes=(16, 8), max_epochs=30).fit(X, y)
        assert f1_score(y, model.predict(X)) > 0.8


class TestOneHot:
    def test_matches_per_row_loop(self):
        y = np.random.default_rng(0).integers(-3, 4, size=200)
        classes = np.unique(y)
        expected = np.zeros((len(y), len(classes)))
        for i, label in enumerate(y.tolist()):
            expected[i, classes.tolist().index(label)] = 1.0
        assert np.array_equal(one_hot(y, classes), expected)

    @pytest.mark.parametrize("label", [-1, 2, 9])
    def test_label_outside_classes_raises(self, label):
        with pytest.raises(KeyError):
            one_hot(np.array([0, label, 1]), np.array([0, 1, 5]))
