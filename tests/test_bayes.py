"""Unit tests for the Bayesian regression used by COMET's Estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.bayes import BayesianLinearRegression, polynomial_design
from repro.bayes.linear_regression import _normal_quantile


class TestPolynomialDesign:
    def test_degree_one(self):
        X = polynomial_design(np.array([0.0, 2.0]), degree=1)
        assert X.tolist() == [[1.0, 0.0], [1.0, 2.0]]

    def test_degree_two(self):
        X = polynomial_design(np.array([3.0]), degree=2)
        assert X.tolist() == [[1.0, 3.0, 9.0]]


class TestFit:
    def test_recovers_linear_trend(self):
        x = np.linspace(0, 10, 30)
        y = 2.0 - 0.3 * x
        model = BayesianLinearRegression().fit(polynomial_design(x), y)
        pred = model.predict(polynomial_design(np.array([20.0])))
        assert pred[0] == pytest.approx(2.0 - 0.3 * 20.0, abs=0.05)

    def test_three_point_series(self):
        """The COMET Estimator fits on as few as three measurements."""
        x = np.array([0.0, 0.01, 0.02])
        y = np.array([0.80, 0.78, 0.76])
        model = BayesianLinearRegression().fit(polynomial_design(x), y)
        pred = model.predict(polynomial_design(np.array([-0.01])))
        assert pred[0] == pytest.approx(0.82, abs=0.02)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_1d_X_raises(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.zeros(3), np.zeros(3))


class TestUncertainty:
    def test_std_grows_with_extrapolation_distance(self):
        x = np.linspace(0, 1, 10)
        rng = np.random.default_rng(0)
        y = 1.0 + 0.5 * x + rng.normal(0, 0.05, size=10)
        model = BayesianLinearRegression().fit(polynomial_design(x), y)
        __, near_std = model.predict(polynomial_design(np.array([0.5])), return_std=True)
        __, far_std = model.predict(polynomial_design(np.array([5.0])), return_std=True)
        assert far_std[0] > near_std[0]

    def test_noisier_data_wider_interval(self):
        x = np.linspace(0, 1, 20)
        rng = np.random.default_rng(1)
        design = polynomial_design(x)
        quiet = BayesianLinearRegression().fit(design, x + rng.normal(0, 0.01, 20))
        loud = BayesianLinearRegression().fit(design, x + rng.normal(0, 0.5, 20))
        q = quiet.predict(polynomial_design(np.array([0.5])), return_std=True)[1][0]
        l = loud.predict(polynomial_design(np.array([0.5])), return_std=True)[1][0]
        assert l > q

    def test_credible_interval_brackets_mean(self):
        x = np.linspace(0, 1, 10)
        model = BayesianLinearRegression().fit(polynomial_design(x), x)
        mean, lo, hi = model.credible_interval(polynomial_design(np.array([0.3, 0.9])))
        assert (lo <= mean).all() and (mean <= hi).all()

    def test_interval_level_validated(self):
        x = np.linspace(0, 1, 5)
        model = BayesianLinearRegression().fit(polynomial_design(x), x)
        with pytest.raises(ValueError):
            model.credible_interval(polynomial_design(np.array([0.5])), level=1.5)

    def test_wider_level_wider_interval(self):
        x = np.linspace(0, 1, 10)
        rng = np.random.default_rng(2)
        model = BayesianLinearRegression().fit(
            polynomial_design(x), x + rng.normal(0, 0.1, 10)
        )
        probe = polynomial_design(np.array([0.5]))
        __, lo95, hi95 = model.credible_interval(probe, level=0.95)
        __, lo50, hi50 = model.credible_interval(probe, level=0.50)
        assert hi95[0] - lo95[0] > hi50[0] - lo50[0]

    def test_quantile_is_bit_identical_to_norm_ppf(self):
        # scipy.stats is the reference; the program takes the quantile
        # from scipy.special.ndtri, which loads far faster.
        levels = np.concatenate([[0.5, 0.8, 0.9, 0.95, 0.99], np.linspace(0.001, 0.999, 997)])
        for level in levels:
            p = 0.5 + float(level) / 2.0
            assert _normal_quantile(p) == stats.norm.ppf(p)


@given(
    st.floats(-5, 5),
    st.floats(-2, 2),
    st.integers(5, 30),
)
@settings(max_examples=25, deadline=None)
def test_property_fits_noiseless_lines_exactly(intercept, slope, n):
    x = np.linspace(0, 1, n)
    y = intercept + slope * x
    model = BayesianLinearRegression().fit(polynomial_design(x), y)
    pred = model.predict(polynomial_design(x))
    assert np.allclose(pred, y, atol=0.05 + 0.02 * (abs(intercept) + abs(slope)))
