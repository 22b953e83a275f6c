"""The linear models, the E2 Bayesian regression and ``f1_score`` against
reference copies of their straightforward implementations.

Each ``_reference_*`` function below is the plain form of its library
counterpart: validate at every layer, take class lists with
``np.unique``, one-hot through a lookup, add the bias column with
``np.hstack``, add the ridge regularizer as a separate ``alpha * I``
matrix, and recompute the normal quantile and the clip on every call.
The library skips the repeated work but must perform the same floating-
point operations in the same order, so fitted coefficients, covariances,
precisions, predictions, intervals and scores must match byte for byte.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis_tiers import SLOW_SETTINGS, STANDARD_SETTINGS
from scipy import optimize, stats

from repro.bayes import BayesianLinearRegression, polynomial_design
from repro.ml.linear import (
    LinearRegression,
    LinearRegressionClassifier,
    LogisticRegression,
)
from repro.ml.metrics import f1_score
from repro.ml.svm import LinearSVC


# ---------------------------------------------------------------------- #
# reference implementations
# ---------------------------------------------------------------------- #
def _check_X(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity; impute before fitting")
    return X


def _check_X_y(X, y):
    X = _check_X(X)
    y = np.asarray(y)
    if y.ndim != 1 or len(X) != len(y) or len(X) == 0:
        raise ValueError("bad X, y")
    return X, y.astype(int)


def _one_hot(y, classes):
    index = np.searchsorted(classes, y).clip(max=len(classes) - 1)
    out = np.zeros((len(y), len(classes)))
    out[np.arange(len(y)), index] = 1.0
    return out


def _add_bias(X):
    return np.hstack([X, np.ones((len(X), 1))])


def _softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _reference_ridge(X, y, alpha):
    X = _check_X(X)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    Xb = _add_bias(X)
    reg = alpha * np.eye(Xb.shape[1])
    reg[-1, -1] = 0.0
    return np.linalg.solve(Xb.T @ Xb + reg, Xb.T @ y)


def _reference_ridge_predict(coef, X):
    out = _add_bias(_check_X(X)) @ coef
    return out[:, 0] if out.shape[1] == 1 else out


def _reference_lir(X, y, alpha):
    """(classes, coef) of ``LinearRegressionClassifier``."""
    X, y = _check_X_y(X, y)
    classes = np.unique(y)
    return classes, _reference_ridge(X, _one_hot(y, classes), alpha)


def _reference_lor(X, y, C, max_iter):
    """(classes, coef) of ``LogisticRegression``."""
    X, y = _check_X_y(X, y)
    classes = np.unique(y)
    n, d = X.shape
    k = len(classes)
    Xb = _add_bias(X)
    Y = _one_hot(y, classes)
    lam = 1.0 / (C * n)

    def objective(w_flat):
        W = w_flat.reshape(d + 1, k)
        probs = _softmax(Xb @ W)
        nll = -np.sum(Y * np.log(probs + 1e-12)) / n
        penalty = 0.5 * lam * np.sum(W[:-1] ** 2)
        grad = Xb.T @ (probs - Y) / n
        grad[:-1] += lam * W[:-1]
        return nll + penalty, grad.ravel()

    result = optimize.minimize(
        objective,
        np.zeros((d + 1) * k),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter},
    )
    return classes, result.x.reshape(d + 1, k)


def _reference_svc(X, y, C, max_iter):
    """(classes, coef) of ``LinearSVC``."""
    X, y = _check_X_y(X, y)
    classes = np.unique(y)
    Xb = _add_bias(X)
    n, d = Xb.shape
    lam = 1.0 / (C * n)
    weights = []
    for cls in classes:
        target = np.where(y == cls, 1.0, -1.0)

        def objective(w):
            margins = target * (Xb @ w)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = np.mean(slack**2) + 0.5 * lam * np.sum(w[:-1] ** 2)
            grad = Xb.T @ (-2.0 * slack * target / n)
            grad[:-1] += lam * w[:-1]
            return loss, grad

        result = optimize.minimize(
            objective, np.zeros(d), jac=True, method="L-BFGS-B",
            options={"maxiter": max_iter},
        )
        weights.append(result.x)
    return classes, np.column_stack(weights)


def _reference_blr(X, y, max_iter=50, tol=1e-6, alpha=1.0, beta=10.0):
    """(alpha, beta, coef, cov) of ``BayesianLinearRegression``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    eye = np.eye(d)
    gram = X.T @ X
    Xty = X.T @ y
    eigvals = np.linalg.eigvalsh(gram)
    mean = np.zeros(d)
    for __ in range(max_iter):
        cov = np.linalg.inv(alpha * eye + beta * gram)
        mean = beta * cov @ Xty
        gamma = float(np.sum(beta * eigvals / (alpha + beta * eigvals)))
        alpha_new = gamma / max(float(mean @ mean), 1e-12)
        residual = y - X @ mean
        denom = max(float(residual @ residual), 1e-12)
        beta_new = max(n - gamma, 1e-12) / denom
        alpha_new = float(np.clip(alpha_new, 1e-10, 1e10))
        beta_new = float(np.clip(beta_new, 1e-10, 1e10))
        if abs(alpha_new - alpha) < tol * alpha and abs(beta_new - beta) < tol * beta:
            alpha, beta = alpha_new, beta_new
            break
        alpha, beta = alpha_new, beta_new
    return alpha, beta, mean, np.linalg.inv(alpha * eye + beta * gram)


def _reference_interval(beta, coef, cov, X, level):
    X = np.asarray(X, dtype=float)
    mean = X @ coef
    var = 1.0 / beta + np.einsum("ij,jk,ik->i", X, cov, X)
    std = np.sqrt(np.maximum(var, 0.0))
    z = stats.norm.ppf(0.5 + level / 2.0)
    return mean, mean - z * std, mean + z * std


def _reference_binary_f1(y_true, y_pred, positive):
    predicted = y_pred == positive
    precision = float(np.mean(y_true[predicted] == positive)) if predicted.any() else 0.0
    actual = y_true == positive
    recall = float(np.mean(y_pred[actual] == positive)) if actual.any() else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _reference_f1(y_true, y_pred, average="auto"):
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    classes = np.unique(y_true)
    if average == "auto":
        if classes.size == 2:
            return _reference_binary_f1(y_true, y_pred, int(classes[1]))
        average = "macro"
    if average == "binary":
        return _reference_binary_f1(y_true, y_pred, 1)
    return float(np.mean([_reference_binary_f1(y_true, y_pred, int(c)) for c in classes]))


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
@st.composite
def _problems(draw):
    """(X, y, X_test): 1 to 3 classes under sparse labels, with
    constant and duplicate columns among normal and tied ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    columns = []
    for kind in draw(
        st.lists(st.sampled_from(["normal", "ints", "constant", "duplicate"]), min_size=1, max_size=6)
    ):
        if kind == "normal":
            columns.append(rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3])))
        elif kind == "ints":
            columns.append(rng.integers(0, 3, size=n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.floats(-5, 5))))
        else:
            columns.append(columns[-1].copy() if columns else np.zeros(n))
    X = np.column_stack(columns)
    labels = np.asarray(draw(st.sampled_from([[0, 1, 2], [2, 0, 7], [-1, 3, 4]])))
    y = labels[rng.integers(0, draw(st.integers(1, 3)), size=n)]
    X_test = rng.normal(size=(draw(st.integers(1, 9)), X.shape[1]))
    return X, y, X_test


def _same(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------- #
# oracles
# ---------------------------------------------------------------------- #
@settings(STANDARD_SETTINGS, deadline=None)
@given(problem=_problems(), alpha=st.sampled_from([0.0, 1e-3, 0.5, 10.0]), outputs=st.sampled_from([0, 1, 3]))
def test_linear_regression_matches_oracle(problem, alpha, outputs):
    X, y, X_test = problem
    rng = np.random.default_rng(len(X))
    target = rng.normal(size=len(X)) if outputs == 0 else rng.normal(size=(len(X), outputs))
    try:
        expected = _reference_ridge(X, target, alpha)
    except np.linalg.LinAlgError:  # alpha 0 on a singular Gram matrix
        with pytest.raises(np.linalg.LinAlgError):
            LinearRegression(alpha=alpha).fit(X, target)
        return
    model = LinearRegression(alpha=alpha).fit(X, target)
    _same(model.coef_, expected)
    _same(model.predict(X_test), _reference_ridge_predict(expected, X_test))


@settings(STANDARD_SETTINGS, deadline=None)
@given(problem=_problems(), alpha=st.sampled_from([1e-3, 0.5]))
def test_linear_regression_classifier_matches_oracle(problem, alpha):
    X, y, X_test = problem
    classes, coef = _reference_lir(X, y, alpha)
    model = LinearRegressionClassifier(alpha=alpha).fit(X, y)
    _same(model.classes_, classes)
    _same(model._model_.coef_, coef)
    scores = _add_bias(X_test) @ coef
    _same(model.decision_function(X_test), scores)
    _same(model.predict(X_test), classes[np.argmax(scores, axis=1)])


@settings(SLOW_SETTINGS, deadline=None)
@given(problem=_problems(), C=st.sampled_from([0.1, 1.0]))
def test_logistic_regression_matches_oracle(problem, C):
    X, y, X_test = problem
    classes, coef = _reference_lor(X, y, C, max_iter=50)
    model = LogisticRegression(C=C, max_iter=50).fit(X, y)
    _same(model.classes_, classes)
    _same(model.coef_, coef)
    scores = _add_bias(X_test) @ coef
    _same(model.decision_function(X_test), scores)
    _same(model.predict_proba(X_test), _softmax(scores))
    _same(model.predict(X_test), classes[np.argmax(_softmax(scores), axis=1)])


@settings(SLOW_SETTINGS, deadline=None)
@given(problem=_problems(), C=st.sampled_from([0.1, 1.0]))
def test_linear_svc_matches_oracle(problem, C):
    X, y, X_test = problem
    classes, coef = _reference_svc(X, y, C, max_iter=50)
    model = LinearSVC(C=C, max_iter=50).fit(X, y)
    _same(model.classes_, classes)
    _same(model.coef_, coef)
    scores = _add_bias(X_test) @ coef
    _same(model.decision_function(X_test), scores)
    if len(classes) == 2:
        expected = classes[(scores[:, 1] > scores[:, 0]).astype(int)]
    else:
        expected = classes[np.argmax(scores, axis=1)]
    _same(model.predict(X_test), expected)


@settings(STANDARD_SETTINGS, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    degree=st.sampled_from([1, 2]),
    shape=st.sampled_from(["noisy", "flat", "line"]),
    level=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
)
def test_bayesian_regression_matches_oracle(seed, n, degree, shape, level):
    # The E2 series: F1 at pollution levels 0, step, 2*step, ...
    rng = np.random.default_rng(seed)
    levels = np.arange(n) * rng.choice([0.01, 0.02, 0.05])
    if shape == "noisy":
        scores = rng.uniform(0.3, 0.9, size=n)
    elif shape == "flat":
        scores = np.full(n, rng.uniform(0.3, 0.9))
    else:
        scores = 0.8 - 0.5 * levels
    X = polynomial_design(levels, degree=degree)
    alpha, beta, coef, cov = _reference_blr(X, scores)
    model = BayesianLinearRegression().fit(X, scores)
    assert type(model.alpha_) is float and type(model.beta_) is float
    _same(model.alpha_, alpha)
    _same(model.beta_, beta)
    _same(model.coef_, coef)
    _same(model.cov_, cov)
    probe = polynomial_design(np.array([-0.02, 0.5]), degree=degree)
    for got, want in zip(
        model.credible_interval(probe, level=level),
        _reference_interval(beta, coef, cov, probe, level),
    ):
        _same(got, want)


def _curve(rng, shape, levels):
    """One E2 series of a given shape: ``huge`` drives alpha to its lower
    clamp, ``zero`` to its upper one, ``line`` beta to its upper one."""
    n = len(levels)
    if shape == "noisy":
        return rng.uniform(0.3, 0.9, size=n)
    if shape == "flat":
        return np.full(n, rng.uniform(0.3, 0.9))
    if shape == "line":
        return 0.8 - 0.5 * levels
    if shape == "huge":
        return rng.uniform(-1.0, 1.0, size=n) * 1e9
    return np.zeros(n)


def _assert_stack_matches_one_curve_fits(designs, scores, max_iter, level):
    model = BayesianLinearRegression(max_iter=max_iter).fit(np.stack(designs), scores)
    probes = [
        polynomial_design(np.array([-0.02, 0.5]), degree=X.shape[1] - 1) for X in designs
    ]
    stacked = model.credible_interval(np.stack(probes), level=level)
    for i, (X, y, probe) in enumerate(zip(designs, scores, probes)):
        one = BayesianLinearRegression(max_iter=max_iter).fit(X, y)
        alpha, beta, coef, cov = _reference_blr(X, y, max_iter=max_iter)
        _same(one.alpha_, alpha)
        _same(model.alpha_[i], one.alpha_)
        _same(model.beta_[i], one.beta_)
        _same(model.coef_[i], one.coef_)
        _same(model.cov_[i], one.cov_)
        for got, want in zip(stacked, one.credible_interval(probe, level=level)):
            _same(got[i], want)


@settings(STANDARD_SETTINGS, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    degree=st.sampled_from([1, 2]),
    shapes=st.lists(
        st.sampled_from(["noisy", "flat", "line", "huge", "zero"]), min_size=1, max_size=6
    ),
    max_iter=st.sampled_from([0, 1, 3, 50]),
    level=st.sampled_from([0.5, 0.95]),
)
def test_stacked_bayesian_regression_matches_one_curve_fits(
    seed, n, degree, shapes, max_iter, level
):
    # Each curve has its own step, so the stack holds different designs.
    rng = np.random.default_rng(seed)
    designs, scores = [], []
    for shape in shapes:
        levels = np.arange(n) * rng.choice([0.01, 0.02, 0.05])
        designs.append(polynomial_design(levels, degree=degree))
        scores.append(_curve(rng, shape, levels))
    _assert_stack_matches_one_curve_fits(designs, np.stack(scores), max_iter, level)


def _converged_at(X, y, max_iter=50):
    """The iteration a reference fit stops at, or ``None`` when it runs
    out of ``max_iter`` updates."""
    final = _reference_blr(X, y, max_iter=max_iter + 1)

    def same(fit):
        return all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(fit, final)
        )

    if not same(_reference_blr(X, y, max_iter=max_iter)):
        return None
    return next(k for k in range(1, max_iter + 1) if same(_reference_blr(X, y, max_iter=k)))


def test_stacked_bayesian_regression_retires_each_curve_on_its_own():
    # One stack whose curves leave the evidence loop at different
    # iterations or not at all, and reach every clamp.
    rng = np.random.default_rng(3)
    levels = np.arange(5) * 0.05
    X = polynomial_design(levels)
    shapes = ["noisy", "noisy", "flat", "line", "huge", "zero"]
    scores = np.stack([_curve(rng, shape, levels) for shape in shapes])
    stops = [_converged_at(X, y, max_iter=4) for y in scores]
    assert None in stops and len(set(stops) - {None}) >= 2
    fits = [_reference_blr(X, y, max_iter=4) for y in scores]
    assert {1e-10, 1e10} <= {alpha for alpha, *__ in fits}
    assert 1e10 in {beta for __, beta, *___ in fits}
    _assert_stack_matches_one_curve_fits([X] * len(shapes), scores, max_iter=4, level=0.95)


_NON_FINITE_MESSAGE = "X contains NaN or infinity; impute before fitting"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("biased", [False, True], ids=["array", "biased-view"])
@pytest.mark.parametrize("model", [LinearRegression, LinearRegressionClassifier])
def test_ridge_rejects_a_non_finite_design(bad, biased, model):
    # The bad cell sits in a column of zeros, so the Gram's products
    # meet 0 * inf; the fit still raises check_X's error and nothing else.
    X = np.random.default_rng(0).normal(size=(12, 3))
    X[:, 1] = 0.0
    X[5, 1] = bad
    if biased:  # the leading view of a featurized design buffer
        buffer = np.hstack([X, np.ones((12, 1))])
        buffer.setflags(write=False)
        X = buffer[:, :-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(_NON_FINITE_MESSAGE)):
            _check_X(X)
        with pytest.raises(ValueError, match=re.escape(_NON_FINITE_MESSAGE)):
            model().fit(X, np.arange(12) % 2)


@pytest.mark.parametrize("model", [LinearRegression, LinearRegressionClassifier])
def test_ridge_on_a_finite_design_whose_gram_overflows(model):
    # Finite cells, infinite squares: no validation error, the overflow
    # warning and the coefficients of the reference solve.
    X = np.array([[1e200, 0.0], [1.0, 2.0], [3.0, -1e200], [0.5, 1.0]])
    y = np.array([0, 1, 0, 1])
    classifier = model is LinearRegressionClassifier
    with pytest.warns(RuntimeWarning, match="overflow"):
        expected = _reference_lir(X, y, 1e-3)[1] if classifier else _reference_ridge(X, y, 1e-3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        fitted = model(alpha=1e-3).fit(X, y)
    coef = fitted._model_.coef_ if classifier else fitted.coef_
    _same(coef, expected)


@settings(STANDARD_SETTINGS, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    labels=st.sampled_from([[0, 1], [0, 2], [1], [0, 1, 2], [3, 5, 9]]),
    average=st.sampled_from(["auto", "binary", "macro"]),
)
def test_f1_score_matches_oracle(seed, n, labels, average):
    rng = np.random.default_rng(seed)
    y_true = rng.choice(labels, size=n)
    y_pred = rng.choice(labels + [labels[0] + 1], size=n)
    _same(f1_score(y_true, y_pred, average=average), _reference_f1(y_true, y_pred, average))
