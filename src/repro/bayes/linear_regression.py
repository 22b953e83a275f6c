"""Conjugate Bayesian linear regression with evidence-approximation
hyperparameters (the from-scratch counterpart of sklearn's BayesianRidge)."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BayesianLinearRegression", "polynomial_design"]


@functools.lru_cache
def _normal_quantile(p: float) -> float:
    """Standard normal quantile, cached: every E2 fit asks for the same
    level. scipy loads on first use, not with the package."""
    from scipy.special import ndtri

    return ndtri(p)


def polynomial_design(x: np.ndarray, degree: int = 1) -> np.ndarray:
    """Design matrix ``[1, x, x², …]`` for a scalar regressor."""
    x = np.asarray(x, dtype=float).ravel()
    return np.vander(x, N=degree + 1, increasing=True)


class BayesianLinearRegression:
    """Gaussian-prior linear regression with closed-form posterior.

    Model: ``y = Xw + ε``, ``w ~ N(0, α⁻¹I)``, ``ε ~ N(0, β⁻¹)``.
    ``α`` and ``β`` are optimized by MacKay's fixed-point evidence updates,
    which keeps the model well behaved on the three-to-five point series the
    COMET Estimator feeds it.

    Parameters
    ----------
    max_iter:
        Evidence-update iterations.
    alpha_init / beta_init:
        Starting precisions.
    """

    def __init__(
        self,
        max_iter: int = 50,
        tol: float = 1e-6,
        alpha_init: float = 1.0,
        beta_init: float = 10.0,
    ) -> None:
        self.max_iter = max_iter
        self.tol = tol
        self.alpha_init = alpha_init
        self.beta_init = beta_init

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BayesianLinearRegression":
        """Fit on the given training data and return ``self``.

        ``X`` is one design (n × d, with ``y`` of n values) or a stack of
        m designs (m × n × d, with ``y`` of shape m × n). A stack fits m
        independent curves at once: each curve runs the evidence updates
        until its own convergence test passes, exactly as a fit of that
        curve alone would, so its results are byte-identical to one.
        After a stacked fit ``alpha_``/``beta_`` have shape m, ``coef_``
        m × d and ``cov_`` m × d × d; after a 2-D fit they are floats, a
        vector and a matrix.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        stacked = X.ndim == 3
        if X.ndim == 2:
            y = y.ravel()
            if len(X) != len(y):
                raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
            X, y = X[None], y[None]
        elif not stacked:
            raise ValueError(f"X must be 2-D, or 3-D for a stack, got shape {X.shape}")
        elif y.shape != X.shape[:2]:
            raise ValueError(
                f"a stack X of shape {X.shape} needs y of shape {X.shape[:2]}, got {y.shape}"
            )
        m, n, d = X.shape
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        Xt = X.transpose(0, 2, 1)
        # Stacked matmuls and linalg calls run each curve through the
        # BLAS/LAPACK call its 2-D form makes, so every value below has
        # the bits of the one-curve fit. Dots are (1 × k) @ (k × 1)
        # matmuls: a stacked einsum or ``(a * a).sum(-1)`` sums in
        # another order than the 1-D ``a @ a``.
        gram = np.matmul(Xt, X)
        Xty = np.matmul(Xt, y[..., None])
        eigvals = np.linalg.eigvalsh(gram)
        eye = np.eye(d)
        alpha = np.full(m, float(self.alpha_init))
        beta = np.full(m, float(self.beta_init))
        mean = np.zeros((m, d))
        live = np.arange(m)
        for __ in range(self.max_iter):
            a, b = alpha[live, None], beta[live, None]
            ev = eigvals[live]
            cov = np.linalg.inv(a[..., None] * eye + b[..., None] * gram[live])
            mu = np.matmul(b[..., None] * cov, Xty[live])
            gamma = np.sum(b * ev / (a + b * ev), axis=1)
            alpha_new = gamma / np.maximum(_dots(mu[..., 0]), 1e-12)
            residual = y[live] - np.matmul(X[live], mu)[..., 0]
            denom = np.maximum(_dots(residual), 1e-12)
            beta_new = np.maximum(n - gamma, 1e-12) / denom
            alpha_new = np.minimum(np.maximum(alpha_new, 1e-10), 1e10)
            beta_new = np.minimum(np.maximum(beta_new, 1e-10), 1e10)
            a, b = a[:, 0], b[:, 0]
            converged = (np.abs(alpha_new - a) < self.tol * a) & (
                np.abs(beta_new - b) < self.tol * b
            )
            mean[live] = mu[..., 0]
            alpha[live] = alpha_new
            beta[live] = beta_new
            live = live[~converged]
            if not len(live):
                break
        cov = np.linalg.inv(alpha[:, None, None] * eye + beta[:, None, None] * gram)
        if stacked:
            self.alpha_, self.beta_, self.coef_, self.cov_ = alpha, beta, mean, cov
        else:
            self.alpha_, self.beta_ = float(alpha[0]), float(beta[0])
            self.coef_, self.cov_ = mean[0], cov[0]
        return self

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior-predictive mean (and optionally standard deviation).

        After a stacked fit ``X`` is a stack too (m × p × d, one set of
        probes per curve) and the outputs are m × p.
        """
        X = np.asarray(X, dtype=float)
        coef = np.asarray(self.coef_)
        stacked = coef.ndim == 2
        if stacked and (X.ndim != 3 or len(X) != len(coef)):
            raise ValueError(
                f"a stack of {len(coef)} fits needs X of shape ({len(coef)}, p, d), got {X.shape}"
            )
        Xs = X if stacked else X[None]
        mean = np.matmul(Xs, (coef if stacked else coef[None])[..., None])[..., 0]
        if not return_std:
            return mean if stacked else mean[0]
        covs = self.cov_ if stacked else [self.cov_]
        beta = np.asarray(self.beta_, dtype=float).reshape(-1, 1)
        # One einsum per curve: a stacked einsum reorders the sum.
        spread = np.stack(
            [np.einsum("ij,jk,ik->i", x, cov, x) for x, cov in zip(Xs, covs)]
        )
        std = np.sqrt(np.maximum(1.0 / beta + spread, 0.0))
        return (mean, std) if stacked else (mean[0], std[0])

    def credible_interval(
        self, X: np.ndarray, level: float = 0.95
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Predictive mean with symmetric ``level`` credible bounds."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        mean, std = self.predict(X, return_std=True)
        z = _normal_quantile(0.5 + level / 2.0)
        return mean, mean - z * std, mean + z * std


def _dots(a: np.ndarray) -> np.ndarray:
    """``v @ v`` for each row ``v`` of ``a``, with the 1-D dot's bits."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]
