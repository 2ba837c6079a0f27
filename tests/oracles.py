"""Test-side oracles for the component posterior and the EM over its priors.

Two independent references for the estimator:

* :func:`quadrature_posterior_means` integrates any posterior kernel on a
  2-D trapezoid grid in (log shape, log scale);
* :class:`ExactEm` finds the fixed point of the EM over the two gamma
  prior means without Monte Carlo error.  The likelihood is evaluated once
  on a 200x200 log-spaced grid over [0.05, 40]^2, with its own numpy
  formulas rather than the package's kernel; each EM iteration reweights
  that grid by the current gamma priors and maximizes the M step's
  objective on the grid-weighted moments ``E[x]`` and ``E[log x]``.

Its ``hyper_mean_se`` turns the exact posterior at the fixed point into the
Monte Carlo standard error of the hyper-means that a given number of draws
carries, which is how the tests size their bounds.

Two textbook densities stand where the package's own formulas would
otherwise check themselves: :func:`gamma_logpdf`, the prior log density, and
:func:`masked_system_loglik`, the masked series or parallel system
likelihood straight from scipy's Weibull functions.  :func:`hpd_interval`
is the scalar reference for the row-wise HPD of the band code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import weibull_min

from relsys.dists import ComponentParams
from relsys.mcem import _gamma_mean_objective

GRID_LO, GRID_HI, GRID_M = 0.05, 40.0, 200


def quadrature_posterior_means(kernel, log_beta_rng, log_eta_rng, m=200):
    """Posterior means of shape and scale by trapezoid quadrature in logs.

    ``kernel`` is an unnormalized log posterior of a ``(beta, eta)`` pair;
    the grid spans ``log_beta_rng`` x ``log_eta_rng`` with ``m`` points a side.
    """
    u = np.linspace(*log_beta_rng, m)
    w = np.linspace(*log_eta_rng, m)
    logf = np.empty((m, m))
    for i, ui in enumerate(u):
        for j, wj in enumerate(w):
            # the log-space volume element adds u + w
            logf[i, j] = kernel(ComponentParams(math.exp(ui), math.exp(wj))) + ui + wj
    logf -= logf.max()
    f = np.exp(logf)
    du, dw = u[1] - u[0], w[1] - w[0]
    z = np.trapezoid(np.trapezoid(f, dx=dw, axis=1), dx=du)
    eb = np.trapezoid(np.trapezoid(f * np.exp(u)[:, None], dx=dw, axis=1), dx=du) / z
    ee = np.trapezoid(np.trapezoid(f * np.exp(w)[None, :], dx=dw, axis=1), dx=du) / z
    return eb, ee


def grid_loglik(times, censored, side, betas, etas):
    """Log-likelihood of a censored Weibull sample at every ``(beta_i, eta_j)``.

    Exact records add ``log(beta/eta) + (beta-1)*log(t/eta) - (t/eta)**beta``,
    right censorings ``-(t/eta)**beta`` and left censorings
    ``log(1 - exp(-(t/eta)**beta))``.
    """
    times = np.asarray(times, dtype=float)
    censored = np.asarray(censored, dtype=bool)
    out = np.empty((betas.size, etas.size))
    z = np.log(times)[None, :] - np.log(etas)[:, None]  # (eta, record)
    for i, b in enumerate(betas):
        x = np.exp(b * z)
        exact = math.log(b) - np.log(etas)[:, None] + (b - 1.0) * z - x
        if side == "right":
            cens = -x
        else:
            with np.errstate(divide="ignore"):
                cens = np.log(-np.expm1(-x))
        out[i] = np.where(censored[None, :], cens, exact).sum(axis=1)
    return out


def gamma_logpdf(x, mean, v):
    """Log density at ``x > 0`` (a float or an array) of the gamma with
    ``mean`` and variance ``v``: ``a log b - lnGamma(a) + (a-1) log x - b x``
    with shape ``a = mean**2 / v`` and rate ``b = mean / v``."""
    a, b = mean * mean / v, mean / v
    log_x = np.log(x) if isinstance(x, np.ndarray) else math.log(x)
    return a * math.log(b) - math.lgamma(a) + (a - 1.0) * log_x - b * x


def masked_system_loglik(kind, times, causes, params):
    """Log-likelihood of masked system failures, record by record, by scipy.

    A record at ``t`` caused by component ``j`` has density
    ``f_j(t) * prod_{i != j} S_i(t)`` in a series system and
    ``f_j(t) * prod_{i != j} F_i(t)`` in a parallel one, with each
    component Weibull under ``params[i] = (beta_i, eta_i)``.
    """
    times, causes = np.asarray(times, dtype=float), np.asarray(causes)
    other = weibull_min.logsf if kind == "series" else weibull_min.logcdf
    total = 0.0
    for i, (beta, eta) in enumerate(params, start=1):
        own = causes == i
        total += weibull_min.logpdf(times[own], beta, scale=eta).sum()
        total += other(times[~own], beta, scale=eta).sum()
    return float(total)


def hpd_interval(values, level):
    """Shortest window of ``ceil(level * n)`` sorted values (``level * n``
    rounded to 9 decimals), and at least one, the lowest one on ties, found
    by trying every window in turn."""
    arr = sorted(float(x) for x in values)
    n = len(arr)
    w = min(max(math.ceil(round(level * n, 9)), 1), n)
    best = 0
    for i in range(1, n - w + 1):
        if arr[i + w - 1] - arr[i] < arr[best + w - 1] - arr[best]:
            best = i
    return arr[best], arr[best + w - 1]


def gamma_mean_argmax(mean_x, mean_log, v):
    """The M step's maximizer, found by scipy's bounded optimizer in log m."""
    res = minimize_scalar(
        lambda lm: -_gamma_mean_objective(math.exp(lm), v, mean_x, mean_log),
        bounds=(math.log(1e-3), math.log(1e3)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return math.exp(res.x)


class ExactEm:
    """Exact EM over the prior means for one ``ComponentSample`` at prior
    variance ``v``, on a fixed log grid."""

    def __init__(self, c, v):
        self.v = v
        self.betas = np.geomspace(GRID_LO, GRID_HI, GRID_M)
        self.etas = np.geomspace(GRID_LO, GRID_HI, GRID_M)
        # uniform steps in (log beta, log eta): the volume element is beta * eta
        self.base = (
            grid_loglik(c.times, c.censored, c.side, self.betas, self.etas)
            + np.log(self.betas)[:, None]
            + np.log(self.etas)[None, :]
        )

    def posterior(self, m_beta, m_eta):
        """Normalized posterior mass per grid cell, indexed ``(beta, eta)``."""
        logp = (
            self.base
            + gamma_logpdf(self.betas, m_beta, self.v)[:, None]
            + gamma_logpdf(self.etas, m_eta, self.v)[None, :]
        )
        p = np.exp(logp - logp.max())
        return p / p.sum()

    def step(self, m_beta, m_eta):
        """One exact EM update of the two prior means."""
        p = self.posterior(m_beta, m_eta)
        pb, pe = p.sum(axis=1), p.sum(axis=0)
        new_beta = gamma_mean_argmax(
            float(pb @ self.betas), float(pb @ np.log(self.betas)), self.v
        )
        new_eta = gamma_mean_argmax(float(pe @ self.etas), float(pe @ np.log(self.etas)), self.v)
        return new_beta, new_eta

    def fixed_point(self, m_beta, m_eta, tol=1e-10, max_iter=500):
        """Iterate from ``(m_beta, m_eta)`` until both means move less than ``tol``."""
        for _ in range(max_iter):
            nb, ne = self.step(m_beta, m_eta)
            done = max(abs(nb - m_beta), abs(ne - m_eta)) < tol
            m_beta, m_eta = nb, ne
            if done:
                return m_beta, m_eta
        raise AssertionError(f"exact EM did not settle in {max_iter} iterations")

    def hyper_mean_se(self, m_beta, m_eta, n):
        """Monte Carlo standard errors of the fixed point ``(m_beta, m_eta)``
        when it is estimated from ``n`` independent posterior draws.

        The M step maps each coordinate's draw moments ``(mean x, mean log
        x)`` to a prior mean.  Its gradient, by central differences of
        :func:`gamma_mean_argmax`, against the exact posterior covariance of
        ``(beta, log beta, eta, log eta)`` over ``n`` gives the covariance
        of one M step (the delta method).  A fixed point of M steps on one
        draw set carries that error amplified by ``(I - J)^-1``, where ``J``
        is the Jacobian of the exact EM map at the fixed point, also by
        central differences.
        """
        b, e = np.meshgrid(self.betas, self.etas, indexing="ij")
        feats = np.stack([b, np.log(b), e, np.log(e)]).reshape(4, -1)
        p = self.posterior(m_beta, m_eta).reshape(-1)
        mu = feats @ p
        centred = feats - mu[:, None]
        cov = (centred * p) @ centred.T

        grad = np.zeros((2, 4))
        for row in range(2):
            mx, ml = mu[2 * row], mu[2 * row + 1]
            hx, hl = 1e-5 * mx, 1e-5
            grad[row, 2 * row] = (
                gamma_mean_argmax(mx + hx, ml, self.v) - gamma_mean_argmax(mx - hx, ml, self.v)
            ) / (2 * hx)
            grad[row, 2 * row + 1] = (
                gamma_mean_argmax(mx, ml + hl, self.v) - gamma_mean_argmax(mx, ml - hl, self.v)
            ) / (2 * hl)

        jac = np.zeros((2, 2))
        for col in range(2):
            h = np.zeros(2)
            h[col] = 1e-4 * (m_beta, m_eta)[col]
            up = self.step(m_beta + h[0], m_eta + h[1])
            down = self.step(m_beta - h[0], m_eta - h[1])
            jac[:, col] = np.subtract(up, down) / (2 * h[col])
        a = np.linalg.inv(np.eye(2) - jac)
        se_cov = a @ (grad @ cov @ grad.T / n) @ a.T
        return math.sqrt(se_cov[0, 0]), math.sqrt(se_cov[1, 1])
