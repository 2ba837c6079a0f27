"""Hyper-parameter estimation by Monte Carlo EM.

Each component's shape and scale carry independent gamma priors whose
variances are held fixed, so only the two prior means are estimated.  The
E step needs posterior draws under the current prior means; the M step
moves each prior mean to the maximizer of the average gamma log density
over those draws.

Between iterations only the priors change, in closed form, so draws made
under one pair of prior means serve the next pair exactly once they are
reweighted by the prior ratio ``pi_new(beta) pi_new(eta) / pi_gen(beta)
pi_gen(eta)`` (importance-sampling MCEM).  One Metropolis chain therefore
carries many iterations: a fresh chain is drawn at the current means only
when the Kish effective sample size fraction of the weights,
``(sum w)^2 / (n sum w^2)``, falls below ``_MIN_WEIGHT_ESS``.  On one draw
set the iteration is a deterministic map of the hyper-means, so the
small-move stopping rule tests the convergence of that map rather than
Monte Carlo jitter.

A fit is ``converged`` when both means move less than the tolerance while
the weight ESS fraction of the current draws, reweighted to the new means,
is at least ``_MIN_WEIGHT_ESS``.  A longer chain at the converged means
then produces the posterior draws that all downstream summaries consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dists import MeanVarGamma, log_gamma_fn
from .errors import ConvergenceError, NumericalError, RelsysError
from .sampler import PosteriorDraws, run_chain
from .settings import FitConfig
from .streams import RandomStream, as_stream
from .sysmodel import ComponentSample, SystemSample, decompose, make_log_kernel

__all__ = [
    "EmStep",
    "ComponentFit",
    "SystemFit",
    "m_step",
    "fit_component",
    "fit_system",
]


@dataclass(frozen=True)
class EmStep:
    """Prior means after one EM iteration (iteration 0 is the start point)."""

    iteration: int
    m_beta: float
    m_eta: float


@dataclass(frozen=True)
class ComponentFit:
    """Estimated prior means and the posterior draws sampled under them.

    ``chains`` counts the Metropolis chains the fit ran, the EM chains plus
    the final one.  ``min_weight_ess`` is the smallest Kish effective
    sample size fraction of the importance weights any M step ran on
    (1.0 when every M step used a fresh chain).
    """

    m_beta: float
    m_eta: float
    draws: PosteriorDraws
    em_trace: tuple[EmStep, ...]
    converged: bool
    warnings: tuple[str, ...]
    chains: int
    min_weight_ess: float


@dataclass(frozen=True)
class SystemFit:
    """Per-component fits for one system, in component order."""

    kind: str
    components: tuple[ComponentFit, ...]

    @property
    def k(self) -> int:
        return len(self.components)


def _gamma_mean_objective(m: float, v: float, mean_x: float, mean_log: float) -> float:
    """Average gamma log density over draws with moments reduced to stats."""
    a = m * m / v
    b = m / v
    return a * math.log(b) - log_gamma_fn(a) + (a - 1.0) * mean_log - b * mean_x


# a draw set is reused while its importance weights keep at least this
# effective-sample-size fraction; below it a fresh chain is drawn
_MIN_WEIGHT_ESS = 0.5

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_M_LO = math.log(1e-3)
_M_HI = math.log(1e3)
_M_LIMIT = math.log(1e9)
_M_EXPAND = math.log(1e3)
_M_EDGE = 1e-3
_M_TOL = 1e-6


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    x1 = hi - _GOLD * (hi - lo)
    x2 = lo + _GOLD * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def m_step(
    values: Sequence[float] | np.ndarray,
    v: float,
    weights: np.ndarray | None = None,
) -> float:
    """Prior mean maximizing the average gamma log density of ``values``.

    With ``weights``, non-negative importance weights of the values in any
    scale, the average is weighted: the objective needs only the weighted
    means of ``x`` and ``log x``.  Golden-section search on the log of the
    mean, to 1e-6, over a bracket that starts at three decades around 1
    and widens when the maximizer lands on an edge.

    Raises
    ------
    ConvergenceError
        If the maximizer stays pinned at the widest bracket edge.
    ValueError
        If ``values`` is empty or contains non-positive entries, or if
        ``weights`` do not match them, are negative or non-finite, or are
        all zero.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("m_step needs at least one value")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise ValueError("m_step values must be finite and > 0")
    if weights is None:
        mean_x = float(arr.mean())
        mean_log = float(np.log(arr).mean())
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != arr.shape or not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
            raise ValueError("m_step weights must match the values and be finite and >= 0")
        total = float(w.sum())
        if total == 0.0:
            raise ValueError("m_step weights must not all be 0")
        mean_x = float(w @ arr) / total
        mean_log = float(w @ np.log(arr)) / total

    def g(log_m: float) -> float:
        return _gamma_mean_objective(math.exp(log_m), v, mean_x, mean_log)

    lo, hi = _M_LO, _M_HI
    while True:
        x = _golden_max(g, lo, hi, _M_TOL)
        if x - lo < _M_EDGE:
            if lo <= -_M_LIMIT + 1e-9:
                raise ConvergenceError(
                    f"prior-mean update pinned at the lower bound {math.exp(lo):.3g}"
                )
            lo = max(lo - _M_EXPAND, -_M_LIMIT)
        elif hi - x < _M_EDGE:
            if hi >= _M_LIMIT - 1e-9:
                raise ConvergenceError(
                    f"prior-mean update pinned at the upper bound {math.exp(hi):.3g}"
                )
            hi = min(hi + _M_EXPAND, _M_LIMIT)
        else:
            return math.exp(x)


def _initial_priors(
    c: ComponentSample, cfg: FitConfig
) -> tuple[float, float, tuple[MeanVarGamma, MeanVarGamma]]:
    m_beta = 1.0
    m_eta = float(c.times.mean())
    v = cfg.prior_variance
    try:
        priors = (MeanVarGamma(m_beta, v), MeanVarGamma(m_eta, v))
    except ValueError as e:
        raise NumericalError(f"initial hyper-means are unusable: {e}") from e
    return m_beta, m_eta, priors


def _log_prior_ratio(x: np.ndarray, log_x: np.ndarray, m: float, m_gen: float, v: float):
    """``log pi_m(x) - log pi_gen(x)`` for two gamma priors of variance ``v``, up
    to a constant: their shapes differ by ``(m^2 - m_gen^2)/v`` and their
    rates by ``(m - m_gen)/v``, and normalizing the weights removes the rest."""
    return ((m * m - m_gen * m_gen) / v) * log_x - ((m - m_gen) / v) * x


def fit_component(
    c: ComponentSample, cfg: FitConfig, source: RandomStream | int
) -> ComponentFit:
    """Estimate one component's prior means and sample its posterior.

    EM chain ``r`` consumes substream ``(0, r)`` of ``source`` and the
    final chain substream ``1``, so results are reproducible from the
    seed alone.
    """
    st = as_stream(source)
    warnings: list[str] = []
    if c.n_exact == 0:
        warnings.append(
            "sample has no exact failure times; estimates rest on the priors "
            "and the censoring pattern"
        )

    m_beta, m_eta, priors = _initial_priors(c, cfg)
    v = cfg.prior_variance
    em_mcmc = replace(cfg.final_mcmc, burn_in=cfg.final_mcmc.burn_in // 10)
    trace = [EmStep(0, m_beta, m_eta)]
    converged = False
    em_stream = st.child(0)
    chains = 0
    min_ess = 1.0
    ess = 0.0  # no draws yet, so the first iteration runs a chain

    for it in range(1, cfg.max_iter + 1):
        if ess < _MIN_WEIGHT_ESS:
            rng = em_stream.child(chains).generator()
            d = run_chain(make_log_kernel(c, priors), em_mcmc, rng, init=(m_beta, m_eta))
            chains += 1
            gen_beta, gen_eta = m_beta, m_eta
            log_betas, log_etas = np.log(d.betas), np.log(d.etas)
            weights, ess = None, 1.0
        min_ess = min(min_ess, ess)
        new_beta = m_step(d.betas, v, weights)
        new_eta = m_step(d.etas, v, weights)
        trace.append(EmStep(it, new_beta, new_eta))
        delta = max(abs(new_beta - m_beta), abs(new_eta - m_eta))
        m_beta, m_eta = new_beta, new_eta
        priors = (MeanVarGamma(m_beta, v), MeanVarGamma(m_eta, v))
        log_w = _log_prior_ratio(d.betas, log_betas, m_beta, gen_beta, v)
        log_w += _log_prior_ratio(d.etas, log_etas, m_eta, gen_eta, v)
        weights = np.exp(log_w - log_w.max())
        # Kish effective sample size, as a fraction of the draw count
        ess = float(weights.sum()) ** 2 / (weights.size * float(weights @ weights))
        if delta < cfg.tol and ess >= _MIN_WEIGHT_ESS:
            converged = True
            break

    if not converged:
        warnings.append(
            f"prior-mean moves did not fall below {cfg.tol} at a weight ESS of "
            f"at least {_MIN_WEIGHT_ESS} through {cfg.max_iter} iterations"
        )

    # the final chain warm-starts, at the last EM chain's tuned step, from the
    # posterior mean the last draws, reweighted to the final priors, estimate
    init = (
        float(np.average(d.betas, weights=weights)),
        float(np.average(d.etas, weights=weights)),
    )
    kernel, rng = make_log_kernel(c, priors), st.child(1).generator()
    d = run_chain(kernel, cfg.final_mcmc, rng, init=init, step=d.step_final)
    warnings.extend(d.warnings)
    return ComponentFit(
        m_beta=m_beta,
        m_eta=m_eta,
        draws=d,
        em_trace=tuple(trace),
        converged=converged,
        warnings=tuple(warnings),
        chains=chains + 1,
        min_weight_ess=min_ess,
    )


def fit_system(
    s: SystemSample, cfg: FitConfig, source: RandomStream | int
) -> SystemFit:
    """Fit every component of a masked system sample.

    Component ``j`` consumes the substream keyed by its index, so each
    fit is unchanged by the presence of the others.  Failures are
    collected and reported together with their component numbers.
    """
    st = as_stream(source)
    fits: list[ComponentFit] = []
    failures: list[str] = []
    for j, part in enumerate(decompose(s)):
        try:
            fits.append(fit_component(part, cfg, st.child(j)))
        except RelsysError as e:
            failures.append(f"component {j + 1}: {e}")
    if failures:
        raise NumericalError(
            f"{len(failures)} of {s.k} component fits failed: " + "; ".join(failures)
        )
    return SystemFit(kind=s.kind, components=tuple(fits))
