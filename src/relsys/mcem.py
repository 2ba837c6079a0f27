"""Hyper-parameter estimation by Monte Carlo EM.

Each component's shape and scale carry independent gamma priors whose
variances are held fixed, so only the two prior means are estimated.  The
E step needs posterior draws under the current prior means; the M step
moves each prior mean to the maximizer of the average gamma log density
over those draws, which reads them only through the (weighted) means of
``x`` and ``log x`` that ``fit_component`` forms and ``m_step`` takes.

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
from typing import Callable

import numpy as np

from .dists import MeanVarGamma, log_gamma_fn
from .errors import ConvergenceError, NumericalError, RelsysError
from .sampler import PosteriorDraws, run_chain
from .settings import _KINDS, FitConfig
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
    """Prior means after EM iteration ``i``, a trace's ``i``-th entry (0: the start)."""

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

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

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
_M_EDGE = 1e-3
_M_TOL = 1e-6
_M_SCAN = 0.5  # largest step of the grid that looks for a second peak


def _higher_peak(f: Callable[[float], float], lo: float, hi: float, x: float) -> float:
    """``x``, or the maximizer of a higher peak of ``f`` on [lo, hi] that a
    grid of step at most ``_M_SCAN`` finds more than one step from ``x``."""
    points = math.ceil((hi - lo) / _M_SCAN)
    step = (hi - lo) / points
    best = max((lo + i * step for i in range(points + 1)), key=f)
    fx = f(x)
    if abs(best - x) <= step or f(best) <= fx:
        return x
    y = _golden_max(f, max(lo, best - step), min(hi, best + step), _M_TOL)
    return y if f(y) > fx else x


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


def m_step(mean_x: float, mean_log: float, v: float) -> float:
    """Prior mean maximizing the average gamma log density of a draw set.

    The average over the draws, weighted or not, needs only their means of
    ``x`` and ``log x``, ``mean_x`` and ``mean_log``; ``fit_component``
    forms them.  Golden-section search on the log of the mean, to 1e-6,
    over [1e-3, 1e3]; a maximizer within 1e-3 of either end (in log) is
    searched for once more over [1e-9, 1e9].

    When ``v`` is small against the spread of the draws, the objective can
    have two peaks in log m, and the golden section may find the lower one.
    So after each search the objective is scanned over the same bracket on
    a grid of step at most 0.5 in log m.  A grid point more than one step
    from the found maximizer that beats it starts a second golden section
    over the two steps around that point, and the higher of the two
    maximizers is kept.  When ``mean_x^2 / v`` is large the higher peak sits
    by ``mean_x`` and is only about ``sqrt(v) / mean_x`` wide in log m, so
    the grid can step over it: a last golden section searches 0.5 either
    side of ``log mean_x`` (within [1e-9, 1e9]), and its maximizer replaces
    the one found when it lies more than 1e-3 away and is strictly higher.
    A one-peaked objective returns what the first golden section found.

    Raises
    ------
    ConvergenceError
        If the maximizer lands within 1e-3 of an end of [1e-9, 1e9].
    NumericalError
        If the gamma shape ``m^2 / v`` underflows or its log-gamma overflows.
    ValueError
        If ``mean_x`` is not finite and > 0 or ``mean_log`` is not finite.
    """
    if not (math.isfinite(mean_x) and mean_x > 0.0 and math.isfinite(mean_log)):
        raise ValueError(f"m_step needs finite means, mean_x > 0; got {mean_x}, {mean_log}")

    def g(log_m: float) -> float:
        return _gamma_mean_objective(math.exp(log_m), v, mean_x, mean_log)

    try:
        for lo, hi in ((_M_LO, _M_HI), (-_M_LIMIT, _M_LIMIT)):
            x = _higher_peak(g, lo, hi, _golden_max(g, lo, hi, _M_TOL))
            if not (x - lo < _M_EDGE or hi - x < _M_EDGE):
                break
        # the peak by the draws' mean can be narrower than the scan's step
        c = math.log(mean_x)
        if abs(c) < _M_LIMIT:
            y = _golden_max(g, max(c - _M_SCAN, -_M_LIMIT), min(c + _M_SCAN, _M_LIMIT), _M_TOL)
            if abs(y - x) > _M_EDGE and g(y) > g(x):
                x = y
    except (ValueError, OverflowError) as e:
        raise NumericalError(f"prior-mean update failed at prior variance {v:g}: {e}") from e
    if x + _M_LIMIT < _M_EDGE or _M_LIMIT - x < _M_EDGE:
        side, bound = ("lower", -_M_LIMIT) if x < 0.0 else ("upper", _M_LIMIT)
        raise ConvergenceError(
            f"prior-mean update pinned at the {side} bound {math.exp(bound):.3g}"
        )
    return math.exp(x)


def _log_prior_ratio(x: np.ndarray, log_x: np.ndarray, m: float, m_gen: float, v: float):
    """``log pi_m(x) - log pi_gen(x)`` for two gamma priors of variance ``v``, up
    to a constant: their shapes differ by ``(m^2 - m_gen^2)/v`` and their
    rates by ``(m - m_gen)/v``, and normalizing the weights removes the rest."""
    return ((m * m - m_gen * m_gen) / v) * log_x - ((m - m_gen) / v) * x


def _draw_means(x: np.ndarray, log_x: np.ndarray, w: np.ndarray | None) -> tuple[float, float]:
    """The means of ``x`` and ``log x``, weighted by ``w`` (in any scale) if given."""
    if w is None:
        return float(x.mean()), float(log_x.mean())
    total = float(w.sum())
    return float(w @ x) / total, float(w @ log_x) / total


def _log_kernel(c: ComponentSample, m_beta: float, m_eta: float, v: float):
    """``c``'s posterior kernel under gamma priors of means ``m_beta``, ``m_eta``."""
    try:
        return make_log_kernel(c, (MeanVarGamma(m_beta, v), MeanVarGamma(m_eta, v)))
    except (ValueError, OverflowError) as e:
        raise NumericalError(
            f"hyper-means {m_beta:g}, {m_eta:g} are unusable at prior variance {v:g}: {e}"
        ) from e


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

    m_beta, m_eta = 1.0, float(c.times.mean())
    v = cfg.prior_variance
    em_cfg = replace(cfg, burn_in=cfg.burn_in // 10)
    trace = [EmStep(m_beta, m_eta)]
    converged = False
    em_stream = st.child(0)
    chains = 0
    min_ess = 1.0
    ess = 0.0  # no draws yet, so the first iteration runs a chain

    for _ in range(cfg.max_iter):
        if ess < _MIN_WEIGHT_ESS:
            rng = em_stream.child(chains).generator()
            d = run_chain(_log_kernel(c, m_beta, m_eta, v), em_cfg, rng, init=(m_beta, m_eta))
            chains += 1
            gen_beta, gen_eta = m_beta, m_eta
            log_betas, log_etas = np.log(d.betas), np.log(d.etas)
            weights, ess = None, 1.0
        min_ess = min(min_ess, ess)
        new_beta = m_step(*_draw_means(d.betas, log_betas, weights), v)
        new_eta = m_step(*_draw_means(d.etas, log_etas, weights), v)
        trace.append(EmStep(new_beta, new_eta))
        delta = max(abs(new_beta - m_beta), abs(new_eta - m_eta))
        m_beta, m_eta = new_beta, new_eta
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
    kernel, rng = _log_kernel(c, m_beta, m_eta, v), st.child(1).generator()
    d = run_chain(kernel, cfg, rng, init=init, step=d.step_final)
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
