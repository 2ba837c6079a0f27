"""Hyper-parameter estimation by Monte Carlo EM.

Each component's shape and scale carry independent gamma priors whose
variances are held fixed, so only the two prior means are estimated.  One
EM iteration runs a Metropolis chain at the current prior means (the Monte
Carlo E step), then moves each prior mean to the maximizer of the average
gamma log density over the drawn values (the M step).  Iterations stop
when both means move less than the tolerance, after which a longer chain
at the converged means produces the posterior draws that all downstream
summaries consume.

Every EM iteration replays the same proposal-noise substream from the
same starting point.  That makes the iteration a deterministic map of the
hyper-means alone, so the small-move stopping rule tests actual
convergence instead of Monte Carlo jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dists import ComponentParams, MeanVarGamma, log_gamma_fn
from .errors import ConvergenceError, NumericalError, RelsysError
from .sampler import McmcConfig, PosteriorDraws, run_chain
from .streams import RandomStream, as_stream
from .sysmodel import ComponentSample, SystemSample, decompose, make_log_kernel

__all__ = [
    "FitConfig",
    "EmStep",
    "ComponentFit",
    "SystemFit",
    "m_step",
    "fit_component",
    "fit_system",
]


def _iteration_mcmc(final: McmcConfig) -> McmcConfig:
    """Per-iteration chain settings: the final chain's, at a tenth of its burn-in."""
    return replace(final, burn_in=final.burn_in // 10)


@dataclass(frozen=True)
class FitConfig:
    """Settings for one component fit, and the home of their defaults.

    ``prior_variance`` is the fixed variance of both gamma priors.  ``mcmc``
    configures the per-iteration chains, ``final_mcmc`` the single long
    chain run at the converged prior means.
    """

    prior_variance: float = 4.0
    tol: float = 1e-3
    max_iter: int = 200
    mcmc: McmcConfig = field(default_factory=lambda: _iteration_mcmc(McmcConfig()))
    final_mcmc: McmcConfig = field(default_factory=McmcConfig)

    def __post_init__(self):
        if not (math.isfinite(self.prior_variance) and self.prior_variance > 0.0):
            raise ValueError(
                f"prior_variance must be finite and > 0, got {self.prior_variance}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class EmStep:
    """Prior means after one EM iteration (iteration 0 is the start point)."""

    iteration: int
    m_beta: float
    m_eta: float


@dataclass(frozen=True)
class ComponentFit:
    """Estimated prior means and the posterior draws sampled under them."""

    m_beta: float
    m_eta: float
    draws: PosteriorDraws
    em_trace: tuple[EmStep, ...]
    converged: bool
    warnings: tuple[str, ...]


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


_MAX_CHAIN_GROWTHS = 5

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


def m_step(values: Sequence[float] | np.ndarray, v: float) -> float:
    """Prior mean maximizing the average gamma log density of ``values``.

    Golden-section search on the log of the mean, to 1e-6, over a bracket
    that starts at three decades around 1 and widens when the maximizer
    lands on an edge.

    Raises
    ------
    ConvergenceError
        If the maximizer stays pinned at the widest bracket edge.
    ValueError
        If ``values`` is empty or contains non-positive entries.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("m_step needs at least one value")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise ValueError("m_step values must be finite and > 0")
    mean_x = float(arr.mean())
    mean_log = float(np.log(arr).mean())

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


def fit_component(
    c: ComponentSample, cfg: FitConfig, source: RandomStream | int
) -> ComponentFit:
    """Estimate one component's prior means and sample its posterior.

    The EM iterations and the final chain consume separate substreams of
    ``source``, so results are reproducible from the seed alone.
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
    # every iteration replays the same noise from the same start, so the
    # iteration is a map of the hyper-means only; feeding the previous
    # chain's state back in would re-inject Monte Carlo jitter and keep
    # the stopping rule from ever triggering
    chain_cfg = replace(cfg.mcmc, init=ComponentParams(m_beta, m_eta))
    trace = [EmStep(0, m_beta, m_eta)]
    converged = False
    em_stream = st.child(0)
    d = None

    # a deterministic map can orbit a limit cycle whose hops exceed the
    # tolerance; an exactly repeated state proves it never settles at this
    # chain length, so the chain is lengthened to shrink the hops
    seen: dict[tuple[float, float], int] = {}
    growths = 0

    for it in range(1, cfg.max_iter + 1):
        kernel = make_log_kernel(c, priors)
        d = run_chain(kernel, chain_cfg, em_stream.generator())
        new_beta = m_step(d.betas, v)
        new_eta = m_step(d.etas, v)
        trace.append(EmStep(it, new_beta, new_eta))
        delta = max(abs(new_beta - m_beta), abs(new_eta - m_eta))
        m_beta, m_eta = new_beta, new_eta
        priors = (MeanVarGamma(m_beta, v), MeanVarGamma(m_eta, v))
        if delta < cfg.tol:
            converged = True
            break
        if (new_beta, new_eta) in seen:
            if growths >= _MAX_CHAIN_GROWTHS:
                break
            growths += 1
            chain_cfg = replace(chain_cfg, n_p=2 * chain_cfg.n_p)
            seen.clear()
        else:
            seen[(new_beta, new_eta)] = it

    if not converged:
        warnings.append(
            f"prior-mean moves stayed above {cfg.tol} after {trace[-1].iteration} "
            f"iterations; the updates cycle between chain realizations"
            if growths >= _MAX_CHAIN_GROWTHS
            else f"prior-mean moves stayed above {cfg.tol} through {cfg.max_iter} iterations"
        )

    # the final chain warm-starts where the last iteration's chain settled;
    # this is a one-shot handoff, not part of the iteration loop
    kernel = make_log_kernel(c, priors)
    final_cfg = replace(
        cfg.final_mcmc,
        init=ComponentParams(float(d.betas.mean()), float(d.etas.mean())),
        step_init=d.step_final,
    )
    d = run_chain(kernel, final_cfg, st.child(1).generator())
    warnings.extend(d.warnings)
    return ComponentFit(
        m_beta=m_beta,
        m_eta=m_eta,
        draws=d,
        em_trace=tuple(trace),
        converged=converged,
        warnings=tuple(warnings),
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
