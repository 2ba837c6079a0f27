"""Simulation scenarios for bias and mean-squared-error studies.

A scenario draws lifetimes from a known generator, censors a fixed
fraction of them at an empirical threshold (type-I style: the threshold
is an order statistic of the drawn sample, so the censored count is exact
rather than binomial), fits the component model, and records the
posterior-mean lifetime against the generator's true mean.

Substreams are keyed by the scenario coordinates except the censoring
side, and by the replicate index.  Two consequences are deliberate: a
zero-censoring scenario produces byte-identical results whichever side it
nominally uses, and rerunning with fewer replicates reproduces a prefix
of the longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curves import mean_time_posterior
from .dists import _FAMILIES, GeneratorSpec, sample
from .errors import RelsysError
from .mcem import fit_component
from .settings import GRID_REPLICATES, _KINDS, _SIDES, FitConfig
from .streams import RandomStream, as_stream
from .sysmodel import ComponentSample, SystemSample

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "generate_system_sample",
    "generate_censored_sample",
    "run_scenario",
    "grid_specs",
    "GRID_FAMILIES",
    "GRID_MEANS",
    "GRID_CENSOR_FRACTIONS",
    "GRID_SIZES",
    "GRID_SIDES",
    "GRID_VARIANCE",
]

GRID_FAMILIES = _FAMILIES
GRID_MEANS = (2.0, 7.0)
GRID_CENSOR_FRACTIONS = (0.0, 0.2, 0.4)
GRID_SIZES = (30, 100, 1000)
GRID_SIDES = _SIDES
GRID_VARIANCE = 5.0
# a replicate estimate this many times above or below the true mean is
# reported as absurd; it still counts toward bias and MSE
_ABSURD_FACTOR = 1e3


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a study: generator, sample size, censoring and side.

    ``true_mean`` is the generator's expected lifetime; all three families
    are parametrized directly by their mean, so no integration is needed.
    """

    generator: GeneratorSpec
    n: int
    censor_fraction: float
    side: str
    replicates: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"scenario sample size must be >= 2, got {self.n}")
        if not 0.0 <= self.censor_fraction < 1.0:
            raise ValueError(
                f"censor_fraction must be in [0, 1), got {self.censor_fraction}"
            )
        if self.side not in GRID_SIDES:
            raise ValueError(f"side must be one of {GRID_SIDES}, got {self.side!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        c = _censored_count(self.censor_fraction, self.n)
        if c >= self.n:
            raise ValueError(
                f"censoring {self.censor_fraction} of n={self.n} leaves no exact records"
            )

    @property
    def true_mean(self) -> float:
        return self.generator.mean

    @property
    def coords(self) -> dict:
        """The cell's coordinates, keyed as the ``study.csv`` columns."""
        return {
            "side": self.side,
            "family": self.generator.family,
            "censor_pct": self.censor_fraction * 100.0,
            "true_mean": self.true_mean,
            "n": self.n,
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Replicate estimates of the mean lifetime and their error summary.

    ``failures`` holds one ``(replicate index, error message)`` pair per
    replicate whose draw or fit raised, in replicate order.
    ``not_converged`` lists, in order, the replicates whose fit stopped at
    the iteration cap; their estimates are kept.  ``absurd`` holds one ``(replicate
    index, estimate)`` pair per kept estimate that is non-finite or more
    than 1e3 times above or below the true mean.  ``chains`` and
    ``iterations`` total the fitted replicates' Metropolis chains and EM
    iterations, and ``min_weight_ess`` is the smallest of their
    ``min_weight_ess`` (NaN when no replicate was fitted).
    """

    spec: ScenarioSpec
    estimates: tuple[float, ...]
    bias: float
    mse: float
    failures: tuple[tuple[int, str], ...]
    not_converged: tuple[int, ...]
    absurd: tuple[tuple[int, float], ...]
    chains: int
    iterations: int
    min_weight_ess: float

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _censored_count(fraction: float, n: int) -> int:
    # round half away from zero; fraction and n are non-negative here
    return int(math.floor(fraction * n + 0.5))


def generate_system_sample(
    generators: Sequence[GeneratorSpec],
    kind: str,
    n: int,
    rng: np.random.Generator,
) -> SystemSample:
    """Draw ``n`` masked system failures from per-component generators.

    Component lifetimes are drawn component by component from ``rng``; the
    observed time is the minimum (series) or maximum (parallel) and the
    cause is the achieving component.  Simultaneous failures have
    probability zero under continuous generators and are not arbitrated
    beyond first index.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not generators:
        raise ValueError("at least one component generator is required")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    lifetimes = np.column_stack([sample(g, n, rng) for g in generators])
    pick = np.argmin if kind == "series" else np.argmax
    idx = pick(lifetimes, axis=1)
    return SystemSample(kind, len(generators), lifetimes[np.arange(n), idx], idx + 1)


def generate_censored_sample(
    g: GeneratorSpec,
    n: int,
    fraction: float,
    side: str,
    rng: np.random.Generator,
) -> ComponentSample:
    """Draw ``n`` lifetimes and censor an exact count at an order statistic.

    With ``c`` the rounded censored count, right censoring replaces the
    ``c`` largest values with the ``(n-c)``-th order statistic; left
    censoring replaces the ``c`` smallest with the ``(c+1)``-th.  The
    threshold itself stays exact, and ties are broken by draw order.
    """
    if side not in GRID_SIDES:
        raise ValueError(f"side must be one of {GRID_SIDES}, got {side!r}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"censor fraction must be in [0, 1), got {fraction}")
    c = _censored_count(fraction, n)
    if c >= n:
        raise ValueError(f"censoring {fraction} of n={n} leaves no exact records")
    x = sample(g, n, rng)
    censored = np.zeros(n, dtype=bool)
    threshold = 0.0
    if c > 0:
        order = np.argsort(x, kind="stable")
        if side == "right":
            threshold = float(x[order[n - c - 1]])
            censored[order[n - c :]] = True
        else:
            threshold = float(x[order[c]])
            censored[order[:c]] = True
    return ComponentSample(side, np.where(censored, threshold, x), censored)


def _scenario_key(spec: ScenarioSpec) -> tuple[int, ...]:
    # the side is deliberately absent: zero-censoring cells must replay
    # identical substreams on both sides
    return (
        GRID_FAMILIES.index(spec.generator.family),
        round(spec.generator.mean * 1000),
        round(spec.generator.variance * 1000),
        round(spec.censor_fraction * 1000),
        spec.n,
    )


def _shared_fit(spec: ScenarioSpec) -> ScenarioSpec:
    """The cell whose result ``spec`` shares.

    A cell that censors no record draws the same data on either side (its
    substreams leave the side out) and fits it the same way, so its result
    is that of the first side's cell; any other cell is its own.  The test
    is the censored count, not the fraction: 0.01 of n=30 censors nothing
    either.
    """
    if _censored_count(spec.censor_fraction, spec.n) == 0:
        return replace(spec, side=GRID_SIDES[0])
    return spec


def run_scenario(
    spec: ScenarioSpec, cfg: FitConfig, source: RandomStream | int
) -> ScenarioResult:
    """Replicate one scenario cell and summarize bias and MSE.

    Each replicate draws data and fits on its own substream; replicates
    whose draw or fit raises a :class:`RelsysError` are skipped, and the
    error's message is kept in ``failures``.
    """
    base = as_stream(source).child(*_scenario_key(spec))
    estimates = []
    failures = []
    not_converged = []
    absurd = []
    chains = iterations = 0
    weight_ess = []
    lo, hi = spec.true_mean / _ABSURD_FACTOR, spec.true_mean * _ABSURD_FACTOR
    for r in range(spec.replicates):
        rep = base.child(r)
        try:
            data = generate_censored_sample(
                spec.generator,
                spec.n,
                spec.censor_fraction,
                spec.side,
                rep.child(0).generator(),
            )
            fit = fit_component(data, cfg, rep.child(1))
        except RelsysError as e:
            failures.append((r, str(e)))
            continue
        if not fit.converged:
            not_converged.append(r)
        chains += fit.chains
        iterations += len(fit.em_trace) - 1
        weight_ess.append(fit.min_weight_ess)
        est = mean_time_posterior(fit.draws)[0]
        if not lo <= est <= hi:
            absurd.append((r, est))
        estimates.append(est)
    if estimates:
        err = np.asarray(estimates) - spec.true_mean
        bias = float(err.mean())
        mse = float((err**2).mean())
    else:
        bias = math.nan
        mse = math.nan
    return ScenarioResult(
        spec=spec,
        estimates=tuple(estimates),
        bias=bias,
        mse=mse,
        failures=tuple(failures),
        not_converged=tuple(not_converged),
        absurd=tuple(absurd),
        chains=chains,
        iterations=iterations,
        min_weight_ess=min(weight_ess, default=math.nan),
    )


def grid_specs(
    families: Sequence[str] = GRID_FAMILIES,
    means: Sequence[float] = GRID_MEANS,
    censor_fractions: Sequence[float] = GRID_CENSOR_FRACTIONS,
    sizes: Sequence[int] = GRID_SIZES,
    sides: Sequence[str] = GRID_SIDES,
    variance: float = GRID_VARIANCE,
    replicates: int = GRID_REPLICATES,
) -> tuple[ScenarioSpec, ...]:
    """Enumerate the scenario cross product in canonical order.

    Cells are ordered by side, family (in ``GRID_FAMILIES`` order), censor
    fraction, mean and sample size.
    """
    specs = []
    for side in sides:
        for family in families:
            for fraction in censor_fractions:
                for mean in means:
                    for n in sizes:
                        specs.append(
                            ScenarioSpec(
                                generator=GeneratorSpec(family, mean, variance),
                                n=n,
                                censor_fraction=fraction,
                                side=side,
                                replicates=replicates,
                            )
                        )
    return tuple(specs)
