"""Reliability curves, credible bands and lifetime summaries from draws.

Each posterior draw of (shape, scale) induces one survival curve; the
estimated reliability at a time point is the average of the drawn curves
there, and the band is a pointwise credible interval across draws, either
highest-posterior-density or symmetric-quantile.  System curves combine
component curves draw by draw, multiplying survivals for series systems
and failure probabilities for parallel ones, so between-component
posterior dependence never has to be modelled explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import _freeze_arrays, log_gamma_fn
from .mcem import SystemFit
from .sampler import PosteriorDraws

__all__ = [
    "TimeGrid",
    "ReliabilityBand",
    "reliability_band",
    "mean_time_posterior",
    "system_band",
]

# the first method is the default
_METHODS = ("hpd", "quantile")
_LEVEL = 0.95
_GRID_POINTS = 200


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing evaluation times, starting at or after zero.

    ``points`` is a 1-D float array, stored read-only and copied if the
    caller's is writeable.  Instances compare by identity; compare the
    arrays instead.
    """

    points: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, "points")
        p = self.points
        if p.ndim != 1 or p.size == 0:
            raise ValueError("time grid must be a 1-D array of at least one point")
        if not np.all(np.isfinite(p)):
            raise ValueError("time grid points must be finite")
        if p[0] < 0.0:
            raise ValueError(f"time grid must start at >= 0, got {p[0]}")
        if not np.all(np.diff(p) > 0.0):
            raise ValueError("time grid points must be strictly increasing")

    @classmethod
    def regular(cls, t_max: float, n: int = _GRID_POINTS) -> "TimeGrid":
        """Evenly spaced grid of ``n`` points from 0 to ``t_max``."""
        if not (math.isfinite(t_max) and t_max > 0.0):
            raise ValueError(f"t_max must be finite and > 0, got {t_max}")
        if n < 2:
            raise ValueError(f"regular grid needs at least 2 points, got {n}")
        return cls(np.linspace(0.0, t_max, n))

    @property
    def n(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class ReliabilityBand:
    """Pointwise mean curve with credible bounds on a time grid.

    ``mean``, ``lower`` and ``upper`` are float arrays of the grid's
    length, stored read-only and copied if the caller's are writeable.
    Instances compare by identity; compare the arrays instead.
    """

    grid: TimeGrid
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    method: str

    def __post_init__(self):
        _freeze_arrays(self, "mean", "lower", "upper")
        shape = self.grid.points.shape
        if not (self.mean.shape == self.lower.shape == self.upper.shape == shape):
            raise ValueError("band arrays must match the grid length")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        for name in ("mean", "lower", "upper"):
            arr = getattr(self, name)
            # written so that NaN fails it
            if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
                raise ValueError(f"band {name} values must lie in [0, 1]")
        if np.any(self.lower > self.upper):
            raise ValueError("band lower bound exceeds upper bound")


def _survival_matrix(d: PosteriorDraws, times: np.ndarray) -> np.ndarray:
    """Per-draw survival curves, one row per time point."""
    log_etas = np.log(d.etas)
    with np.errstate(divide="ignore", over="ignore"):
        log_t = np.log(times)[:, None]
        # beta * log(t/eta); -inf at t = 0 exponentiates to survival 1
        expo = d.betas[None, :] * (log_t - log_etas[None, :])
        return np.exp(-np.exp(expo))


def _band_from_matrix(
    r: np.ndarray, grid: TimeGrid, level: float, method: str
) -> ReliabilityBand:
    """Band over the rows of ``r``, which the hpd method sorts in place.

    The hpd bounds of a row are the shortest window holding
    ``ceil(level * n)`` of its ``n`` values, the lowest one on ties;
    ``level * n`` is rounded to 9 decimals first, so that a product such
    as ``0.68 * 75 = 51.00000000000001`` does not add a value.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    # before the sort: the pairwise sum depends on the element order
    mean = r.mean(axis=1)
    if method == "hpd":
        r.sort(axis=1)
        n = r.shape[1]
        w = min(math.ceil(round(level * n, 9)), n)
        i = np.argmin(r[:, w - 1 :] - r[:, : n - w + 1], axis=1)
        rows = np.arange(r.shape[0])
        lower, upper = r[rows, i], r[rows, i + w - 1]
    else:
        half = (1.0 - level) / 2.0
        lower, upper = np.quantile(r, [half, 1.0 - half], axis=1)
    return ReliabilityBand(grid, mean, lower, upper, level, method)


def reliability_band(
    d: PosteriorDraws, grid: TimeGrid, level: float = _LEVEL, method: str = _METHODS[0]
) -> ReliabilityBand:
    """Pointwise mean reliability with credible bounds for one component."""
    return _band_from_matrix(_survival_matrix(d, grid.points), grid, level, method)


def mean_time_posterior(d: PosteriorDraws) -> tuple[float, float]:
    """Posterior mean and standard deviation of the expected lifetime.

    Each draw contributes its own closed-form mean ``eta * Gamma(1 + 1/beta)``.
    """
    gl = np.array([log_gamma_fn(1.0 + 1.0 / b) for b in d.betas.tolist()])
    values = d.etas * np.exp(gl)
    return float(values.mean()), float(values.std(ddof=1))


def system_band(
    f: SystemFit, grid: TimeGrid, level: float = _LEVEL, method: str = _METHODS[0]
) -> ReliabilityBand:
    """Credible band for the whole system's reliability.

    Component curves are combined within each draw index, so the ``l``-th
    system curve uses the ``l``-th draw of every component.  The product
    is formed in place, one component matrix at a time, so at most two
    draw-by-time matrices are alive at once.
    """
    sizes = {c.draws.n for c in f.components}
    if len(sizes) != 1:
        raise ValueError(f"components carry unequal draw counts {sorted(sizes)}")
    parallel = f.kind != "series"
    r = None
    for c in f.components:
        m = _survival_matrix(c.draws, grid.points)
        if parallel:
            np.subtract(1.0, m, out=m)
        r = m if r is None else np.multiply(r, m, out=r)
    if parallel:
        np.subtract(1.0, r, out=r)
    return _band_from_matrix(r, grid, level, method)
