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
from .settings import _GRID_POINTS, _LEVEL, _METHODS

__all__ = [
    "TimeGrid",
    "ReliabilityBand",
    "reliability_band",
    "mean_time_posterior",
    "system_band",
]

# a band reduces its draws-by-time survival values this many bytes of
# grid rows at a time (at least one row)
_BLOCK_BYTES = 1 << 19


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


def _survival_matrix(
    betas: np.ndarray, log_etas: np.ndarray, times: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-draw survival curves of the draws ``betas`` and ``exp(log_etas)``,
    one row per time point, written into ``out`` if given.

    ``exp(-exp(beta * (log t - log eta)))`` is formed in place in the one
    matrix that the subtraction fills.  A band takes each component's
    ``log_etas`` once, not once per block of rows.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_t = np.log(times)[:, None]
        # beta * log(t/eta); -inf at t = 0 exponentiates to survival 1
        m = np.subtract(log_t, log_etas, out=out)
        np.multiply(betas, m, out=m)
        np.exp(m, out=m)
        np.negative(m, out=m)
        return np.exp(m, out=m)


def _band_from_matrix(
    r: np.ndarray, level: float, method: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, lower and upper bound of each row of ``r``, whose rows it
    reorders in place.

    The mean is taken first, over the unsorted rows.  Both bounds are then
    read from the few order statistics of each row that they need, which
    single-``kth`` partitions put in place, so no copy of ``r`` is made.
    The hpd bounds of a row are the shortest window holding
    ``w = ceil(level * n)`` of its ``n`` values, and at least one, the
    lowest one on ties.  ``level * n`` is rounded to 9 decimals first, so
    that a product such as ``0.68 * 75 = 51.00000000000001`` does not add a
    value.  A window starts at one of the lowest ``n - w + 1`` values and
    ends at one of the highest ``n - w + 1``, so only those two tails are
    sorted, and the window widths are taken a few rows at a time, at most
    ``n`` of them alive.  The quantile bounds at ``q = (1 - level) / 2`` and
    ``1 - q`` are numpy's default "linear" quantiles: the two order
    statistics around ``q * (n - 1)``, interpolated exactly as
    ``np.quantile`` does, so the bounds equal its result bit for bit.
    Where the two tails overlap (hpd at a level of about 0.5 or below) or
    the four order statistics are not distinct (tiny ``n``), the rows are
    sorted whole.  Every statistic is per row, so the rows of a matrix may
    be reduced in any grouping with the same result.
    """
    # before any reordering: the pairwise sum depends on the element order
    mean = r.mean(axis=1)
    n = r.shape[1]
    if method == "hpd":
        w = min(max(math.ceil(round(level * n, 9)), 1), n)
        # the windows start at 0 .. k and end at w - 1 .. n - 1
        k = n - w
        if k > w - 1:
            r.sort(axis=1)
        else:
            r.partition(k, axis=1)
            r[:, :k].sort(axis=1)
            if w - 1 > k:
                r[:, k + 1 :].partition(w - 2 - k, axis=1)
            r[:, w:].sort(axis=1)
        # the window widths of a few rows at a time: at most n values alive
        i = np.empty(r.shape[0], dtype=np.intp)
        rows = n // (k + 1)
        for a in range(0, r.shape[0], rows):
            b = a + rows
            i[a:b] = np.argmin(r[a:b, w - 1 :] - r[a:b, : k + 1], axis=1)
        at = np.arange(r.shape[0])
        return mean, r[at, i], r[at, i + w - 1]
    half = (1.0 - level) / 2.0
    lo, hi = _neighbours(n, half), _neighbours(n, 1.0 - half)
    if lo[0] < lo[1] < hi[0] < hi[1]:
        # the two inner statistics over the row and the rest, then the two
        # outer ones, each over the short slice beyond an inner one
        r.partition(lo[1], axis=1)
        r[:, lo[1] + 1 :].partition(hi[0] - lo[1] - 1, axis=1)
        r[:, : lo[1]].partition(lo[0], axis=1)
        r[:, hi[0] + 1 :].partition(hi[1] - hi[0] - 1, axis=1)
    else:
        r.sort(axis=1)
    return mean, _sorted_quantile(r, half), _sorted_quantile(r, 1.0 - half)


def _neighbours(n: int, q: float) -> tuple[int, int]:
    """The indices of the two order statistics that numpy's "linear"
    quantile ``q`` of ``n`` values interpolates."""
    lo = math.floor((n - 1) * q)
    # at (n - 1) * q = n - 1 both are the last value, as numpy clips them
    return lo, min(lo + 1, n - 1)


def _sorted_quantile(r: np.ndarray, q: float) -> np.ndarray:
    """numpy's "linear" quantile ``q`` of each row of ``r``, which holds
    the two order statistics around ``q * (n - 1)`` in place, as a
    row-sorted ``r`` does."""
    n = r.shape[1]
    v = (n - 1) * q
    lo, hi = _neighbours(n, q)
    g = v - lo
    a, b = r[:, lo], r[:, hi]
    diff = b - a
    return b - diff * (1.0 - g) if g >= 0.5 else a + diff * g


def reliability_band(
    d: PosteriorDraws, grid: TimeGrid, level: float = _LEVEL, method: str = _METHODS[0]
) -> ReliabilityBand:
    """Pointwise mean reliability with credible bounds for one component,
    built as the band of a series system of that one component."""
    return _band("series", (d,), grid, level, method)


def mean_time_posterior(d: PosteriorDraws) -> tuple[float, float]:
    """Posterior mean and standard deviation of the expected lifetime.

    Each draw contributes its own closed-form mean ``eta * Gamma(1 + 1/beta)``.
    """
    gl = np.array([log_gamma_fn(1.0 + 1.0 / b) for b in d.betas.tolist()])
    # a heavy-tailed posterior can overflow a lifetime or the spread: the
    # moment is then inf (nan for the spread of an inf), which callers flag
    with np.errstate(over="ignore", invalid="ignore"):
        values = d.etas * np.exp(gl)
        return float(values.mean()), float(values.std(ddof=1))


def system_band(
    f: SystemFit, grid: TimeGrid, level: float = _LEVEL, method: str = _METHODS[0]
) -> ReliabilityBand:
    """Credible band for the whole system's reliability.

    Component curves are combined within each draw index, so the ``l``-th
    system curve uses the ``l``-th draw of every component.
    """
    return _band(f.kind, tuple(c.draws for c in f.components), grid, level, method)


def _band(
    kind: str, draws: tuple[PosteriorDraws, ...], grid: TimeGrid, level: float, method: str
) -> ReliabilityBand:
    """Band of the ``kind`` system whose components carry ``draws``.

    The curves are built one block of about ``_BLOCK_BYTES``, and at least
    one grid row, at a time, into buffers made once: the first component's
    block is written into the product buffer, each further one into a
    second buffer and folded into the product in place, and the product is
    reduced, its rows reordered in place, before the next block.  So at most
    two blocks are alive at once, whatever the grid size.
    """
    sizes = {d.n for d in draws}
    if len(sizes) != 1:
        raise ValueError(f"components carry unequal draw counts {sorted(sizes)}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    parallel = kind != "series"
    curves = [(d.betas, np.log(d.etas)) for d in draws]
    out = np.empty((3, grid.n))
    n = sizes.pop()
    step = min(max(1, _BLOCK_BYTES // (8 * n)), grid.n)
    prod = np.empty((step, n))
    part = np.empty((step, n)) if len(curves) > 1 else None
    for start in range(0, grid.n, step):
        times = grid.points[start : start + step]
        r = prod[: times.size]
        for j, (betas, log_etas) in enumerate(curves):
            m = _survival_matrix(betas, log_etas, times, part[: times.size] if j else r)
            if parallel:
                np.subtract(1.0, m, out=m)
            if j:
                np.multiply(r, m, out=r)
        if parallel:
            np.subtract(1.0, r, out=r)
        out[:, start : start + step] = _band_from_matrix(r, level, method)
    return ReliabilityBand(grid, *out, level, method)
