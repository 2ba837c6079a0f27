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
    betas: np.ndarray, log_etas: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Per-draw survival curves of the draws ``betas`` and ``exp(log_etas)``,
    one row per time point.

    ``exp(-exp(beta * (log t - log eta)))`` is formed in place in the one
    matrix that the subtraction allocates.  A band takes each component's
    ``log_etas`` once, not once per block of rows.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_t = np.log(times)[:, None]
        # beta * log(t/eta); -inf at t = 0 exponentiates to survival 1
        m = np.subtract(log_t, log_etas)
        np.multiply(betas, m, out=m)
        np.exp(m, out=m)
        np.negative(m, out=m)
        return np.exp(m, out=m)


def _band_from_matrix(
    r: np.ndarray, level: float, method: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, lower and upper bound of each row of ``r``, which it sorts in place.

    The mean is taken first, over the unsorted rows; both bounds are then
    read from the sorted rows, so no copy of ``r`` is made.  The hpd bounds
    of a row are the shortest window holding ``ceil(level * n)`` of its
    ``n`` values, and at least one, the lowest one on ties, found one row at
    a time.  ``level * n`` is rounded to 9 decimals first, so that a product
    such as ``0.68 * 75 = 51.00000000000001`` does not add a value.  The
    quantile bounds at ``q = (1 - level) / 2`` and ``1 - q`` are numpy's default
    "linear" quantiles: the two order statistics around ``q * (n - 1)``,
    interpolated exactly as ``np.quantile`` does, so the bounds equal its
    result bit for bit.  Every statistic is per row, so the rows of a matrix
    may be reduced in any grouping with the same result.
    """
    # before the sort: the pairwise sum depends on the element order
    mean = r.mean(axis=1)
    r.sort(axis=1)
    n = r.shape[1]
    if method == "hpd":
        w = min(max(math.ceil(round(level * n, 9)), 1), n)
        # the window widths of one row at a time: at most n values alive
        i = np.array([np.argmin(row[w - 1 :] - row[: n - w + 1]) for row in r])
        rows = np.arange(r.shape[0])
        return mean, r[rows, i], r[rows, i + w - 1]
    half = (1.0 - level) / 2.0
    return mean, _sorted_quantile(r, half), _sorted_quantile(r, 1.0 - half)


def _sorted_quantile(r: np.ndarray, q: float) -> np.ndarray:
    """numpy's "linear" quantile ``q`` of each row of the row-sorted ``r``."""
    n = r.shape[1]
    v = (n - 1) * q
    # at v = n - 1 both neighbours are the last value, as numpy clips them
    lo = math.floor(v)
    hi = min(lo + 1, n - 1)
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
    one grid row, at a time: each component's block is folded into the
    block's product in place and dropped before the next one is built, and
    the product is reduced, sorted in place, before the next block.  So at
    most two blocks are alive at once, whatever the grid size.
    """
    sizes = {d.n for d in draws}
    if len(sizes) != 1:
        raise ValueError(f"components carry unequal draw counts {sorted(sizes)}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    parallel = kind != "series"
    curves = [(d.betas, np.log(d.etas)) for d in draws]
    out = np.empty((3, grid.n))
    step = max(1, _BLOCK_BYTES // (8 * sizes.pop()))
    for start in range(0, grid.n, step):
        block = slice(start, start + step)
        r = None
        for betas, log_etas in curves:
            m = _survival_matrix(betas, log_etas, grid.points[block])
            if parallel:
                np.subtract(1.0, m, out=m)
            r = m if r is None else np.multiply(r, m, out=r)
            del m
        if parallel:
            np.subtract(1.0, r, out=r)
        out[:, block] = _band_from_matrix(r, level, method)
    return ReliabilityBand(grid, *out, level, method)
