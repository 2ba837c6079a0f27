"""Settings and defaults: the one home of every value the command line parser reads.

The six settings of a fit, each declared once as a ``FitConfig`` field
with its default, flag, least value and help, the system kinds, the
censoring sides, the band methods and levels, the grid size and the
study's replicate count all live here, with ``_within``, the bound test of
``FitConfig`` and the flags.  The module imports no numeric code, so help
and every usage error, a flag's bound too, are parsed before numpy loads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

__all__ = ["FitConfig", "GRID_REPLICATES"]

_KINDS = ("series", "parallel")
_SIDES = ("right", "left")
# the band rules, the first one the default, and the default credible level
_METHODS = ("hpd", "quantile")
_LEVEL = 0.95
# time points of a default grid
_GRID_POINTS = 200
# replicates per cell of a study grid
GRID_REPLICATES = 100
# a mean-lifetime estimate this many times off its reference is absurd:
# a study replicate's true mean, or a fit's largest sample time
_ABSURD_FACTOR = 1e3
# the most steps a chain may take: numpy addresses no larger block of its
# noise, one (step, 2) array of float64 normals
_MAX_STEPS = sys.maxsize // 16


def _within(value, least=None) -> bool:
    """``value >= least``, else ``0 < value < inf``: no int becomes a float; NaN fails."""
    return 0 < value < math.inf if least is None else value >= least


def _setting(default, flag: str, least, help: str):
    """A :class:`FitConfig` field: its default, the command line flag that
    sets it (and keys it in a manifest and a ``--config`` file), its least
    value (None: finite and > 0) and the flag's help."""
    return field(default=default, metadata={"flag": flag, "least": least, "help": help})


@dataclass(frozen=True)
class FitConfig:
    """Settings for one component fit, and the one declaration of each.

    ``prior_variance`` is the fixed variance of both gamma priors; EM stops
    when both prior means move less than ``tol``, or after ``max_iter``
    iterations.  The single long chain run at the converged prior means
    collects ``n_p`` draws after ``burn_in`` adaptation steps, keeping every
    ``thin``-th state; each EM chain runs the same way at a tenth of the
    burn-in.  Where each chain starts, and its first proposal scale, follow
    from the fit itself.
    """

    # in the order --help lists the flags
    prior_variance: float = _setting(4.0, "v", None, "prior variance (default %(default)g)")
    # a posterior standard deviation (ddof=1) needs two draws
    n_p: int = _setting(
        1000, "np", 2, "posterior draws kept per chain, at least 2 (default %(default)s)"
    )
    burn_in: int = _setting(
        10_000, "burnin", 0, "final-chain burn-in; EM chains use a tenth (default %(default)s)"
    )
    thin: int = _setting(10, "thin", 1, "keep every thin-th state (default %(default)s)")
    tol: float = _setting(
        1e-3, "tol", None, "stop when both prior means move less than this (default %(default)g)"
    )
    max_iter: int = _setting(200, "max-iter", 1, "cap on EM iterations (default %(default)s)")

    def __post_init__(self):
        for f in fields(self):
            value, least = getattr(self, f.name), f.metadata["least"]
            if not _within(value, least):
                bound = "finite and > 0" if least is None else f">= {least}"
                raise ValueError(f"{f.name} must be {bound}, got {value}")
        steps = self.burn_in + self.n_p * self.thin
        if steps > _MAX_STEPS:
            raise ValueError(
                f"the chain's steps, burn_in + n_p * thin (--burnin + --np * --thin), "
                f"must be <= {_MAX_STEPS}, got {steps}"
            )
