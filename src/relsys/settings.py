"""Settings and defaults: the one home of every value the command line parser reads.

The chain-length and fit settings with their defaults, the system kinds,
the censoring sides, the band methods and levels, the grid size and the
study's replicate count all live here.  The module imports no numeric
code, so ``relsys --help``, each command's help and every usage error are
parsed before numpy loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["McmcConfig", "FitConfig", "GRID_REPLICATES"]

_KINDS = ("series", "parallel")
_SIDES = ("right", "left")
# the band rules, the first one the default, and the default credible level
_METHODS = ("hpd", "quantile")
_LEVEL = 0.95
# time points of a default grid
_GRID_POINTS = 200
# replicates per cell of a study grid
GRID_REPLICATES = 100


@dataclass(frozen=True)
class McmcConfig:
    """Chain-length settings.

    ``n_p`` draws are collected after ``burn_in`` adaptation steps, keeping
    every ``thin``-th state.
    """

    n_p: int = 1000
    burn_in: int = 10_000
    thin: int = 10

    def __post_init__(self):
        # a posterior standard deviation (ddof=1) needs two draws
        if self.n_p < 2:
            raise ValueError(f"n_p must be >= 2, got {self.n_p}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")


@dataclass(frozen=True)
class FitConfig:
    """Settings for one component fit, and the home of their defaults.

    ``prior_variance`` is the fixed variance of both gamma priors.
    ``final_mcmc`` configures the single long chain run at the converged
    prior means; each EM chain runs with its settings at a tenth of its
    burn-in.  Where each chain starts, and its first proposal scale, follow
    from the fit itself.
    """

    prior_variance: float = 4.0
    tol: float = 1e-3
    max_iter: int = 200
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
