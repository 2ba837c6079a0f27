"""Adaptive random-walk Metropolis sampling of component posteriors.

The chain walks in (log shape, log scale) with an isotropic Gaussian
proposal, so the acceptance ratio carries the change-of-variables term
``(u' - u) + (w' - w)`` on top of the kernel difference.  The proposal
scale adapts during burn-in only, by a stochastic-approximation update
that steers the realized acceptance probability toward a target; after
burn-in the scale is frozen so the collected draws come from a fixed
kernel.  Draw collection consumes one proposal per step regardless of
thinning, which makes a thinned chain an exact subsequence of the
corresponding unthinned one.

The kernel is called with a bare ``(beta, eta)`` tuple of floats.  A
proposal reaches it only inside ``|log beta|, |log eta| < 300``, so both
values are finite and > 0; that range guard is the validity check, and
proposals outside it are rejected without a kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dists import ComponentParams, _freeze_arrays
from .errors import NumericalError
from .settings import FitConfig

__all__ = ["PosteriorDraws", "run_chain"]

# proposals beyond this log-magnitude are rejected outright; exp() is safe
# inside and any proper posterior is vanishing there anyway
_LOG_RANGE = 300.0
# burn-in steers the acceptance probability toward this value
_ADAPT_TARGET = 0.30


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Thinned posterior draws plus chain diagnostics.

    ``betas`` and ``etas`` are equal-length float arrays, draw ``l`` being
    the pair ``(betas[l], etas[l])``.  ``acceptance_rate`` is the accepted
    fraction over the collection phase, ``step_final`` the frozen proposal
    scale, and the lag-1 autocorrelations are computed on the thinned
    series.  The arrays are stored read-only, copied if the caller's are
    writeable.  Instances compare by identity; compare the arrays instead.
    """

    betas: np.ndarray
    etas: np.ndarray
    acceptance_rate: float
    step_final: float
    lag1_beta: float
    lag1_eta: float
    warnings: tuple[str, ...]

    def __post_init__(self):
        _freeze_arrays(self, "betas", "etas")
        if self.betas.shape != self.etas.shape or self.betas.ndim != 1 or not self.betas.size:
            raise ValueError(
                f"draws need two 1-D arrays of one length >= 1, got shapes "
                f"{self.betas.shape} and {self.etas.shape}"
            )

    @property
    def n(self) -> int:
        return self.betas.size


def run_chain(
    log_kernel: Callable[[tuple[float, float]], float],
    cfg: FitConfig,
    rng: np.random.Generator,
    init: tuple[float, float] = (1.0, 1.0),
    step: float = 0.5,
) -> PosteriorDraws:
    """Sample ``cfg.n_p`` thinned draws from the posterior kernel.

    Parameters
    ----------
    log_kernel : callable
        Unnormalized log posterior density of a ``(beta, eta)`` tuple;
        ``-inf`` marks zero density, NaN raises inside the kernel.  It is
        called with ``init`` first and then with plain float tuples
        whose log-magnitudes are below 300, so both entries are finite and
        > 0 and the kernel need not check them.
    cfg : FitConfig
        Its ``n_p``, ``burn_in`` and ``thin`` set the chain's length; the
        other settings are not read here.
    rng : numpy.random.Generator
        Source of proposal noise; the chain is a pure function of it.
    init : (float, float)
        The ``(beta, eta)`` state the chain starts from.
    step : float
        Initial proposal scale in log space; during burn-in it is steered
        toward an acceptance probability of 0.3 and then frozen.

    Raises
    ------
    NumericalError
        If the kernel has zero density at the initial point.
    ValueError
        If ``init`` is not a finite positive pair or ``step`` is not
        finite and > 0.
    """
    beta0, eta0 = init = ComponentParams(*init)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    u = math.log(beta0)
    w = math.log(eta0)
    lk = log_kernel(init)
    if not math.isfinite(lk):
        raise NumericalError(
            f"posterior kernel is {lk} at the initial point "
            f"beta={beta0}, eta={eta0}"
        )

    burn_in, thin, target = cfg.burn_in, cfg.thin, _ADAPT_TARGET
    total = burn_in + cfg.n_p * thin
    normals = rng.standard_normal((total, 2))
    # the same values as Python floats, which the scalar arithmetic below
    # handles several times faster than numpy scalars
    du = normals[:, 0].tolist()
    dw = normals[:, 1].tolist()
    unifs = rng.random(total).tolist()

    exp = math.exp
    lim = _LOG_RANGE
    log_step = math.log(step)
    betas: list[float] = []
    etas: list[float] = []
    accepted = 0

    for i in range(total):
        u2 = u + step * du[i]
        w2 = w + step * dw[i]
        if -lim < u2 < lim and -lim < w2 < lim:
            lk2 = log_kernel((exp(u2), exp(w2)))
            log_ratio = lk2 - lk + (u2 - u) + (w2 - w)
            accept_prob = 1.0 if log_ratio >= 0.0 else exp(log_ratio)
        else:
            lk2 = -math.inf
            accept_prob = 0.0
        moved = unifs[i] < accept_prob
        if moved:
            u, w, lk = u2, w2, lk2
        if i < burn_in:
            log_step += (accept_prob - target) / (i + 1) ** 0.6
            step = exp(log_step)
        else:
            accepted += moved
            if (i - burn_in + 1) % thin == 0:
                betas.append(exp(u))
                etas.append(exp(w))

    acceptance = accepted / (cfg.n_p * thin)
    warnings = []
    if not 0.05 <= acceptance <= 0.95:
        warnings.append(
            f"acceptance rate {acceptance:.3f} outside [0.05, 0.95] after burn-in"
        )
    beta_arr = np.array(betas)
    eta_arr = np.array(etas)
    return PosteriorDraws(
        betas=beta_arr,
        etas=eta_arr,
        acceptance_rate=acceptance,
        step_final=step,
        lag1_beta=_lag1(beta_arr),
        lag1_eta=_lag1(eta_arr),
        warnings=tuple(warnings),
    )


def _lag1(x: np.ndarray) -> float:
    c = x - x.mean()
    denom = float(c @ c)
    if denom == 0.0:
        return 0.0
    return float(c[:-1] @ c[1:]) / denom
