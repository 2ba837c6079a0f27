"""System lifetime observations and their component-level likelihoods.

A series system fails when its first component fails, so a system failure
at time ``t`` caused by component ``j`` is an exact lifetime for ``j`` and a
right censoring at ``t`` for every other component: each survived past
``t``.  A parallel system fails at the last component failure, so the same
record is exact for ``j`` and a left censoring for the others: each had
already failed by ``t``.  Masked system data therefore decomposes into one
single-component censored sample per component, and every likelihood in
the package is a sum of exact, survived-past and failed-before terms.

Samples hold arrays, validated once when built: a system sample its
failure times and causes, a component sample its record times and
censoring flags.  The decomposition shares the system's time array
across all components and differs only in the flags.

Each sample binds its likelihood once, from log-time arrays and sums that
do not depend on the parameters, so that repeated calls at new parameters
(the Metropolis inner loop) cost one in-place exponential pass, two when a
sample mixes exact records and left censorings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dists import _EXP_MAX, ComponentParams, MeanVarGamma, _freeze_arrays, log1mexp_unchecked
from .errors import NumericalError

__all__ = [
    "SystemSample",
    "ComponentSample",
    "decompose",
    "component_loglik",
    "system_loglik",
    "make_log_kernel",
]

_KINDS = ("series", "parallel")
_SIDES = ("right", "left")


def _check_times(times: np.ndarray, n: int) -> None:
    if times.shape != (n,):
        raise ValueError(f"times must be a 1-D array of {n} records, got shape {times.shape}")
    bad = ~(np.isfinite(times) & (times > 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"time {i} must be finite and > 0, got {times[i]}")


@dataclass(frozen=True, eq=False)
class SystemSample:
    """Masked failure data for one system of ``k`` components.

    ``times`` is a float array of system failure times and ``causes`` an
    int array of the same length naming the failing component, 1..k.
    Both arrays are stored read-only, copied if the caller's are writeable.
    Instances compare by identity; compare the arrays instead.
    """

    kind: str
    k: int
    times: np.ndarray
    causes: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, "times", "causes")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"component count must be >= 1, got {self.k}")
        if self.causes.ndim != 1 or self.causes.size == 0:
            raise ValueError("system sample must contain at least one observation")
        if not np.issubdtype(self.causes.dtype, np.integer):
            raise ValueError(f"causes must be an int array, got {self.causes.dtype}")
        _check_times(self.times, self.causes.size)
        bad = (self.causes < 1) | (self.causes > self.k)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"observation {i} names cause {self.causes[i]} outside 1..{self.k}"
            )

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True, eq=False)
class ComponentSample:
    """Censored lifetime sample for a single component.

    ``times`` is a float array of record times and ``censored`` a bool
    array of the same length, true where the record is censored.  ``side``
    fixes how censored records are read: ``"right"`` means the lifetime
    exceeded the recorded time, ``"left"`` means it had already ended by
    then.  All censored records in one sample share the side.  Both
    arrays are stored read-only, copied if the caller's are writeable.
    Instances compare by identity; compare the arrays instead.
    """

    side: str
    times: np.ndarray
    censored: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, "times", "censored")
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.censored.ndim != 1 or self.censored.size == 0:
            raise ValueError("component sample must contain at least one record")
        if self.censored.dtype != bool:
            raise ValueError(f"censored must be a bool array, got {self.censored.dtype}")
        _check_times(self.times, self.censored.size)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def n_exact(self) -> int:
        return self.n - int(np.count_nonzero(self.censored))

    @cached_property
    def _loglik(self) -> Callable[[float, float, float], float]:
        return _bind_loglik(self)


def decompose(s: SystemSample) -> tuple[ComponentSample, ...]:
    """Split masked system data into one censored sample per component.

    Series systems censor the non-failing components on the right,
    parallel systems on the left.  Every returned sample shares the
    system's ``times`` and is exact exactly where that component was the
    cause.
    """
    side = "right" if s.kind == "series" else "left"
    return tuple(ComponentSample(side, s.times, s.causes != j) for j in range(1, s.k + 1))


# below this exponent a left censoring's exp(-(t/eta)**beta) rounds to 1
# and log1mexp's unused branch divides by 0
_FAIL_FLOOR = -30.0


def _extent(a: np.ndarray) -> tuple[float, float]:
    return (float(a.min()), float(a.max())) if a.size else (math.inf, -math.inf)


def _bind_loglik(c: ComponentSample) -> Callable[[float, float, float], float]:
    """The log-likelihood of ``c`` as a function of ``(beta, log beta, log eta)``.

    Exact records and right censorings both contribute ``-(t/eta)**beta``,
    so they share one log-time array and one exponential pass; exact
    records add ``log(beta/eta) + (beta-1)*log(t/eta)``, which needs only
    their count and the sum of their log-times.  Left censorings add
    ``log(1 - exp(-(t/eta)**beta))`` over an array of their own.

    Powers are exp() of a log product, so extreme parameters saturate to
    -inf rather than overflowing; -inf is a legal value (zero likelihood),
    NaN is not and is diagnosed by the callers.  Floating-point warnings
    are silenced only when the exponent range of the call can raise them.
    """
    exact = np.log(c.times[~c.censored])
    cens = np.log(c.times[c.censored])
    n_exact = exact.size
    sum_log_exact = float(exact.sum())
    if c.side == "right":
        log_pow, log_fail = np.concatenate([exact, cens]), cens[:0]
    else:
        log_pow, log_fail = exact, cens
    n_pow, n_fail = log_pow.size, log_fail.size
    pow_lo, pow_hi = _extent(log_pow)
    fail_lo, fail_hi = _extent(log_fail)
    # below this exponent the sum of the powers stays finite too
    pow_ceiling = _EXP_MAX - math.log(max(n_pow, 1))
    # (t/eta)**beta is formed in place in these buffers, reused by every
    # call, so the bound likelihood must not run in two threads at once;
    # the out arguments are positional, which numpy parses faster
    pow_buf = np.empty_like(log_pow)
    fail_buf = np.empty_like(log_fail)
    subtract, multiply, exp, add_reduce = np.subtract, np.multiply, np.exp, np.add.reduce

    def survival_terms(beta: float, log_eta: float) -> float:
        total = 0.0
        if n_pow:
            subtract(log_pow, log_eta, pow_buf)
            multiply(beta, pow_buf, pow_buf)
            exp(pow_buf, pow_buf)
            total -= float(add_reduce(pow_buf))
        if n_fail:
            subtract(log_fail, log_eta, fail_buf)
            multiply(beta, fail_buf, fail_buf)
            exp(fail_buf, fail_buf)
            total += float(add_reduce(log1mexp_unchecked(fail_buf)))
        return total

    def loglik(beta: float, log_beta: float, log_eta: float) -> float:
        total = n_exact * (log_beta - log_eta) + (beta - 1.0) * (
            sum_log_exact - n_exact * log_eta
        )
        if (
            beta * (pow_hi - log_eta) < pow_ceiling
            and beta * (pow_lo - log_eta) > -math.inf
            and beta * (fail_hi - log_eta) < _EXP_MAX
            and beta * (fail_lo - log_eta) > _FAIL_FLOOR
        ):
            return total + survival_terms(beta, log_eta)
        with np.errstate(over="ignore", divide="ignore"):
            return total + survival_terms(beta, log_eta)

    return loglik


def _diagnose_nan(c: ComponentSample, p: tuple[float, float]) -> str:
    beta, eta = p
    log_beta, log_eta = math.log(beta), math.log(eta)
    for i in range(c.n):
        one = ComponentSample(c.side, c.times[i : i + 1], c.censored[i : i + 1])
        if math.isnan(one._loglik(beta, log_beta, log_eta)):
            return (
                f"log-likelihood is NaN at record {i} (time={float(c.times[i])}, "
                f"censored={bool(c.censored[i])}) for beta={beta}, eta={eta}"
            )
    return f"log-likelihood is NaN for beta={beta}, eta={eta}"


def component_loglik(c: ComponentSample, p: ComponentParams) -> float:
    """Log-likelihood of one component's censored sample.

    Exact records contribute the Weibull log density, right censorings the
    log survival ``-(t/eta)**beta`` and left censorings the log failure
    probability ``log(1 - exp(-(t/eta)**beta))``.  Returns ``-inf`` when
    the sample has zero likelihood under ``p``; raises only if the value
    is NaN, naming the offending record.
    """
    total = c._loglik(p.beta, math.log(p.beta), math.log(p.eta))
    if math.isnan(total):
        raise NumericalError(_diagnose_nan(c, p))
    return total


def system_loglik(s: SystemSample, params: Sequence[ComponentParams]) -> float:
    """Sum of component log-likelihoods over the decomposition of ``s``."""
    if len(params) != s.k:
        raise ValueError(f"expected {s.k} parameter pairs, got {len(params)}")
    return sum(component_loglik(c, p) for c, p in zip(decompose(s), params))


def make_log_kernel(
    c: ComponentSample, priors: tuple[MeanVarGamma, MeanVarGamma]
) -> Callable[[tuple[float, float]], float]:
    """Bind sample and priors into a fast posterior-kernel callable.

    The kernel is the unnormalized log posterior: the likelihood plus the
    log densities of ``priors``, the (shape prior, scale prior) pair.  It
    takes a ``(beta, eta)`` pair, a :class:`ComponentParams` or a plain
    tuple of floats, and does not validate it: the caller supplies finite
    values > 0 (``run_chain`` guarantees this by its range guard).
    The gamma normalizers are constant while the priors are, so a call
    evaluates the likelihood plus ``(a-1)*log(x) - b*x`` for each prior,
    sharing ``log(beta)`` and ``log(eta)`` with the likelihood.  A NaN
    likelihood raises :class:`NumericalError` naming the record.
    """
    loglik = c._loglik
    prior_beta, prior_eta = priors
    const = prior_beta.log_normalizer + prior_eta.log_normalizer
    a1_beta, b_beta = prior_beta.shape - 1.0, prior_beta.rate
    a1_eta, b_eta = prior_eta.shape - 1.0, prior_eta.rate
    log, isnan = math.log, math.isnan

    def kernel(p: tuple[float, float]) -> float:
        beta, eta = p
        log_beta, log_eta = log(beta), log(eta)
        total = loglik(beta, log_beta, log_eta)
        if isnan(total):
            raise NumericalError(_diagnose_nan(c, p))
        return (
            total
            + const
            + a1_beta * log_beta
            - b_beta * beta
            + a1_eta * log_eta
            - b_eta * eta
        )

    return kernel
