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

Each sample binds its likelihood once, from one log-time array and sums
that do not depend on the parameters, so that repeated calls at new
parameters (the Metropolis inner loop) cost one in-place exponential pass
over one buffer, plus an in-place ``log(-expm1(-x))`` over its left
censorings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dists import MeanVarGamma, _freeze_arrays
from .errors import NumericalError
from .settings import _KINDS, _SIDES

__all__ = [
    "SystemSample",
    "ComponentSample",
    "decompose",
    "make_log_kernel",
]


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


# exp() overflows just above this; exp(-_EXP_MAX) > 0, so no left term is log(0)
_EXP_MAX = 709.0


def _bind_loglik(c: ComponentSample) -> Callable[[float, float, float], float]:
    """The log-likelihood of ``c`` as a function of ``(beta, log beta, log eta)``.

    Every record forms ``x = (t/eta)**beta`` in one pass over one log-time
    array.  Exact records and right censorings come first and contribute
    ``-x``; exact records also add ``log(beta/eta) + (beta-1)*log(t/eta)``,
    which needs only their count and the sum of their log-times.  Left
    censorings come last and contribute ``log(1 - exp(-x))``, formed in
    place as ``log(-expm1(-x))``.  That form is accurate in the absolute
    sense, to about 1e-16 per term, which is all a sum of terms needs; its
    relative error grows above ``x = ln 2``, where the term nears 0.

    Powers are exp() of a log product, so extreme parameters saturate to
    -inf rather than overflowing; -inf is a legal value (zero likelihood),
    NaN is not and is diagnosed by :func:`make_log_kernel`.  Floating-point
    warnings are silenced only when the exponent range of the call can
    raise them.
    """
    exact = np.log(c.times[~c.censored])
    log_t = np.concatenate([exact, np.log(c.times[c.censored])])
    n_exact = exact.size
    sum_log_exact = float(exact.sum())
    n_pow = n_exact if c.side == "left" else log_t.size
    lo, hi = float(log_t.min()), float(log_t.max())
    # below this exponent the sum of the powers stays finite too
    ceiling = _EXP_MAX - math.log(log_t.size)
    # (t/eta)**beta is formed in place in this buffer, reused by every call,
    # so the bound likelihood must not run in two threads at once; the out
    # arguments are positional, which numpy parses faster
    buf = np.empty_like(log_t)
    powers, fails = buf[:n_pow], buf[n_pow:]
    subtract, multiply, exp, add_reduce = np.subtract, np.multiply, np.exp, np.add.reduce
    negative, expm1, log = np.negative, np.expm1, np.log

    def survival_terms(beta: float, log_eta: float) -> float:
        subtract(log_t, log_eta, buf)
        multiply(beta, buf, buf)
        exp(buf, buf)
        total = -float(add_reduce(powers))
        if fails.size:
            negative(fails, fails)
            expm1(fails, fails)
            negative(fails, fails)
            log(fails, fails)
            total += float(add_reduce(fails))
        return total

    def loglik(beta: float, log_beta: float, log_eta: float) -> float:
        total = n_exact * (log_beta - log_eta) + (beta - 1.0) * (
            sum_log_exact - n_exact * log_eta
        )
        if beta * (hi - log_eta) < ceiling and beta * (lo - log_eta) > -_EXP_MAX:
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
