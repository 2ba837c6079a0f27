"""Distributions and special functions used throughout the package.

The module holds the parameter types (the Weibull shape/scale pair and the
mean/variance gamma of the priors), the log-gamma function, moment inversion
(mean and variance to native parameters) for the three lifetime families
used by the simulation laboratory, and the seeded samplers for those
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsolvableError

__all__ = [
    "ComponentParams",
    "MeanVarGamma",
    "GeneratorSpec",
    "log_gamma_fn",
    "weibull_from_moments",
    "gamma_from_moments",
    "lognormal_from_moments",
    "sample",
]

def log_gamma_fn(x: float) -> float:
    """Natural log of the gamma function for positive real ``x``.

    Parameters
    ----------
    x : float
        Strictly positive argument.

    Returns
    -------
    float
        ``ln(Gamma(x))`` from the C library's ``lgamma`` (``math.lgamma``),
        accurate to 2e-15 relative over ``x in [1e-3, 1e3]`` (measured
        against the function magnitude, or absolutely where ``ln(Gamma)``
        crosses zero).

    Raises
    ------
    ValueError
        If ``x`` is not finite or not strictly positive.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma_fn requires finite x > 0, got {x}")
    return math.lgamma(x)


def _freeze_arrays(obj, *names: str) -> None:
    """Make the named array fields of a frozen dataclass instance read-only.

    An array the caller can still write to is copied first, so a write
    through the caller's reference cannot bypass the instance's validation.
    """
    for name in names:
        a = getattr(obj, name)
        if a.flags.writeable:
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(obj, name, a)


class _ShapeScale(NamedTuple):
    beta: float
    eta: float


class ComponentParams(_ShapeScale):
    """Weibull shape/scale pair for one component.

    A validated ``(beta, eta)`` tuple: anything that accepts a plain pair,
    such as a posterior kernel, accepts it too.

    Parameters
    ----------
    beta : float
        Shape, > 0 (unitless).
    eta : float
        Scale, > 0 (time units).
    """

    __slots__ = ()

    def __new__(cls, beta: float, eta: float):
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"shape must be finite and > 0, got {beta}")
        if not (math.isfinite(eta) and eta > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {eta}")
        return super().__new__(cls, beta, eta)


@dataclass(frozen=True)
class MeanVarGamma:
    """Gamma distribution parametrized by its mean and variance.

    The implied shape is ``mean**2 / variance`` and the implied rate is
    ``mean / variance``; the variance doubles as a precision constant when
    held fixed.
    """

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"gamma mean must be finite and > 0, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(f"gamma variance must be finite and > 0, got {self.variance}")
        shape = self.mean * self.mean / self.variance
        if not (0.0 < shape < math.inf):
            raise ValueError(
                f"mean {self.mean} with variance {self.variance} implies an "
                f"unrepresentable gamma shape"
            )

    @property
    def shape(self) -> float:
        return self.mean * self.mean / self.variance

    @property
    def rate(self) -> float:
        return self.mean / self.variance

    @property
    def log_normalizer(self) -> float:
        """``shape * log(rate) - lnGamma(shape)``, the ``x``-free part of the log density."""
        a = self.shape
        return a * math.log(self.rate) - log_gamma_fn(a)


_SHAPE_LO = 1e-3
_SHAPE_HI = 1e3
_BISECT_TOL = 1e-12


def weibull_from_moments(mean: float, variance: float) -> ComponentParams:
    """Invert (mean, variance) to Weibull (shape, scale).

    The squared coefficient of variation ``G(1+2/b)/G(1+1/b)**2 - 1`` is
    strictly decreasing in the shape ``b``, so the shape solves a monotone
    scalar equation; it is bracketed on ``b in [1e-3, 1e3]`` and bisected on
    ``log b`` to 1e-12.  The scale then follows from the mean.

    Raises
    ------
    UnsolvableError
        If no root exists inside the shape bracket.
    ValueError
        If ``mean`` or ``variance`` is not strictly positive.
    """
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValueError(f"mean must be finite and > 0, got {mean}")
    if not (variance > 0.0 and math.isfinite(variance)):
        raise ValueError(f"variance must be finite and > 0, got {variance}")

    target = math.log1p(variance / (mean * mean))

    def excess(log_b: float) -> float:
        b = math.exp(log_b)
        return log_gamma_fn(1.0 + 2.0 / b) - 2.0 * log_gamma_fn(1.0 + 1.0 / b) - target

    lo, hi = math.log(_SHAPE_LO), math.log(_SHAPE_HI)
    f_lo, f_hi = excess(lo), excess(hi)
    if not (f_lo > 0.0 > f_hi):
        raise UnsolvableError(
            f"no Weibull shape in [{_SHAPE_LO}, {_SHAPE_HI}] matches "
            f"mean={mean}, variance={variance}"
        )
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = math.exp(0.5 * (lo + hi))
    eta = math.exp(math.log(mean) - log_gamma_fn(1.0 + 1.0 / beta))
    return ComponentParams(beta, eta)


def gamma_from_moments(mean: float, variance: float) -> tuple[float, float]:
    """Closed-form gamma (shape, scale) from mean and variance."""
    if not (mean > 0.0 and variance > 0.0):
        raise ValueError(f"moments must be > 0, got mean={mean}, variance={variance}")
    return mean * mean / variance, variance / mean


def lognormal_from_moments(mean: float, variance: float) -> tuple[float, float]:
    """Closed-form log-normal (mu, sigma) from mean and variance."""
    if not (mean > 0.0 and variance > 0.0):
        raise ValueError(f"moments must be > 0, got mean={mean}, variance={variance}")
    sigma_sq = math.log1p(variance / (mean * mean))
    mu = math.log(mean) - 0.5 * sigma_sq
    return mu, math.sqrt(sigma_sq)


_FAMILIES = ("weibull", "gamma", "lognormal")


@dataclass(frozen=True)
class GeneratorSpec:
    """A lifetime-generating distribution given by family, mean and variance."""

    family: str
    mean: float
    variance: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"generator mean must be finite and > 0, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(
                f"generator variance must be finite and > 0, got {self.variance}"
            )


def sample(spec: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` lifetimes from ``spec``, deterministically for a given stream.

    Moment inversion failures (only possible for the Weibull family)
    propagate as :class:`UnsolvableError`.  A draw that is not finite and
    > 0, such as a gamma of very large variance underflowing to 0, raises
    :class:`NumericalError` naming the generator.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if spec.family == "weibull":
        p = weibull_from_moments(spec.mean, spec.variance)
        x = p.eta * rng.weibull(p.beta, n)
    elif spec.family == "gamma":
        shape, scale = gamma_from_moments(spec.mean, spec.variance)
        x = rng.gamma(shape, scale, n)
    else:
        mu, sigma = lognormal_from_moments(spec.mean, spec.variance)
        x = rng.lognormal(mu, sigma, n)
    bad = ~(np.isfinite(x) & (x > 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise NumericalError(
            f"{spec.family} generator with mean {spec.mean:g} and variance "
            f"{spec.variance:g} drew lifetime {x[i]} at draw {i}; lifetimes "
            f"must be finite and > 0"
        )
    return x
