"""Tests for distributions, special functions and moment inversion.

Reference values were frozen from high-precision quadrature (mpmath at 40
digits) or closed forms; scipy and mpmath appear as independent
cross-checks.  The Weibull survival and log density are checked where the
package computes them, in the band code's survival matrix and in the bound
likelihood of one exact record.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

from oracles import gamma_logpdf
from relsys.curves import _survival_matrix, mean_time_posterior
from relsys.dists import (
    ComponentParams,
    GeneratorSpec,
    MeanVarGamma,
    gamma_from_moments,
    log_gamma_fn,
    lognormal_from_moments,
    sample,
    weibull_from_moments,
)
from relsys.errors import NumericalError, UnsolvableError
from relsys.sampler import PosteriorDraws
from relsys.sysmodel import ComponentSample


def draws_of(beta, eta, copies=1):
    return PosteriorDraws(
        np.full(copies, beta), np.full(copies, eta), 0.3, 0.2, 0.0, 0.0, ()
    )


def survival(p, times):
    """Survival at each time through the band code's survival path."""
    d = draws_of(p.beta, p.eta)
    return _survival_matrix(d.betas, np.log(d.etas), np.array(times, dtype=float))[:, 0]


def log_density(p, t):
    """Weibull log density at ``t`` as the bound likelihood of one exact record."""
    c = ComponentSample("right", np.array([t]), np.array([False]))
    return c._loglik(p.beta, math.log(p.beta), math.log(p.eta))


def weibull_moments(p):
    """Weibull mean and variance from mpmath's gamma function at 40 digits."""
    with mpmath.workdps(40):
        b, e = mpmath.mpf(p.beta), mpmath.mpf(p.eta)
        g1, g2 = mpmath.gamma(1 + 1 / b), mpmath.gamma(1 + 2 / b)
        return float(e * g1), float(e * e * (g2 - g1 * g1))


class TestLogGammaFn:
    def test_known_values(self):
        assert log_gamma_fn(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_fn(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_fn(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma_fn(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_recurrence(self):
        # ln G(x+1) = ln G(x) + ln x
        for x in (0.2, 0.9, 3.7, 41.0, 600.0):
            assert log_gamma_fn(x + 1.0) == pytest.approx(
                log_gamma_fn(x) + math.log(x), rel=1e-13, abs=1e-13
            )

    def test_against_scipy_sweep(self):
        xs = np.concatenate(
            [np.logspace(-3, 3, 4001), np.linspace(0.5, 3.5, 2001)]
        )
        ref = scipy.special.gammaln(xs)
        for x, r in zip(xs, ref):
            err = abs(log_gamma_fn(float(x)) - r)
            assert err <= 1e-12 * max(1.0, abs(r))

    def test_rejects_bad_arguments(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="log_gamma_fn"):
                log_gamma_fn(x)


class TestWeibull:
    def test_reliability_frozen_values(self):
        r = survival(ComponentParams(1.7, 3.2), [1.0, 6.4])
        assert r[0] == pytest.approx(0.87072008718404276, rel=1e-12)
        assert r[1] == pytest.approx(0.038812629395792688, rel=1e-12)

    def test_reliability_at_zero_is_one(self):
        assert survival(ComponentParams(0.3, 5.0), [0.0])[0] == 1.0

    def test_logpdf_frozen_values(self):
        p = ComponentParams(1.7, 3.2)
        assert log_density(p, 0.4) == pytest.approx(-2.1172889189049208, rel=1e-12)
        assert log_density(p, 3.2) == pytest.approx(-1.6325225587435105, rel=1e-12)
        assert log_density(p, 11.0) == pytest.approx(-7.9267443365484689, rel=1e-12)

    def test_logpdf_exponential_special_case(self):
        p = ComponentParams(1.0, 2.0)
        for t in (0.1, 1.0, 10.0):
            assert log_density(p, t) == pytest.approx(math.log(0.5) - 0.5 * t, rel=1e-13)

    def test_logpdf_extreme_times_saturate(self):
        p = ComponentParams(4.0, 1.0)
        assert log_density(p, 1e80) == -math.inf
        assert math.isfinite(log_density(p, 1e-80))

    def test_reliability_underflows_to_zero(self):
        assert survival(ComponentParams(4.0, 1.0), [1e80])[0] == 0.0

    def test_mean_frozen_quadrature_values(self):
        # mpmath quad of the survival function, 40 digits; two equal draws
        # give the closed-form mean of their one (beta, eta)
        for (beta, eta), mean in [
            ((2.0, 1.0), 0.88622692545275801),
            ((0.5, 1.0), 2.0),
            ((1.5, 2.5), 2.256863232377334),
        ]:
            assert mean_time_posterior(draws_of(beta, eta, 2))[0] == pytest.approx(
                mean, rel=1e-8
            )

    def test_variance_frozen_quadrature_values(self):
        # the frozen (mean, variance) pairs invert to the shapes they came from
        for (beta, eta), mean, var in [
            ((2.0, 1.0), 0.88622692545275801, 0.21460183660255169),
            ((1.5, 2.5), 2.256863232377334, 2.348064280087075),
        ]:
            p = weibull_from_moments(mean, var)
            assert p.beta == pytest.approx(beta, rel=1e-8)
            assert p.eta == pytest.approx(eta, rel=1e-8)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="shape"):
            ComponentParams(0.0, 1.0)
        with pytest.raises(ValueError, match="scale"):
            ComponentParams(1.0, -2.0)
        with pytest.raises(ValueError):
            ComponentParams(math.nan, 1.0)


class TestGammaMv:
    def test_frozen_values(self):
        # the test-side density the other modules' tests use for the priors;
        # mean 2, variance 4 is the unit-shape case: logpdf(x) = log(1/2) - x/2
        assert gamma_logpdf(3.0, 2.0, 4.0) == pytest.approx(-2.1931471805599453, rel=1e-13)
        assert gamma_logpdf(2.4, 3.0, 1.2) == pytest.approx(-0.97163695490222038, rel=1e-13)

    def test_shape_rate_mapping(self):
        g = MeanVarGamma(3.0, 1.2)
        assert g.shape == pytest.approx(7.5)
        assert g.rate == pytest.approx(2.5)
        assert g.shape / g.rate == pytest.approx(g.mean)
        assert g.shape / g.rate**2 == pytest.approx(g.variance)

    def test_matches_scipy(self):
        # the log density as the posterior kernel assembles it from the
        # hoisted normalizer
        g = MeanVarGamma(1.31, 4.0)
        for x in (0.05, 0.7, 2.0, 9.0):
            ref = scipy.stats.gamma.logpdf(x, g.shape, scale=1.0 / g.rate)
            got = g.log_normalizer + (g.shape - 1.0) * math.log(x) - g.rate * x
            assert got == pytest.approx(ref, rel=1e-12)
            assert gamma_logpdf(x, g.mean, g.variance) == pytest.approx(ref, rel=1e-12)

    def test_sampled_moments_match_parametrization(self):
        g = MeanVarGamma(2.0, 4.0)
        rng = np.random.default_rng(20240817)
        draws = rng.gamma(g.shape, 1.0 / g.rate, 100_000)
        assert draws.mean() == pytest.approx(g.mean, rel=0.02)
        assert draws.var() == pytest.approx(g.variance, rel=0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mean"):
            MeanVarGamma(0.0, 4.0)
        with pytest.raises(ValueError, match="variance"):
            MeanVarGamma(2.0, 0.0)


class TestMomentInversion:
    def test_unit_cv_is_exponential(self):
        p = weibull_from_moments(2.0, 4.0)
        assert p.beta == pytest.approx(1.0, abs=1e-9)
        assert p.eta == pytest.approx(2.0, abs=1e-9)

    def test_round_trip(self):
        for mean, var in [(2.0, 0.667), (7.0, 5.0), (2.0, 5.0), (0.3, 0.01), (50.0, 2.0)]:
            got_mean, got_var = weibull_moments(weibull_from_moments(mean, var))
            assert got_mean == pytest.approx(mean, rel=1e-9)
            assert got_var == pytest.approx(var, rel=1e-9)

    def test_shape_monotone_in_cv(self):
        shapes = [weibull_from_moments(2.0, v).beta for v in (0.1, 0.5, 2.0, 8.0, 40.0)]
        assert shapes == sorted(shapes, reverse=True)

    def test_unbracketed_shapes_rejected(self):
        # CV below what the upper shape bound reaches, then a tail so heavy
        # the CV ratio overflows past the lower bound
        with pytest.raises(UnsolvableError, match="shape"):
            weibull_from_moments(1.0, 1e-12)
        with pytest.raises(UnsolvableError, match="shape"):
            weibull_from_moments(1e-150, 1e100)

    def test_heavy_tail_still_bracketed(self):
        # the lower shape bound covers every CV a float can actually express
        p = weibull_from_moments(1.0, 1e12)
        assert 1e-3 < p.beta < 0.1
        assert weibull_moments(p)[1] == pytest.approx(1e12, rel=1e-9)

    def test_gamma_closed_form(self):
        shape, scale = gamma_from_moments(2.0, 0.667)
        assert shape * scale == pytest.approx(2.0, rel=1e-13)
        assert shape * scale**2 == pytest.approx(0.667, rel=1e-13)

    def test_lognormal_closed_form(self):
        mu, sigma = lognormal_from_moments(2.014, 6.968)
        assert mu == pytest.approx(0.20019934184090488, rel=1e-12)
        assert sigma == pytest.approx(0.9999234495254781, rel=1e-12)
        # moments recovered from the native parameters
        assert math.exp(mu + 0.5 * sigma**2) == pytest.approx(2.014, rel=1e-12)
        var = (math.exp(sigma**2) - 1.0) * math.exp(2.0 * mu + sigma**2)
        assert var == pytest.approx(6.968, rel=1e-12)

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError):
            weibull_from_moments(-1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_from_moments(1.0, 0.0)
        with pytest.raises(ValueError):
            lognormal_from_moments(0.0, 1.0)


class TestGeneratorSampling:
    @pytest.mark.parametrize("family", ["weibull", "gamma", "lognormal"])
    def test_sample_moments(self, family):
        spec = GeneratorSpec(family, 2.0, 5.0)
        rng = np.random.default_rng(915)
        draws = sample(spec, 200_000, rng)
        assert np.all(draws > 0.0)
        assert draws.mean() == pytest.approx(2.0, rel=0.03)
        assert draws.var() == pytest.approx(5.0, rel=0.08)

    def test_deterministic_given_stream(self):
        spec = GeneratorSpec("gamma", 7.0, 5.0)
        a = sample(spec, 50, np.random.default_rng(3))
        b = sample(spec, 50, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_non_positive_draws_name_the_generator(self):
        # shape 4e-6: nearly every draw underflows to exactly 0
        with pytest.raises(NumericalError, match="gamma generator with mean 2 and variance 1e"):
            sample(GeneratorSpec("gamma", 2.0, 1e6), 30, np.random.default_rng(0))

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="size"):
            sample(GeneratorSpec("weibull", 2.0, 4.0), 0, np.random.default_rng(0))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            GeneratorSpec("normal", 2.0, 4.0)

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError):
            GeneratorSpec("weibull", 2.0, -1.0)
