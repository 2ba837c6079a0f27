"""Tests for masked-system decomposition and censored likelihoods."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import gamma, weibull_min

from oracles import gamma_logpdf, masked_system_loglik
from relsys.dists import ComponentParams, MeanVarGamma
from relsys.errors import NumericalError
from relsys.sysmodel import ComponentSample, SystemSample, decompose, make_log_kernel


def loglik(c: ComponentSample, p: ComponentParams) -> float:
    """The sample's bound log-likelihood at ``p``."""
    return c._loglik(p.beta, math.log(p.beta), math.log(p.eta))


def prior_terms(priors, p: ComponentParams) -> float:
    return gamma_logpdf(p.beta, priors[0].mean, priors[0].variance) + gamma_logpdf(
        p.eta, priors[1].mean, priors[1].variance
    )


def scipy_loglik(sample: ComponentSample, p: ComponentParams) -> float:
    total = 0.0
    for t, censored in zip(sample.times.tolist(), sample.censored.tolist()):
        if not censored:
            total += weibull_min.logpdf(t, p.beta, scale=p.eta)
        elif sample.side == "right":
            total += weibull_min.logsf(t, p.beta, scale=p.eta)
        else:
            total += weibull_min.logcdf(t, p.beta, scale=p.eta)
    return total


def one_record(side, t, censored):
    return ComponentSample(side, np.array([t]), np.array([censored]))


def random_sample(rng, side, n):
    times = rng.gamma(2.0, 1.5, n)
    censored = rng.random(n) < 0.4
    # guarantee at least one of each status
    times[-2:] = rng.gamma(2.0, 1.5), rng.gamma(2.0, 1.5)
    censored[-2:] = False, True
    return ComponentSample(side, times, censored)


def system_sample(kind, k, times, causes):
    return SystemSample(kind, k, np.array(times, dtype=float), np.array(causes))


class TestSingleRecordIdentities:
    def test_exact_record_is_the_log_density(self):
        p = ComponentParams(1.7, 3.2)
        c = one_record("right", 2.5, False)
        expect = math.log(1.7 / 3.2) + 0.7 * math.log(2.5 / 3.2) - (2.5 / 3.2) ** 1.7
        assert loglik(c, p) == pytest.approx(expect, rel=1e-13)

    def test_right_censoring_is_the_log_survival(self):
        p = ComponentParams(1.7, 3.2)
        c = one_record("right", 2.5, True)
        assert loglik(c, p) == pytest.approx(-((2.5 / 3.2) ** 1.7), rel=1e-13)

    def test_left_censoring_is_the_log_failure_probability(self):
        p = ComponentParams(1.7, 3.2)
        c = one_record("left", 2.5, True)
        expect = math.log1p(-math.exp(-((2.5 / 3.2) ** 1.7)))
        assert loglik(c, p) == pytest.approx(expect, rel=1e-13)


class TestComponentLoglik:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_scipy_on_random_samples(self, side):
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = random_sample(rng, side, 30)
            p = ComponentParams(float(rng.uniform(0.4, 4.0)), float(rng.uniform(0.5, 6.0)))
            assert loglik(c, p) == pytest.approx(
                scipy_loglik(c, p), rel=1e-11, abs=1e-11
            )

    def test_additive_over_records(self):
        rng = np.random.default_rng(7)
        c = random_sample(rng, "left", 12)
        p = ComponentParams(2.2, 1.1)
        parts = sum(
            loglik(one_record(c.side, t, z), p)
            for t, z in zip(c.times.tolist(), c.censored.tolist())
        )
        assert loglik(c, p) == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_zero_likelihood_is_minus_inf_not_error(self):
        # a left censoring the model says cannot have happened yet
        c = one_record("left", 1e-300, True)
        assert loglik(c, ComponentParams(5.0, 1.0)) == -math.inf

    def test_nan_raises_and_names_the_record(self):
        c = one_record("right", math.exp(2.0), False)
        kernel = make_log_kernel(c, (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0)))
        with pytest.raises(NumericalError, match="record 0"):
            kernel((1e308, 1.0))

    def test_all_censored_sample_is_finite(self):
        c = ComponentSample("right", np.array([1.0, 2.0]), np.ones(2, bool))
        assert math.isfinite(loglik(c, ComponentParams(1.5, 2.0)))


class TestDecompose:
    def sample(self, kind, k):
        return system_sample(kind, k, [1.2, 0.7, 2.9, 1.5], [1, 3, 1, 2])

    def test_series_right_censors_the_survivors(self):
        s = self.sample("series", 3)
        parts = decompose(s)
        assert len(parts) == 3
        for c in parts:
            assert c.side == "right"
            assert c.n == s.n
            assert np.array_equal(c.times, s.times)
        assert parts[0].censored.tolist() == [False, True, False, True]
        assert parts[1].censored.tolist() == [True, True, True, False]
        assert parts[2].censored.tolist() == [True, False, True, True]

    def test_parallel_left_censors_the_earlier_failures(self):
        s = self.sample("parallel", 3)
        parts = decompose(s)
        for c in parts:
            assert c.side == "left"
        assert parts[2].censored.tolist() == [True, False, True, True]

    def test_exact_counts_partition_the_observations(self):
        s = self.sample("series", 4)
        parts = decompose(s)
        assert sum(c.n_exact for c in parts) == s.n
        assert parts[3].n_exact == 0

    def test_cause_outside_range_rejected(self):
        with pytest.raises(ValueError, match="observation 1 names cause 3"):
            system_sample("series", 2, [1.0, 2.0], [1, 3])
        with pytest.raises(ValueError, match="observation 0 names cause 0"):
            system_sample("series", 2, [1.0], [0])

    def test_empty_and_invalid_samples_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            system_sample("mixed", 2, [1.0], [1])
        with pytest.raises(ValueError, match="observation"):
            system_sample("series", 2, [], [])
        with pytest.raises(ValueError, match="side"):
            one_record("up", 1.0, False)
        with pytest.raises(ValueError, match="record"):
            ComponentSample("right", np.array([]), np.array([], bool))
        with pytest.raises(ValueError, match="time 0"):
            one_record("right", 0.0, False)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_first_bad_time_is_named(self, bad):
        times = [1.0, 2.0, bad, 3.0, bad]
        with pytest.raises(ValueError, match="time 2 "):
            ComponentSample("right", np.array(times), np.zeros(5, bool))
        with pytest.raises(ValueError, match="time 2 "):
            system_sample("series", 2, times, [1] * 5)

    def test_arrays_must_be_one_dimensional_and_equal_length(self):
        with pytest.raises(ValueError, match="shape"):
            ComponentSample("right", np.array([1.0, 2.0]), np.zeros(3, bool))
        with pytest.raises(ValueError, match="shape"):
            system_sample("series", 2, [1.0, 2.0], [1])
        with pytest.raises(ValueError, match="record"):
            ComponentSample("right", np.ones((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(ValueError, match="observation"):
            SystemSample("series", 2, np.ones((2, 2)), np.ones((2, 2), int))

    def test_stored_arrays_are_read_only(self):
        times, causes = np.array([1.0, 2.0, 3.0]), np.array([1, 2, 1])
        s = SystemSample("series", 2, times, causes)
        c = decompose(s)[0]
        for arr in (s.times, s.causes, c.times, c.censored):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1
        # the caller's writeable arrays were copied, a read-only one is shared
        times[0] = -1.0
        assert s.times[0] == 1.0
        assert c.times is s.times

    def test_flag_and_cause_dtypes_are_checked(self):
        with pytest.raises(ValueError, match="bool"):
            ComponentSample("right", np.array([1.0, 2.0]), np.array([0, 1]))
        with pytest.raises(ValueError, match="int"):
            SystemSample("series", 2, np.array([1.0]), np.array([1.0]))


class TestSystemLoglik:
    def test_equals_sum_of_component_logliks(self):
        rng = np.random.default_rng(11)
        times, causes = rng.gamma(2.0, 1.0, 25), rng.integers(1, 4, 25)
        for kind in ("series", "parallel"):
            s = SystemSample(kind, 3, times, causes)
            params = [ComponentParams(1.1, 2.0), ComponentParams(2.4, 1.7), ComponentParams(0.8, 3.0)]
            got = sum(loglik(c, p) for c, p in zip(decompose(s), params))
            assert got == pytest.approx(
                masked_system_loglik(kind, times, causes, params), abs=1e-12
            )


class TestPosteriorKernel:
    def test_kernel_is_loglik_plus_priors(self):
        rng = np.random.default_rng(5)
        c = random_sample(rng, "right", 15)
        p = ComponentParams(1.4, 2.2)
        priors = (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0))
        expect = loglik(c, p) + prior_terms(priors, p)
        assert make_log_kernel(c, priors)(p) == pytest.approx(expect, rel=1e-13)

    def test_bound_kernel_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        c = random_sample(rng, "left", 15)
        priors = (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0))
        kernel = make_log_kernel(c, priors)
        for _ in range(10):
            p = ComponentParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
            expect = loglik(c, p) + prior_terms(priors, p)
            assert kernel(p) == pytest.approx(expect, rel=1e-13)


class TestKernelAgainstScipy:
    PRIORS = (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0))
    # (beta, eta) where (t/eta)**beta overflows or underflows for every record,
    # so survival or failure terms saturate to -inf, or is far below 1e-16
    EXTREMES = [
        (50.0, 1e-8), (50.0, 1e8), (800.0, 0.9), (800.0, 1.1), (0.02, 1e-200), (10.0, 1e3)
    ]
    # exponents beta*log(t/eta) that a left censoring's log(-expm1(-x)) must
    # handle: x = ln 2, x far below 1e-16, a subnormal x, and x > 40, where
    # the term rounds to 0 but is about -exp(-x)
    LEFT_EXPONENTS = [math.log(math.log(2.0)), -40.0, -720.0, math.log(40.0) + 1.0]

    @classmethod
    def left_points(cls, c):
        """(beta, eta) putting the first censored record (the first record if
        none is censored) at each of ``LEFT_EXPONENTS``, with ``|log(t/eta)|``
        at most 2 so that eta stays near the data and the prior terms do not
        swamp the likelihood."""
        t = float(c.times[c.censored.argmax()])
        points = []
        for z in cls.LEFT_EXPONENTS:
            beta = max(2.0, abs(z) / 2.0)
            points.append((beta, t * math.exp(-z / beta)))
        return points

    @staticmethod
    def oracle(c, p, priors):
        prior_terms = sum(
            gamma.logpdf(x, g.shape, scale=1.0 / g.rate)
            for g, x in zip(priors, (p.beta, p.eta))
        )
        with np.errstate(all="ignore"):
            return scipy_loglik(c, p) + prior_terms

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("n", [1, 15, 200])
    @pytest.mark.parametrize("status", ["mixed", "exact", "censored"])
    def test_matches_per_record_scipy_sum(self, side, n, status):
        rng = np.random.default_rng(n)
        times = rng.gamma(2.0, 1.5, n)
        censored = {
            "mixed": rng.random(n) < 0.4,
            "exact": np.zeros(n, bool),
            "censored": np.ones(n, bool),
        }[status]
        c = ComponentSample(side, times, censored)
        kernel = make_log_kernel(c, self.PRIORS)
        points = [
            (float(b), float(e))
            for b, e in zip(rng.uniform(0.2, 6.0, 25), rng.uniform(0.2, 8.0, 25))
        ] + self.EXTREMES + self.left_points(c)
        saturated = 0
        for beta, eta in points:
            p = ComponentParams(beta, eta)
            expect = self.oracle(c, p, self.PRIORS)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # saturation must stay silent
                got = kernel(p)
            if expect == -math.inf:
                saturated += 1
                assert got == -math.inf, (beta, eta)
            else:
                assert got == pytest.approx(expect, rel=1e-11, abs=1e-11), (beta, eta)
        assert saturated > 0


class TestKernelMemory:
    """A bound kernel forms every term in place in one buffer made when it is
    bound, so its calls allocate no array: 200 calls of a left kernel at
    n = 1000 with 400 censorings must peak below the 3,200 bytes of one
    array of the censorings' values.  Python floats and numpy's scalar
    results take a few hundred bytes; a term that builds even one temporary
    over the censorings fails."""

    N, CENSORED, CALLS = 1000, 400, 200
    BOUND = 8 * CENSORED

    def test_left_kernel_calls_allocate_no_array(self):
        rng = np.random.default_rng(3)
        censored = np.zeros(self.N, bool)
        censored[rng.choice(self.N, self.CENSORED, replace=False)] = True
        c = ComponentSample("left", rng.gamma(2.0, 1.5, self.N), censored)
        kernel = make_log_kernel(c, (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0)))
        p = ComponentParams(1.3, 2.1)
        kernel(p)
        tracemalloc.start()
        try:
            for _ in range(self.CALLS):
                kernel(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND
