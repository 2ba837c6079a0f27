"""Tests for the EM estimator of the prior means.

The M step is checked against scipy's bounded scalar optimizer on the
identical objective; the chain-plus-kernel composition is checked against
a two-dimensional grid quadrature of the same unnormalized posterior, and
the fitted hyper-means against the exact EM fixed point on a grid.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import ExactEm, gamma_logpdf, quadrature_posterior_means
from relsys.dists import GeneratorSpec, MeanVarGamma, sample
from relsys.errors import ConvergenceError, NumericalError
from relsys.mcem import (
    _MIN_WEIGHT_ESS,
    SystemFit,
    _draw_means,
    _gamma_mean_objective,
    fit_component,
    fit_system,
    m_step,
)
from relsys.sampler import run_chain
from relsys.settings import FitConfig
from relsys.simlab import GRID_VARIANCE, generate_censored_sample, generate_system_sample
from relsys.streams import RandomStream
from relsys.sysmodel import (
    ComponentSample,
    SystemSample,
    decompose,
    make_log_kernel,
)

# small chains keep the EM tests quick; assertions are sized accordingly
FAST = FitConfig(n_p=500, burn_in=1500, thin=4)


def average_log_prior(d, v_beta, v_eta):
    """The E-step objective: the two gamma prior log densities averaged over the draws."""

    def q(m_beta, m_eta):
        return float(
            np.mean([gamma_logpdf(b, m_beta, v_beta) for b in d.betas])
            + np.mean([gamma_logpdf(e, m_eta, v_eta) for e in d.etas])
        )

    return q


def means(x):
    """The M step's two inputs: the mean of ``x`` and of ``log x``."""
    return float(x.mean()), float(np.log(x).mean())


def weibull_sample(seed, n, censor_every=3, side="right"):
    rng = np.random.default_rng(seed)
    x = sample(GeneratorSpec("weibull", 2.0, 4.0), n, rng)
    return ComponentSample(side, x, np.arange(n) % censor_every == 0)


def far_start_sample():
    """A near-deterministic lifetime sample (shape about 11) fitted under
    prior variance 0.05 from the shape mean 1."""
    x = sample(GeneratorSpec("weibull", 2.0, 0.05), 60, np.random.default_rng(3))
    return ComponentSample("right", x, np.zeros(60, bool)), replace(FAST, prior_variance=0.05)


class TestMStep:
    # the last two maximizers lie above and below the first bracket,
    # [1e-3, 1e3], so the M step searches [1e-9, 1e9] for them
    @pytest.mark.parametrize(
        "seed,v,scale",
        [(3, 4.0, 1.0), (4, 4.0, 1.0), (5, 0.7, 1.0), (6, 2.0, 1.0),
         (7, 1e10, 1e5), (8, 1e-10, 1e-5)],
        ids=["3-4.0", "4-4.0", "5-0.7", "6-2.0", "above-1e3", "below-1e-3"],
    )
    def test_matches_scipy_bounded_optimizer(self, seed, v, scale):
        rng = np.random.default_rng(seed)
        vals = scale * rng.gamma(2.0, 1.3, 400)
        mx, ml = float(vals.mean()), float(np.log(vals).mean())
        ref = minimize_scalar(
            lambda lm: -_gamma_mean_objective(math.exp(lm), v, mx, ml),
            bounds=(math.log(1e-9), math.log(1e9)),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert m_step(mx, ml, v) == pytest.approx(math.exp(ref.x), rel=1e-5)

    # values whose objective has a low peak near m = sqrt(v) and a higher
    # one near their mean; a golden section alone returns the low one
    # (2.178e-8 and 0.2128).  Near 100 at v = 4 the higher peak is about
    # sqrt(v) / 100 = 0.02 wide in log m, so the 0.5-step scan steps over
    # it too (0.0804 without the search by the values' mean)
    @pytest.mark.parametrize(
        "seed,scale,shape,n,v",
        [(10, 1e-6, 20.0, 400, 1e-14), (11, 10.0, 30.0, 200, 1.0),
         (0, 100.0, 400.0, 400, 4.0)],
        ids=["tiny-v", "values-near-10", "narrow-peak-near-100"],
    )
    def test_finds_the_higher_of_two_peaks(self, seed, scale, shape, n, v):
        vals = scale * np.random.default_rng(seed).gamma(shape, 1.0 / shape, n)
        mx, ml = float(vals.mean()), float(np.log(vals).mean())
        grid = np.linspace(math.log(1e-9), math.log(1e9), 200_001)
        dense = [_gamma_mean_objective(math.exp(lm), v, mx, ml) for lm in grid]
        best = int(np.argmax(dense))
        m = m_step(mx, ml, v)
        assert m == pytest.approx(math.exp(grid[best]), rel=1e-3)
        assert _gamma_mean_objective(m, v, mx, ml) >= dense[best]

    def test_maximizes_e_step_objective_coordinatewise(self):
        rng = np.random.default_rng(8)
        draws = run_chain(
            lambda p: gamma_logpdf(p[0], 2.0, 1.0) + gamma_logpdf(p[1], 3.0, 1.0),
            FitConfig(n_p=300, burn_in=500, thin=2),
            rng,
        )
        mb = m_step(*means(draws.betas), 4.0)
        me = m_step(*means(draws.etas), 4.0)
        q = average_log_prior(draws, 4.0, 4.0)
        best = q(mb, me)
        for eps in (1e-3, 0.05, 0.5):
            assert q(mb + eps, me) <= best + 1e-9
            assert q(max(mb - eps, 1e-6), me) <= best + 1e-9
            assert q(mb, me + eps) <= best + 1e-9
            assert q(mb, max(me - eps, 1e-6)) <= best + 1e-9

    def test_weights_act_as_repeat_counts(self):
        vals = np.random.default_rng(9).gamma(2.0, 1.3, 50)
        counts = np.arange(50) % 3
        weighted = _draw_means(vals, np.log(vals), 0.25 * counts)
        repeated = np.repeat(vals, counts)
        assert weighted == pytest.approx(means(repeated), rel=1e-12)
        assert m_step(*weighted, 4.0) == pytest.approx(m_step(*means(repeated), 4.0), rel=1e-9)

    def test_rejects_unusable_means(self):
        for mean_x, mean_log in [(0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0),
                                 (1.0, math.nan), (1.0, -math.inf)]:
            with pytest.raises(ValueError, match="m_step needs finite means, mean_x > 0"):
                m_step(mean_x, mean_log, 4.0)

    # at v = 1e-300 the gamma shape m^2/v at the bracket's top overflows
    # log-gamma; at v = 1e308 it underflows to 0 at the bracket's foot
    @pytest.mark.parametrize("v", [1e-300, 1e308])
    def test_unrepresentable_objective_is_a_numerical_error(self, v):
        with pytest.raises(NumericalError) as e:
            m_step(1.5, 0.3, v)
        assert str(e.value).startswith(f"prior-mean update failed at prior variance {v:g}: ")

    def test_hopeless_values_pin_the_bracket(self):
        # values that no prior mean in [1e-9, 1e9] fits at the given
        # variance: the maximizer runs off the wide bracket on either side
        cases = [
            (np.full(50, 1e10), 4.0, "lower bound 1e-09"),
            (np.full(50, 1e12), 1e24, "upper bound 1e+09"),
        ]
        for vals, v, bound in cases:
            with pytest.raises(ConvergenceError) as e:
                m_step(*means(vals), v)
            assert str(e.value) == f"prior-mean update pinned at the {bound}"


class TestEStepObjective:
    def test_equals_average_log_prior_density(self):
        rng = np.random.default_rng(12)
        draws = run_chain(
            lambda p: gamma_logpdf(p[0], 2.0, 0.5) + gamma_logpdf(p[1], 2.5, 0.5),
            FitConfig(n_p=40, burn_in=200, thin=2),
            rng,
        )
        # the M step maximizes each coordinate's term, reduced to two draw statistics
        def reduced(m, v, x):
            return _gamma_mean_objective(m, v, float(x.mean()), float(np.log(x).mean()))

        got = reduced(1.7, 4.0, draws.betas) + reduced(2.9, 1.5, draws.etas)
        expect = average_log_prior(draws, 4.0, 1.5)(1.7, 2.9)
        assert got == pytest.approx(expect, rel=1e-12)


class TestChainAgreesWithQuadrature:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_posterior_means_match(self, side):
        c = weibull_sample(21, 40, side=side)
        kernel = make_log_kernel(c, (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0)))
        d = run_chain(
            kernel, FitConfig(n_p=2000, burn_in=2000, thin=5), np.random.default_rng(9)
        )
        qb, qe = quadrature_posterior_means(kernel, (-2.5, 2.5), (-2.5, 2.5), 220)

        def se(x, rho):
            rho = min(max(rho, 0.0), 0.99)
            return x.std(ddof=1) / math.sqrt(x.size) * math.sqrt((1 + rho) / (1 - rho))

        assert abs(d.betas.mean() - qb) < 5 * se(d.betas, d.lag1_beta)
        assert abs(d.etas.mean() - qe) < 5 * se(d.etas, d.lag1_eta)


def assert_same_fit(a, b):
    assert np.array_equal(a.draws.betas, b.draws.betas)
    assert np.array_equal(a.draws.etas, b.draws.etas)
    assert a.em_trace == b.em_trace
    assert a.m_beta == b.m_beta and a.m_eta == b.m_eta
    assert (a.chains, a.min_weight_ess) == (b.chains, b.min_weight_ess)


class TestFitComponent:
    def test_converges_and_traces(self):
        fit = fit_component(weibull_sample(31, 60), FAST, RandomStream(101))
        assert fit.converged
        last, prev = fit.em_trace[-1], fit.em_trace[-2]
        assert abs(last.m_beta - prev.m_beta) < FAST.tol
        assert abs(last.m_eta - prev.m_eta) < FAST.tol
        assert fit.m_beta == last.m_beta
        assert fit.m_eta == last.m_eta

    def test_deterministic_given_stream(self):
        a = fit_component(weibull_sample(31, 40), FAST, RandomStream(7))
        b = fit_component(weibull_sample(31, 40), FAST, RandomStream(7))
        assert_same_fit(a, b)

    def test_well_behaved_sample_runs_one_em_chain(self):
        fit = fit_component(weibull_sample(31, 60), FAST, RandomStream(101))
        assert fit.converged
        # one EM chain carried every iteration, then the final chain
        assert len(fit.em_trace) > 2
        assert fit.chains == 2
        assert _MIN_WEIGHT_ESS <= fit.min_weight_ess < 1.0

    def test_weight_collapse_draws_a_fresh_chain(self):
        # a tight prior far from the data: the first moves shift the prior
        # by several of its standard deviations, so the first draw set's
        # weights collapse and fresh chains are drawn
        c, cfg = far_start_sample()
        fit = fit_component(c, cfg, RandomStream(1))
        assert fit.converged
        assert fit.chains > 2
        assert fit.min_weight_ess >= _MIN_WEIGHT_ESS
        # the fresh chains come from the same stream on a rerun
        assert_same_fit(fit, fit_component(c, cfg, RandomStream(1)))

    def test_recovers_generator_scale_loosely(self):
        # exponential-like data, scale 2; hyper-means are prior means, not
        # posterior means, so only a broad range is asserted
        fit = fit_component(weibull_sample(55, 120, censor_every=4), FAST, RandomStream(3))
        assert fit.converged
        assert 0.5 < fit.m_beta < 4.0
        assert 1.0 < fit.m_eta < 7.0
        mean_t = float(np.mean([e * math.gamma(1 + 1 / b) for b, e in
                                zip(fit.draws.betas, fit.draws.etas)]))
        assert 1.2 < mean_t < 3.2

    def test_hyper_mean_follows_a_narrow_peak_at_the_draws(self):
        # lifetimes near 100 at the default v = 4: the scale prior's higher
        # peak is narrower than the M step's scan, and a fit that misses it
        # reports m_eta 0.071 while its draws of eta average 113
        c = generate_censored_sample(
            GeneratorSpec("weibull", 100.0, 1000.0), 100, 0.2, "right",
            np.random.default_rng(3),
        )
        fit = fit_component(c, FitConfig(n_p=200, burn_in=2000, thin=5), RandomStream(0))
        assert fit.converged
        assert 0.8 < fit.m_eta / fit.draws.etas.mean() < 1.25

    def test_all_censored_sample_warns(self):
        c = ComponentSample("right", np.array([1.0, 1.5, 2.0, 3.0]), np.ones(4, bool))
        fit = fit_component(c, FAST, RandomStream(5))
        assert any("no exact failure" in w for w in fit.warnings)

    def test_iteration_cap_reports_nonconvergence(self):
        cfg = replace(FAST, tol=1e-9, max_iter=2)
        fit = fit_component(weibull_sample(31, 40), cfg, RandomStream(7))
        assert not fit.converged
        assert len(fit.em_trace) == 3
        assert any("2 iterations" in w for w in fit.warnings)

    def test_unusable_times_raise(self):
        c = ComponentSample("right", np.full(4, 1e300), np.zeros(4, bool))
        with pytest.raises(NumericalError, match="hyper-mean"):
            fit_component(c, FAST, RandomStream(0))

    def test_prior_normalizer_overflow_raises(self):
        # times near 600 at variance 1e-300 give the scale prior a shape of
        # 3.6e305, whose log-gamma overflows
        c = ComponentSample("right", np.linspace(590.0, 610.0, 6), np.zeros(6, bool))
        with pytest.raises(NumericalError, match="hyper-means 1, 600 are unusable"):
            fit_component(c, replace(FAST, prior_variance=1e-300), RandomStream(0))


SHOWCASE = (
    GeneratorSpec("weibull", 2.0, 4.0),
    GeneratorSpec("gamma", 2.0, 0.667),
    GeneratorSpec("lognormal", 2.014, 6.968),
)


def oracle_samples():
    """The README showcase's three components (series, n=100, seed 24), a
    left-censored weibull sample (n=100, 30% censored), and eight samples of
    the study's weibull mean 2 shape, whose censorings each share one time:
    at 40% censored, n=30, right (seed 6) and left (seed 7), and n=100,
    right (seed 8) and left (seed 9); at 20% censored, n=30, right (seed 10)
    and left (seed 11), and n=100, right (seed 12) and left (seed 13)."""
    s = generate_system_sample(SHOWCASE, "series", 100, RandomStream(24).generator())
    left = generate_censored_sample(
        GeneratorSpec("weibull", 2.0, 4.0), 100, 0.3, "left", RandomStream(5).generator()
    )
    study_shape = GeneratorSpec("weibull", 2.0, GRID_VARIANCE)
    tied = [
        generate_censored_sample(study_shape, n, fraction, side, RandomStream(seed).generator())
        for fraction, n, side, seed in (
            (0.4, 30, "right", 6), (0.4, 30, "left", 7), (0.4, 100, "right", 8),
            (0.4, 100, "left", 9), (0.2, 30, "right", 10), (0.2, 30, "left", 11),
            (0.2, 100, "right", 12), (0.2, 100, "left", 13),
        )
    ]
    return (*decompose(s), left, *tied)


class TestExactEmOracle:
    # The bound is Z standard errors of the hyper-means that a 1000-draw EM
    # chain carries: the delta-method error of the M step on 1000
    # independent draws of the exact posterior, amplified by the EM map's
    # Jacobian at the fixed point (ExactEm.hyper_mean_se), and inflated for
    # autocorrelation by sqrt((1 + rho) / (1 - rho)) at a lag-1 of LAG1,
    # which the thinned chain must not exceed.  Bounds per coordinate,
    # (beta, eta): 0.025/0.048, 0.062/0.032, 0.024/0.028 on the showcase
    # components, 0.016/0.028 on the left-censored sample; at 40% censored,
    # 0.030/0.062 (right) and 0.025/0.059 (left) on the tied n=30 samples,
    # and 0.015/0.034 (right) and 0.013/0.033 (left) on the tied n=100
    # samples; at 20% censored, 0.030/0.041 (right) and 0.021/0.072 (left)
    # at n=30, and 0.013/0.035 (right) and 0.012/0.030 (left) at n=100.
    Z = 4.0
    LAG1 = 0.25
    DRAWS = 1000

    @pytest.mark.parametrize(
        "index",
        range(12),
        ids=["c1", "c2", "c3", "left", "tied-right-n30", "tied-left-n30",
             "tied-right-n100", "tied-left-n100", "tied20-right-n30", "tied20-left-n30",
             "tied20-right-n100", "tied20-left-n100"],
    )
    def test_hyper_means_match_exact_em_fixed_point(self, index):
        c = oracle_samples()[index]
        cfg = FitConfig()
        assert cfg.n_p == self.DRAWS
        fit = fit_component(c, cfg, RandomStream(0).child(index))
        oracle = ExactEm(c, cfg.prior_variance)
        m_beta, m_eta = oracle.fixed_point(fit.em_trace[0].m_beta, fit.em_trace[0].m_eta)
        se_beta, se_eta = oracle.hyper_mean_se(m_beta, m_eta, self.DRAWS)
        inflate = math.sqrt((1 + self.LAG1) / (1 - self.LAG1))
        assert fit.converged
        assert max(fit.draws.lag1_beta, fit.draws.lag1_eta) < self.LAG1
        assert abs(fit.m_beta - m_beta) <= self.Z * inflate * se_beta
        assert abs(fit.m_eta - m_eta) <= self.Z * inflate * se_eta


class TestFitSystem:
    def system(self, seed=91, n=40):
        rng = np.random.default_rng(seed)
        times = rng.gamma(2.0, 1.0, n)
        causes = rng.integers(1, 3, n)
        return SystemSample("series", 2, times, causes)

    def test_components_fit_independently(self):
        s = self.system()
        st = RandomStream(400)
        full = fit_system(s, FAST, st)
        assert full.kind == "series"
        assert full.k == 2
        solo = fit_component(decompose(s)[1], FAST, st.child(1))
        assert np.array_equal(full.components[1].draws.betas, solo.draws.betas)
        assert np.array_equal(full.components[1].draws.etas, solo.draws.etas)
        assert full.components[1].m_beta == solo.m_beta

    def test_parallel_system_fits(self):
        s = self.system()
        p = SystemSample("parallel", 2, s.times, s.causes)
        fit = fit_system(p, FAST, RandomStream(401))
        assert fit.kind == "parallel"
        assert all(c.converged for c in fit.components)

    def test_failures_name_components(self):
        s = SystemSample("series", 2, np.full(4, 1e300), np.arange(4) % 2 + 1)
        with pytest.raises(NumericalError, match="component 1.*component 2"):
            fit_system(s, FAST, RandomStream(0))

    def test_unknown_kind_is_rejected(self):
        # a band reads any kind but "series" as parallel, so a misspelt kind
        # must stop here rather than yield a parallel band
        with pytest.raises(ValueError, match="kind must be one of"):
            SystemFit("Series", ())


# tiny chains, and a tolerance the base fit misses until max_iter stops it,
# so that both tol and max_iter decide where the EM trace ends
GUARD_BASE = FitConfig(tol=1e-6, max_iter=3, n_p=20, burn_in=20, thin=1)
# a value differing from GUARD_BASE's for every setting
GUARD_CHANGED = {
    "prior_variance": 2.0,
    "tol": 0.05,
    "max_iter": 4,
    "n_p": 21,
    "burn_in": 21,
    "thin": 2,
}


class TestFitConfig:
    @pytest.mark.parametrize("name", [f.name for f in fields(FitConfig)])
    def test_every_setting_changes_the_fit(self, name):
        c = weibull_sample(31, 40)
        base = fit_component(c, GUARD_BASE, RandomStream(7))
        assert not base.converged and len(base.em_trace) == GUARD_BASE.max_iter + 1
        changed = replace(GUARD_BASE, **{name: GUARD_CHANGED[name]})
        fit = fit_component(c, changed, RandomStream(7))
        same_draws = np.array_equal(fit.draws.betas, base.draws.betas) and np.array_equal(
            fit.draws.etas, base.draws.etas
        )
        assert fit.em_trace != base.em_trace or not same_draws

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="prior_variance "):
            FitConfig(prior_variance=0.0)
        with pytest.raises(ValueError, match="tol"):
            FitConfig(tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            FitConfig(max_iter=0)
