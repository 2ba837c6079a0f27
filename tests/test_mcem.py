"""Tests for the EM estimator of the prior means.

The M step is checked against scipy's bounded scalar optimizer on the
identical objective; the chain-plus-kernel composition is checked against
a two-dimensional grid quadrature of the same unnormalized posterior.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from relsys.dists import ComponentParams, GeneratorSpec, MeanVarGamma, gamma_mv_logpdf, sample
from relsys.errors import ConvergenceError, NumericalError
from relsys.mcem import (
    FitConfig,
    _gamma_mean_objective,
    fit_component,
    fit_system,
    m_step,
)
from relsys.sampler import McmcConfig, run_chain
from relsys.streams import RandomStream
from relsys.sysmodel import (
    ComponentSample,
    SystemSample,
    decompose,
    make_log_kernel,
)

# small chains keep the EM tests quick; assertions are sized accordingly
FAST = FitConfig(
    mcmc=McmcConfig(n_p=300, burn_in=300, thin=3),
    final_mcmc=McmcConfig(n_p=500, burn_in=1500, thin=4),
)


def average_log_prior(d, v_beta, v_eta):
    """The E-step objective: the two gamma prior log densities averaged over the draws."""

    def q(m_beta, m_eta):
        gb, ge = MeanVarGamma(m_beta, v_beta), MeanVarGamma(m_eta, v_eta)
        return float(
            np.mean([gamma_mv_logpdf(gb, b) for b in d.betas])
            + np.mean([gamma_mv_logpdf(ge, e) for e in d.etas])
        )

    return q


def weibull_sample(seed, n, censor_every=3, side="right"):
    rng = np.random.default_rng(seed)
    x = sample(GeneratorSpec("weibull", 2.0, 4.0), n, rng)
    return ComponentSample(side, x, np.arange(n) % censor_every == 0)


class TestMStep:
    @pytest.mark.parametrize("seed,v", [(3, 4.0), (4, 4.0), (5, 0.7), (6, 2.0)])
    def test_matches_scipy_bounded_optimizer(self, seed, v):
        rng = np.random.default_rng(seed)
        vals = rng.gamma(2.0, 1.3, 400)
        mx, ml = float(vals.mean()), float(np.log(vals).mean())
        ref = minimize_scalar(
            lambda lm: -_gamma_mean_objective(math.exp(lm), v, mx, ml),
            bounds=(math.log(1e-3), math.log(1e3)),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert m_step(vals, v) == pytest.approx(math.exp(ref.x), rel=1e-5)

    def test_maximizes_e_step_objective_coordinatewise(self):
        rng = np.random.default_rng(8)
        draws = run_chain(
            lambda p: gamma_mv_logpdf(MeanVarGamma(2.0, 1.0), p[0])
            + gamma_mv_logpdf(MeanVarGamma(3.0, 1.0), p[1]),
            McmcConfig(n_p=300, burn_in=500, thin=2),
            rng,
        )
        mb = m_step(draws.betas, 4.0)
        me = m_step(draws.etas, 4.0)
        q = average_log_prior(draws, 4.0, 4.0)
        best = q(mb, me)
        for eps in (1e-3, 0.05, 0.5):
            assert q(mb + eps, me) <= best + 1e-9
            assert q(max(mb - eps, 1e-6), me) <= best + 1e-9
            assert q(mb, me + eps) <= best + 1e-9
            assert q(mb, max(me - eps, 1e-6)) <= best + 1e-9

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError, match="at least one"):
            m_step([], 4.0)
        with pytest.raises(ValueError, match="finite and > 0"):
            m_step([1.0, -2.0], 4.0)

    def test_hopeless_values_pin_the_bracket(self):
        # values so large that, at fixed prior variance, no finite prior
        # mean fits them; the maximizer runs off the widened bracket
        with pytest.raises(ConvergenceError, match="pinned"):
            m_step(np.full(50, 1e10), 4.0)


class TestEStepObjective:
    def test_equals_average_log_prior_density(self):
        rng = np.random.default_rng(12)
        draws = run_chain(
            lambda p: gamma_mv_logpdf(MeanVarGamma(2.0, 0.5), p[0])
            + gamma_mv_logpdf(MeanVarGamma(2.5, 0.5), p[1]),
            McmcConfig(n_p=40, burn_in=200, thin=2),
            rng,
        )
        # the M step maximizes each coordinate's term, reduced to two draw statistics
        def reduced(m, v, x):
            return _gamma_mean_objective(m, v, float(x.mean()), float(np.log(x).mean()))

        got = reduced(1.7, 4.0, draws.betas) + reduced(2.9, 1.5, draws.etas)
        expect = average_log_prior(draws, 4.0, 1.5)(1.7, 2.9)
        assert got == pytest.approx(expect, rel=1e-12)


def quadrature_posterior_means(kernel, log_beta_rng, log_eta_rng, m):
    """Posterior means of shape and scale by trapezoid quadrature in logs."""
    u = np.linspace(*log_beta_rng, m)
    w = np.linspace(*log_eta_rng, m)
    logf = np.empty((m, m))
    for i, ui in enumerate(u):
        for j, wj in enumerate(w):
            # the log-space volume element adds u + w
            logf[i, j] = kernel(ComponentParams(math.exp(ui), math.exp(wj))) + ui + wj
    logf -= logf.max()
    f = np.exp(logf)
    du = u[1] - u[0]
    dw = w[1] - w[0]
    z = np.trapezoid(np.trapezoid(f, dx=dw, axis=1), dx=du)
    eb = np.trapezoid(np.trapezoid(f * np.exp(u)[:, None], dx=dw, axis=1), dx=du) / z
    ee = np.trapezoid(np.trapezoid(f * np.exp(w)[None, :], dx=dw, axis=1), dx=du) / z
    return eb, ee


class TestChainAgreesWithQuadrature:
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_posterior_means_match(self, side):
        c = weibull_sample(21, 40, side=side)
        kernel = make_log_kernel(c, (MeanVarGamma(1.5, 4.0), MeanVarGamma(2.0, 4.0)))
        d = run_chain(
            kernel, McmcConfig(n_p=2000, burn_in=2000, thin=5), np.random.default_rng(9)
        )
        qb, qe = quadrature_posterior_means(kernel, (-2.5, 2.5), (-2.5, 2.5), 220)

        def se(x, rho):
            rho = min(max(rho, 0.0), 0.99)
            return x.std(ddof=1) / math.sqrt(x.size) * math.sqrt((1 + rho) / (1 - rho))

        assert abs(d.betas.mean() - qb) < 5 * se(d.betas, d.lag1_beta)
        assert abs(d.etas.mean() - qe) < 5 * se(d.etas, d.lag1_eta)


class TestFitComponent:
    def test_converges_and_traces(self):
        fit = fit_component(weibull_sample(31, 60), FAST, RandomStream(101))
        assert fit.converged
        assert fit.em_trace[0].iteration == 0
        assert [s.iteration for s in fit.em_trace] == list(range(len(fit.em_trace)))
        last, prev = fit.em_trace[-1], fit.em_trace[-2]
        assert abs(last.m_beta - prev.m_beta) < FAST.tol
        assert abs(last.m_eta - prev.m_eta) < FAST.tol
        assert fit.m_beta == last.m_beta
        assert fit.m_eta == last.m_eta

    def test_deterministic_given_stream(self):
        a = fit_component(weibull_sample(31, 40), FAST, RandomStream(7))
        b = fit_component(weibull_sample(31, 40), FAST, RandomStream(7))
        assert np.array_equal(a.draws.betas, b.draws.betas)
        assert np.array_equal(a.draws.etas, b.draws.etas)
        assert a.em_trace == b.em_trace
        assert a.m_beta == b.m_beta and a.m_eta == b.m_eta

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

    def test_all_censored_sample_warns(self):
        c = ComponentSample("right", np.array([1.0, 1.5, 2.0, 3.0]), np.ones(4, bool))
        fit = fit_component(c, FAST, RandomStream(5))
        assert any("no exact failure" in w for w in fit.warnings)

    def test_iteration_cap_reports_nonconvergence(self):
        cfg = FitConfig(
            tol=1e-9,
            max_iter=2,
            mcmc=FAST.mcmc,
            final_mcmc=FAST.final_mcmc,
        )
        fit = fit_component(weibull_sample(31, 40), cfg, RandomStream(7))
        assert not fit.converged
        assert len(fit.em_trace) == 3
        assert any("2 iterations" in w for w in fit.warnings)

    def test_unusable_times_raise(self):
        c = ComponentSample("right", np.full(4, 1e300), np.zeros(4, bool))
        with pytest.raises(NumericalError, match="hyper-mean"):
            fit_component(c, FAST, RandomStream(0))


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


class TestFitConfig:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="prior_variance "):
            FitConfig(prior_variance=0.0)
        with pytest.raises(ValueError, match="tol"):
            FitConfig(tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            FitConfig(max_iter=0)
