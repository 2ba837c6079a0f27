"""Tests for the adaptive Metropolis chain.

The calibration oracle is a pure product-of-gammas kernel: with no data
term, the chain must reproduce the prior means and spreads, which are
known in closed form by construction.
"""

import hashlib
import math

import numpy as np
import pytest

from oracles import gamma_logpdf
from relsys.dists import GeneratorSpec, MeanVarGamma
from relsys.errors import NumericalError
from relsys.sampler import _ADAPT_TARGET, run_chain
from relsys.settings import McmcConfig
from relsys.simlab import generate_censored_sample
from relsys.sysmodel import make_log_kernel


BETA_TARGET = MeanVarGamma(2.0, 0.5)
ETA_TARGET = MeanVarGamma(3.0, 1.0)


def gamma_product_kernel(p: tuple[float, float]) -> float:
    beta, eta = p
    return gamma_logpdf(beta, BETA_TARGET.mean, BETA_TARGET.variance) + gamma_logpdf(
        eta, ETA_TARGET.mean, ETA_TARGET.variance
    )


def flat_box_kernel(p: tuple[float, float]) -> float:
    beta, eta = p
    if abs(math.log(beta)) < 20.0 and abs(math.log(eta)) < 20.0:
        return 0.0
    return -math.inf


def corrected_se(x: np.ndarray, lag1: float) -> float:
    # AR(1)-style inflation of the naive Monte Carlo standard error
    rho = min(max(lag1, 0.0), 0.99)
    return x.std(ddof=1) / math.sqrt(len(x)) * math.sqrt((1 + rho) / (1 - rho))


class TestCalibration:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_recovers_gamma_target_moments(self, seed):
        cfg = McmcConfig(n_p=1000, burn_in=2000, thin=10)
        d = run_chain(gamma_product_kernel, cfg, np.random.default_rng(seed))
        assert abs(d.betas.mean() - BETA_TARGET.mean) < 4 * corrected_se(d.betas, d.lag1_beta)
        assert abs(d.etas.mean() - ETA_TARGET.mean) < 4 * corrected_se(d.etas, d.lag1_eta)
        assert d.betas.std(ddof=1) == pytest.approx(math.sqrt(BETA_TARGET.variance), rel=0.2)
        assert d.etas.std(ddof=1) == pytest.approx(math.sqrt(ETA_TARGET.variance), rel=0.2)

    def test_adaptation_steers_acceptance_to_target(self):
        cfg = McmcConfig(n_p=500, burn_in=3000, thin=5)
        d = run_chain(gamma_product_kernel, cfg, np.random.default_rng(2), step=3.0)
        assert abs(d.acceptance_rate - _ADAPT_TARGET) < 0.1
        assert 0.0 < d.step_final < 3.0
        assert d.warnings == ()

    def test_thinned_draws_decorrelate(self):
        cfg = McmcConfig(n_p=1000, burn_in=2000, thin=10)
        d = run_chain(gamma_product_kernel, cfg, np.random.default_rng(5))
        assert -1.0 <= d.lag1_beta <= 1.0
        assert abs(d.lag1_beta) < 0.5
        assert abs(d.lag1_eta) < 0.5


class TestChainMechanics:
    def test_deterministic_given_seed(self):
        cfg = McmcConfig(n_p=50, burn_in=100, thin=2)
        a = run_chain(gamma_product_kernel, cfg, np.random.default_rng(9))
        b = run_chain(gamma_product_kernel, cfg, np.random.default_rng(9))
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.etas, b.etas)
        assert a.step_final == b.step_final
        assert a.acceptance_rate == b.acceptance_rate

    def test_thinned_chain_is_subsequence_of_unthinned(self):
        thick = McmcConfig(n_p=1000, burn_in=200, thin=1)
        thin = McmcConfig(n_p=200, burn_in=200, thin=5)
        full = run_chain(gamma_product_kernel, thick, np.random.default_rng(31))
        kept = run_chain(gamma_product_kernel, thin, np.random.default_rng(31))
        assert np.array_equal(kept.betas, full.betas[4::5])
        assert np.array_equal(kept.etas, full.etas[4::5])

    def test_flat_kernel_accepts_nearly_all_small_steps(self):
        # symmetric walk on a flat target: only the log-space volume term
        # remains, so tiny steps are accepted almost always
        cfg = McmcConfig(n_p=1000, burn_in=0, thin=1)
        d = run_chain(flat_box_kernel, cfg, np.random.default_rng(17), step=0.05)
        assert d.acceptance_rate > 0.9
        assert d.step_final == 0.05  # no burn-in, no adaptation

    def test_oversized_steps_on_a_needle_target_warn(self):
        def kernel(p):
            # both coordinates under a gamma of mean 1 and variance 1e-8
            beta, eta = p
            return gamma_logpdf(beta, 1.0, 1e-8) + gamma_logpdf(eta, 1.0, 1e-8)

        cfg = McmcConfig(n_p=300, burn_in=0, thin=1)
        d = run_chain(kernel, cfg, np.random.default_rng(3), step=8.0)
        assert d.acceptance_rate < 0.05
        assert any("acceptance" in w for w in d.warnings)

    def test_range_guard_rejects_far_proposals_without_a_kernel_call(self):
        calls = []

        def kernel(p):
            beta, eta = p
            for x in (beta, eta):
                assert type(x) is float and math.isfinite(x) and x > 0.0
            calls.append(p)
            return gamma_product_kernel(p)

        # from log 1 = 0, a step of 400 leaves |log x| < 300 in most
        # coordinates; no burn-in keeps the step there
        cfg = McmcConfig(n_p=500, burn_in=0, thin=1)
        d = run_chain(kernel, cfg, np.random.default_rng(4), step=400.0)
        assert d.n == 500
        assert d.step_final == 400.0
        # the initial point plus only the in-range proposals reach the kernel
        assert 1 < len(calls) < 0.6 * cfg.n_p
        assert np.all(np.abs(np.log(d.betas)) < 300.0)
        assert np.all(np.abs(np.log(d.etas)) < 300.0)

    def test_zero_density_start_raises(self):
        cfg = McmcConfig(n_p=10, burn_in=0, thin=1)
        with pytest.raises(NumericalError, match="initial"):
            run_chain(flat_box_kernel, cfg, np.random.default_rng(0), init=(1e9, 1e9))

    def test_draw_count_and_positivity(self):
        cfg = McmcConfig(n_p=77, burn_in=50, thin=3)
        d = run_chain(gamma_product_kernel, cfg, np.random.default_rng(8))
        assert d.n == 77
        assert np.all(d.betas > 0)
        assert np.all(d.etas > 0)


class TestRegression:
    # recorded with the sampler that built a validated ComponentParams per
    # proposal; any change to the accept decisions, the adaptation or the
    # kernel's floating-point operations moves these values
    @pytest.mark.parametrize(
        "side, acceptance, step_final, digest",
        [
            (
                "right",
                0.2625,
                0.38610855372836783,
                "6ec1a9d13b263038ea1e0a0b4357a22305a4f8b98880aef6696d70ed1d9539ed",
            ),
            (
                "left",
                0.2675,
                0.2879326890066998,
                "3163484d9adfb079096a797e697a814ca7bc1039eeaa9db24c4e52e50784bc47",
            ),
        ],
    )
    def test_chain_is_bit_identical_to_recorded_run(self, side, acceptance, step_final, digest):
        c = generate_censored_sample(
            GeneratorSpec("weibull", 2.0, 5.0), 40, 0.3, side, np.random.default_rng(7)
        )
        kernel = make_log_kernel(c, (MeanVarGamma(1.0, 4.0), MeanVarGamma(2.0, 4.0)))
        d = run_chain(kernel, McmcConfig(n_p=200, burn_in=500, thin=2), np.random.default_rng(41))
        assert d.acceptance_rate == acceptance
        assert d.step_final == step_final
        raw = np.column_stack([d.betas, d.etas]).astype("<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="n_p"):
            McmcConfig(n_p=0)
        # a fit's posterior standard deviations (ddof=1) need two draws
        with pytest.raises(ValueError, match="n_p must be >= 2, got 1"):
            McmcConfig(n_p=1)
        assert McmcConfig(n_p=2).n_p == 2
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(burn_in=-1)
        with pytest.raises(ValueError, match="thin"):
            McmcConfig(thin=0)
        cfg, rng = McmcConfig(n_p=10, burn_in=0, thin=1), np.random.default_rng(0)
        for step in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="step"):
                run_chain(gamma_product_kernel, cfg, rng, step=step)
        with pytest.raises(ValueError, match="shape"):
            run_chain(gamma_product_kernel, cfg, rng, init=(0.0, 1.0))
        with pytest.raises(ValueError, match="scale"):
            run_chain(gamma_product_kernel, cfg, rng, init=(1.0, math.nan))
