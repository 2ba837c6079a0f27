"""Tests for reliability bands, HPD intervals and lifetime summaries."""

import math

import numpy as np
import pytest

from relsys.curves import (
    ReliabilityBand,
    TimeGrid,
    _band_from_matrix,
    _survival_matrix,
    hpd_interval,
    mean_time_posterior,
    reliability_band,
    reliability_draws,
    system_band,
)
from relsys.dists import ComponentParams, weibull_reliability
from relsys.mcem import ComponentFit, EmStep, SystemFit
from relsys.sampler import PosteriorDraws


def make_draws(betas, etas):
    return PosteriorDraws(
        betas=np.asarray(betas, dtype=float),
        etas=np.asarray(etas, dtype=float),
        acceptance_rate=0.3,
        step_final=0.2,
        lag1_beta=0.0,
        lag1_eta=0.0,
        warnings=(),
    )


def make_fit(d):
    return ComponentFit(
        m_beta=1.0,
        m_eta=2.0,
        draws=d,
        em_trace=(EmStep(0, 1.0, 2.0),),
        converged=True,
        warnings=(),
        chains=2,
        min_weight_ess=1.0,
    )


def band_arrays(band):
    return band.mean, band.lower, band.upper


def assert_bands_equal(a, b):
    assert np.array_equal(a.grid.points, b.grid.points)
    for x, y in zip(band_arrays(a), band_arrays(b)):
        assert np.array_equal(x, y)
    assert (a.level, a.method) == (b.level, b.method)


def random_draws(seed, n=400):
    rng = np.random.default_rng(seed)
    return make_draws(rng.gamma(4.0, 0.4, n), rng.gamma(5.0, 0.45, n))


class TestTimeGrid:
    def test_regular(self):
        g = TimeGrid.regular(10.0, 5)
        assert np.array_equal(g.points, [0.0, 2.5, 5.0, 7.5, 10.0])
        assert g.points.dtype == np.float64
        assert g.n == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeGrid(np.array([]))
        with pytest.raises(ValueError, match="at least one"):
            TimeGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=">= 0"):
            TimeGrid(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([0.0, 2.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array([0.0, math.inf]))
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid.regular(0.0)
        with pytest.raises(ValueError, match="points"):
            TimeGrid.regular(1.0, 1)


def test_stored_arrays_are_read_only():
    points = np.array([0.0, 1.0, 2.0])
    grid = TimeGrid(points)
    d = random_draws(1, 20)
    band = reliability_band(d, grid)
    for arr in (grid.points, d.betas, d.etas, band.mean, band.lower, band.upper):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1.0
    # the caller's writeable array was copied
    points[0] = -1.0
    assert grid.points[0] == 0.0


class TestHpdInterval:
    def test_integers_one_to_hundred(self):
        lo, hi = hpd_interval(np.arange(1, 101), 0.95)
        assert (lo, hi) == (1.0, 95.0)

    def test_skewed_sample_shorter_than_quantile_interval(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, 5000)
        lo, hi = hpd_interval(x, 0.9)
        qlo, qhi = np.quantile(x, [0.05, 0.95])
        assert hi - lo < qhi - qlo
        assert lo < 0.05  # mass hugs zero for an exponential

    def test_window_covers_requested_mass(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, 2000)
        lo, hi = hpd_interval(x, 0.5)
        frac = np.mean((x >= lo) & (x <= hi))
        assert frac >= 0.5

    def test_degenerate_sizes(self):
        assert hpd_interval([3.0], 0.95) == (3.0, 3.0)
        # window of ceil(0.99 * 50) = 50 is the whole sample
        x = np.linspace(0, 1, 50)
        assert hpd_interval(x, 0.99) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="level"):
            hpd_interval([1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="at least one"):
            hpd_interval([], 0.9)
        with pytest.raises(ValueError, match="finite"):
            hpd_interval([1.0, math.nan], 0.9)


class TestReliabilityDraws:
    def test_matches_scalar_reliability(self):
        d = random_draws(10, 50)
        r = reliability_draws(d, 1.7)
        for rl, b, e in zip(r, d.betas, d.etas):
            assert rl == pytest.approx(weibull_reliability(ComponentParams(b, e), 1.7), rel=1e-12)

    def test_time_zero_gives_certain_survival(self):
        d = random_draws(11, 20)
        assert np.all(reliability_draws(d, 0.0) == 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            reliability_draws(random_draws(1, 5), -0.1)


class TestReliabilityBand:
    def test_shape_and_ordering(self):
        d = random_draws(21)
        grid = TimeGrid.regular(6.0, 40)
        band = reliability_band(d, grid)
        mean = band.mean
        assert all(a.shape == (40,) and a.dtype == np.float64 for a in band_arrays(band))
        assert band.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(mean) <= 0.0)
        assert np.all(band.lower <= mean + 1e-12)
        assert np.all(mean <= band.upper + 1e-12)
        assert np.all((0.0 <= band.lower) & (band.upper <= 1.0))

    def test_methods_both_construct(self):
        d = random_draws(22)
        grid = TimeGrid.regular(5.0, 10)
        hpd = reliability_band(d, grid, method="hpd")
        quant = reliability_band(d, grid, method="quantile")
        assert hpd.method == "hpd" and quant.method == "quantile"
        assert np.array_equal(hpd.mean, quant.mean)  # bounds differ, the mean curve cannot

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            reliability_band(random_draws(1, 10), TimeGrid.regular(2.0, 4), method="层")

    def test_band_validation(self):
        grid = TimeGrid.regular(1.0, 3)

        def band(mean, lower, upper, level=0.95):
            arrays = (np.array(mean), np.array(lower), np.array(upper))
            return ReliabilityBand(grid, *arrays, level, "hpd")

        with pytest.raises(ValueError, match="grid length"):
            band((1.0, 0.5), (0.9, 0.4), (1.0, 0.6))
        with pytest.raises(ValueError, match="level"):
            band((1.0, 0.5, 0.2), (0.9, 0.4, 0.1), (1.0, 0.6, 0.3), level=1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            band((1.0, 0.5, 1.2), (0.9, 0.4, 0.1), (1.0, 0.6, 1.3))
        with pytest.raises(ValueError, match="exceeds"):
            band((1.0, 0.5, 0.2), (0.9, 0.7, 0.1), (1.0, 0.6, 0.3))


class TestMeanTimePosterior:
    def test_matches_closed_form_average(self):
        d = random_draws(31, 200)
        mean, sd = mean_time_posterior(d)
        vals = np.array([e * math.gamma(1.0 + 1.0 / b) for b, e in
                         zip(d.betas, d.etas)])
        assert mean == pytest.approx(vals.mean(), rel=1e-10)
        assert sd == pytest.approx(vals.std(ddof=1), rel=1e-10)


class TestSystemBand:
    def test_single_component_series_equals_component_band(self):
        d = random_draws(41)
        f = SystemFit("series", (make_fit(d),))
        grid = TimeGrid.regular(4.0, 25)
        assert_bands_equal(system_band(f, grid), reliability_band(d, grid))

    def test_two_identical_components_compose(self):
        d = random_draws(42)
        grid = TimeGrid.regular(4.0, 15)
        series = system_band(SystemFit("series", (make_fit(d), make_fit(d))), grid)
        parallel = system_band(SystemFit("parallel", (make_fit(d), make_fit(d))), grid)
        for i, t in enumerate(grid.points):
            r = reliability_draws(d, t)
            assert series.mean[i] == pytest.approx(float(np.mean(r * r)), rel=1e-12)
            assert parallel.mean[i] == pytest.approx(
                float(np.mean(1.0 - (1.0 - r) ** 2)), rel=1e-12
            )

    def test_parallel_dominates_series(self):
        a, b = random_draws(43), random_draws(44)
        grid = TimeGrid.regular(5.0, 20)
        series = system_band(SystemFit("series", (make_fit(a), make_fit(b))), grid)
        parallel = system_band(SystemFit("parallel", (make_fit(a), make_fit(b))), grid)
        assert np.all(parallel.mean >= series.mean - 1e-12)

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    @pytest.mark.parametrize("kind", ["series", "parallel"])
    def test_three_components_match_stacked_product_bit_for_bit(self, kind, method):
        draws = [random_draws(seed, 300) for seed in (45, 46, 47)]
        grid = TimeGrid.regular(5.0, 30)
        mats = [_survival_matrix(d, grid.points) for d in draws]
        if kind == "series":
            r = np.prod(mats, axis=0)
        else:
            r = 1.0 - np.prod([1.0 - m for m in mats], axis=0)
        expect = _band_from_matrix(r, grid, 0.9, method)
        got = system_band(
            SystemFit(kind, tuple(make_fit(d) for d in draws)), grid, level=0.9, method=method
        )
        assert_bands_equal(got, expect)

    def test_draw_count_mismatch_rejected(self):
        f = SystemFit("series", (make_fit(random_draws(1, 100)), make_fit(random_draws(2, 99))))
        with pytest.raises(ValueError, match="draw counts"):
            system_band(f, TimeGrid.regular(2.0, 5))
