"""Tests for reliability bands, their HPD and quantile bounds, and lifetime summaries."""

import math

import numpy as np
import pytest
from scipy.stats import weibull_min

import oracles
from relsys.curves import (
    ReliabilityBand,
    TimeGrid,
    _band_from_matrix,
    _survival_matrix,
    mean_time_posterior,
    reliability_band,
    system_band,
)
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


def hpd_rows(r, level):
    """The hpd band's bounds over the rows of ``r``, values in [0, 1]."""
    grid = TimeGrid(np.arange(float(r.shape[0])))
    band = _band_from_matrix(np.array(r, dtype=float), grid, level, "hpd")
    return band.lower, band.upper


class TestHpdInterval:
    def test_integers_one_to_hundred(self):
        lo, hi = hpd_rows(np.arange(1, 101)[None, :] / 100, 0.95)
        assert (lo[0], hi[0]) == (0.01, 0.95)

    def test_window_size_ignores_float_error_in_level_times_n(self):
        # 0.68 * 75 is 51.00000000000001 in floating point; the window holds
        # 51 of the 75 values, not 52.  Steps of 1/128 make every window of
        # 51 equally wide, so the lowest one, ending at 50/128, is taken.
        row = np.arange(75) / 128
        lo, hi = hpd_rows(row[None, :], 0.68)
        assert (lo[0] * 128, hi[0] * 128) == (0, 50)
        assert oracles.hpd_interval(row, 0.68) == (0.0, 50 / 128)

    def test_skewed_sample_shorter_than_quantile_interval(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, 5000)
        scale = x.max()
        x /= scale  # into [0, 1], where band values lie
        lo, hi = hpd_rows(x[None, :], 0.9)
        half = (1.0 - 0.9) / 2.0
        qlo, qhi = np.quantile(x, [half, 1.0 - half])
        assert hi[0] - lo[0] < qhi - qlo
        assert lo[0] * scale < 0.05  # mass hugs zero for an exponential
        # the quantile band's bounds are those same two quantiles
        band = _band_from_matrix(x[None, :], TimeGrid(np.zeros(1)), 0.9, "quantile")
        assert (band.lower[0], band.upper[0]) == (qlo, qhi)

    def test_window_covers_requested_mass(self):
        # every row of the drawn curves, hpd and quantile alike
        d = random_draws(4, 2000)
        grid = TimeGrid.regular(5.0, 20)
        r = _survival_matrix(d, grid.points)
        for level in (0.5, 0.95):
            for method in ("hpd", "quantile"):
                band = reliability_band(d, grid, level=level, method=method)
                inside = (r >= band.lower[:, None]) & (r <= band.upper[:, None])
                assert np.all(inside.mean(axis=1) >= level - 1.0 / d.n), method
            lo, hi = hpd_rows(r, level)
            inside = (r >= lo[:, None]) & (r <= hi[:, None])
            assert np.all(inside.sum(axis=1) >= math.ceil(level * d.n))

    def test_degenerate_sizes(self):
        grid = TimeGrid.regular(3.0, 4)
        one = make_draws([1.5], [2.0])
        for method in ("hpd", "quantile"):
            band = reliability_band(one, grid, method=method)
            assert np.array_equal(band.lower, band.mean)
            assert np.array_equal(band.upper, band.mean)
        # a window of ceil(0.99 * 50) = 50 is the whole sample
        d = random_draws(5, 50)
        r = _survival_matrix(d, grid.points)
        band = reliability_band(d, grid, level=0.99)
        assert np.array_equal(band.lower, r.min(axis=1))
        assert np.array_equal(band.upper, r.max(axis=1))

    def test_validation(self):
        d, grid = random_draws(6, 20), TimeGrid.regular(2.0, 4)
        for method in ("hpd", "quantile"):
            for level in (0.0, 1.0, math.nan):
                with pytest.raises(ValueError, match="level"):
                    reliability_band(d, grid, level=level, method=method)

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    def test_zero_draws_rejected(self, method):
        with pytest.raises(ValueError, match="length >= 1"):
            reliability_band(make_draws([], []), TimeGrid.regular(2.0, 4), method=method)

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    def test_nan_draw_rejected(self, method):
        d = make_draws([1.5, math.nan, 2.0], [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            reliability_band(d, TimeGrid.regular(2.0, 4), method=method)

    # (draws per row, level, value lattice or None for continuous values):
    # one draw, windows of the whole row (w == n), and coarse lattices
    # whose many equal values give equally short windows
    @pytest.mark.parametrize(
        "n, level, lattice",
        [(1, 0.95, 10), (3, 0.9, 3), (20, 0.99, 10), (64, 0.5, 3),
         (64, 0.95, 1000), (7, 0.3, None), (500, 0.95, None)],
    )
    def test_rows_match_scalar_oracle_bit_for_bit(self, n, level, lattice):
        rng = np.random.default_rng(n)
        if lattice is None:
            r = rng.random((25, n))
        else:
            r = rng.integers(0, lattice + 1, (25, n)) / lattice
        mean = r.mean(axis=1)
        band = _band_from_matrix(r.copy(), TimeGrid(np.arange(25.0)), level, "hpd")
        expect = np.array([oracles.hpd_interval(row, level) for row in r])
        assert np.array_equal(band.lower, expect[:, 0])
        assert np.array_equal(band.upper, expect[:, 1])
        # the mean is taken over the unsorted rows
        assert np.array_equal(band.mean, mean)


class TestReliabilityDraws:
    def test_matches_scalar_reliability(self):
        d = random_draws(10, 50)
        r = _survival_matrix(d, np.array([1.7]))[0]
        for rl, b, e in zip(r, d.betas, d.etas):
            assert rl == pytest.approx(weibull_min.sf(1.7, b, scale=e), rel=1e-12)

    def test_time_zero_gives_certain_survival(self):
        d = random_draws(11, 20)
        assert np.all(_survival_matrix(d, np.array([0.0])) == 1.0)


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
        for i, r in enumerate(_survival_matrix(d, grid.points)):
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
