"""Tests for reliability bands, their HPD and quantile bounds, and lifetime summaries."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import weibull_min

import oracles
from relsys.curves import (
    _BLOCK_BYTES,
    ReliabilityBand,
    TimeGrid,
    _band_from_matrix,
    _sorted_quantile,
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
        em_trace=(EmStep(1.0, 2.0),),
        converged=True,
        warnings=(),
        chains=2,
        min_weight_ess=1.0,
    )


def survival_matrix(d, times):
    return _survival_matrix(d.betas, np.log(d.etas), times)


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
    _, lower, upper = _band_from_matrix(np.array(r, dtype=float), level, "hpd")
    return lower, upper


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

    def test_tiny_level_window_holds_one_value(self):
        # ceil(4e-14 * 8000) rounds to a window of no values; it holds one,
        # every one-value window is 0 wide, and the lowest one is taken
        row = np.random.default_rng(5).random(8000)
        lo, hi = hpd_rows(row[None, :], 4e-14)
        assert lo[0] == hi[0] == row.min()
        assert oracles.hpd_interval(row, 4e-14) == (row.min(), row.min())

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
        _, lower, upper = _band_from_matrix(x[None, :], 0.9, "quantile")
        assert (lower[0], upper[0]) == (qlo, qhi)

    def test_window_covers_requested_mass(self):
        # every row of the drawn curves, hpd and quantile alike
        d = random_draws(4, 2000)
        grid = TimeGrid.regular(5.0, 20)
        r = survival_matrix(d, grid.points)
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
        r = survival_matrix(d, grid.points)
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
        got_mean, lower, upper = _band_from_matrix(r.copy(), level, "hpd")
        expect = np.array([oracles.hpd_interval(row, level) for row in r])
        assert np.array_equal(lower, expect[:, 0])
        assert np.array_equal(upper, expect[:, 1])
        # the mean is taken over the unsorted rows
        assert np.array_equal(got_mean, mean)


class TestQuantileBand:
    # (1 - 0.5) / 2 * (n - 1) is an integer at n = 1 and 41, so both the
    # exact order statistic and the clipped last index are covered; n = 3
    # at level 0.5 puts the fraction at 0.5, where the lerp switches ends
    @pytest.mark.parametrize("lattice", [None, 4])
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 41, 500, 8000])
    def test_bounds_equal_numpy_quantile_bit_for_bit(self, n, level, lattice):
        rng = np.random.default_rng(n)
        if lattice is None:
            r = rng.random((25, n))
        else:
            # a coarse lattice: many tied values in every row
            r = rng.integers(0, lattice + 1, (25, n)) / lattice
        half = (1.0 - level) / 2.0
        lower, upper = np.quantile(r, [half, 1.0 - half], axis=1)
        mean = r.mean(axis=1)
        got = _band_from_matrix(r.copy(), level, "quantile")
        for x, y in zip(got, (mean, lower, upper)):
            assert np.array_equal(x, y)


class TestPercentile99:
    """``relsys fit`` writes its ``t99`` anchor as the 0.99 quantile of the
    sorted sample, which must equal ``np.percentile(x, 99.0)`` bit for bit
    (that call imports ``numpy.ma``; the percentile divides 99 by 100 to
    the same 0.99)."""

    @staticmethod
    def assert_matches_percentile(x):
        got = float(_sorted_quantile(np.sort(x)[None, :], 0.99)[0])
        assert got == float(np.percentile(x, 99.0)), x.size

    @pytest.mark.parametrize("n", range(1, 13))
    def test_small_samples(self, n):
        self.assert_matches_percentile(np.random.default_rng(n).lognormal(0.0, 1.0, n))

    @pytest.mark.parametrize("n", [2, 7, 100, 101, 1000])
    def test_tied_values(self, n):
        rng = np.random.default_rng(n)
        self.assert_matches_percentile(rng.integers(1, 4, n) / 2.0)
        self.assert_matches_percentile(np.full(n, 1.7))

    def test_seeded_lognormal_samples(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(1, 10_001))
            self.assert_matches_percentile(rng.lognormal(rng.normal(), 2.0, n))


class TestReliabilityDraws:
    def test_matches_scalar_reliability(self):
        d = random_draws(10, 50)
        r = survival_matrix(d, np.array([1.7]))[0]
        for rl, b, e in zip(r, d.betas, d.etas):
            assert rl == pytest.approx(weibull_min.sf(1.7, b, scale=e), rel=1e-12)

    def test_time_zero_gives_certain_survival(self):
        d = random_draws(11, 20)
        assert np.all(survival_matrix(d, np.array([0.0])) == 1.0)

    def test_in_place_matrix_equals_the_textbook_formula_bit_for_bit(self):
        d = random_draws(12, 300)
        times = np.concatenate(([0.0], np.linspace(0.01, 6.0, 40)))
        with np.errstate(divide="ignore"):
            log_t = np.log(times)[:, None]
        expect = np.exp(-np.exp(d.betas * (log_t - np.log(d.etas))))
        assert np.array_equal(survival_matrix(d, times), expect)


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

    def test_overflowing_moments_read_inf_without_a_warning(self):
        # Gamma(101) ~ 9e157: the mean is finite and the spread's squares
        # overflow; Gamma(1 + 1e3) overflows the lifetime itself
        mean, sd = mean_time_posterior(make_draws([0.01, 0.02], [1.0, 1.0]))
        assert math.isfinite(mean) and sd == math.inf
        mean, _ = mean_time_posterior(make_draws([0.001, 1.0], [1.0, 1.0]))
        assert mean == math.inf


class TestSystemBand:
    def test_single_component_series_equals_component_band(self):
        d = random_draws(41)
        f = SystemFit("series", (make_fit(d),))
        grid = TimeGrid.regular(4.0, 25)
        assert_bands_equal(system_band(f, grid), reliability_band(d, grid))

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    def test_component_band_is_the_series_band_of_one_component(self, method):
        # at 300 draws a block holds 218 grid rows, so 661 points cross three
        # block edges
        d = random_draws(48, 300)
        grid = TimeGrid.regular(5.0, 3 * (_BLOCK_BYTES // (8 * d.n)) + 7)
        f = SystemFit("series", (make_fit(d),))
        assert_bands_equal(
            system_band(f, grid, level=0.9, method=method),
            reliability_band(d, grid, level=0.9, method=method),
        )

    def test_two_identical_components_compose(self):
        d = random_draws(42)
        grid = TimeGrid.regular(4.0, 15)
        series = system_band(SystemFit("series", (make_fit(d), make_fit(d))), grid)
        parallel = system_band(SystemFit("parallel", (make_fit(d), make_fit(d))), grid)
        for i, r in enumerate(survival_matrix(d, grid.points)):
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
        mats = [survival_matrix(d, grid.points) for d in draws]
        if kind == "series":
            r = np.prod(mats, axis=0)
        else:
            r = 1.0 - np.prod([1.0 - m for m in mats], axis=0)
        expect = ReliabilityBand(grid, *_band_from_matrix(r, 0.9, method), 0.9, method)
        got = system_band(
            SystemFit(kind, tuple(make_fit(d) for d in draws)), grid, level=0.9, method=method
        )
        assert_bands_equal(got, expect)

    def test_draw_count_mismatch_rejected(self):
        f = SystemFit("series", (make_fit(random_draws(1, 100)), make_fit(random_draws(2, 99))))
        with pytest.raises(ValueError, match="draw counts"):
            system_band(f, TimeGrid.regular(2.0, 5))


def one_shot_band(r, level, method):
    """Mean and bounds of every row of ``r`` in one reduction of the whole
    matrix: the hpd window from one argmin over all rows, the quantile
    bounds from ``np.quantile``."""
    mean = r.mean(axis=1)
    s = np.sort(r, axis=1)
    n = r.shape[1]
    if method == "hpd":
        w = min(math.ceil(round(level * n, 9)), n)
        i = np.argmin(s[:, w - 1 :] - s[:, : n - w + 1], axis=1)
        rows = np.arange(r.shape[0])
        return mean, s[rows, i], s[rows, i + w - 1]
    half = (1.0 - level) / 2.0
    lower, upper = np.quantile(r, [half, 1.0 - half], axis=1)
    return mean, lower, upper


class TestBlockEdges:
    """Bands built one block of grid rows at a time equal, bit for bit, one
    reduction of the whole draw-by-time matrix, on both sides of each block
    edge; at 70,000 draws a block is a single row."""

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    @pytest.mark.parametrize("kind", ["series", "parallel"])
    @pytest.mark.parametrize("n_draws", [300, 70_000])
    def test_bands_equal_one_shot_reduction(self, n_draws, kind, method):
        block = max(1, _BLOCK_BYTES // (8 * n_draws))
        assert (block == 1) == (n_draws == 70_000)
        draws = [random_draws(seed, n_draws) for seed in (71, 72)]
        f = SystemFit(kind, tuple(make_fit(d) for d in draws))
        for points in sorted({1, block - 1, block, block + 1, 3 * block + 7} - {0}):
            grid = TimeGrid(np.linspace(0.1, 5.0, points))
            mats = [survival_matrix(d, grid.points) for d in draws]
            if kind == "series":
                r = np.prod(mats, axis=0)
            else:
                r = 1.0 - np.prod([1.0 - m for m in mats], axis=0)
            for got, expect in [
                (reliability_band(draws[0], grid, level=0.9, method=method), mats[0]),
                (system_band(f, grid, level=0.9, method=method), r),
            ]:
                for x, y in zip(band_arrays(got), one_shot_band(expect, 0.9, method)):
                    assert np.array_equal(x, y), points


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that ``fn`` allocates while it runs, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBandMemory:
    """A band builds and reduces its survival values one block of grid rows
    at a time, so its peak is a fixed multiple of the block, whatever the
    grid size.  A component band holds one block and one row of hpd window
    widths, at most 8 bytes a draw; a system band holds the product block
    and one component block.  The half-block margin of a component band
    holds numpy's ufunc buffers (~130 kB), the row of widths and the output
    arrays; widths for a whole block, half a block at level 0.5, exceed it.
    Whatever the block size, the peaks must also stay within 0.3 and 0.45
    of the whole draw-by-time matrix at 4000 draws and 200 points, so a
    band that forms that matrix fails even if the block grows."""

    N, POINTS = 4000, 200
    MATRIX = 8 * N * POINTS
    COMPONENT_BOUND = min(1.5 * _BLOCK_BYTES, 0.3 * MATRIX)
    SYSTEM_BOUND = min(2.5 * _BLOCK_BYTES, 0.45 * MATRIX)
    # (level, grid points): level 0.5 has the hpd band's widest window-width
    # array, and ten times the points must not raise the peak
    CASES = [(0.95, POINTS), (0.5, POINTS), (0.5, 10 * POINTS)]

    @pytest.fixture(scope="class")
    def draws(self):
        return [random_draws(seed, self.N) for seed in (61, 62, 63)]

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    def test_component_band_holds_one_matrix(self, draws, method):
        for level, points in self.CASES:
            grid = TimeGrid.regular(5.0, points)
            peak = traced_peak(reliability_band, draws[0], grid, level=level, method=method)
            assert peak <= self.COMPONENT_BOUND, (level, points)

    @pytest.mark.parametrize("method", ["hpd", "quantile"])
    @pytest.mark.parametrize("kind", ["series", "parallel"])
    def test_system_band_holds_two_matrices(self, draws, kind, method):
        f = SystemFit(kind, tuple(make_fit(d) for d in draws))
        for level, points in self.CASES:
            grid = TimeGrid.regular(5.0, points)
            peak = traced_peak(system_band, f, grid, level=level, method=method)
            assert peak <= self.SYSTEM_BOUND, (level, points)
