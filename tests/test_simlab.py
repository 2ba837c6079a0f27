"""Tests for simulation scenarios, censoring mechanics and the study grid."""

import os
import time

import numpy as np
import pytest

from relsys import io, simlab
from relsys.dists import GeneratorSpec, sample
from relsys.errors import NumericalError, UnsolvableError
from relsys.settings import FitConfig
from relsys.simlab import (
    ScenarioSpec,
    generate_censored_sample,
    generate_system_sample,
    grid_specs,
    run_forked,
    run_scenario,
)
from relsys.streams import RandomStream

FAST = FitConfig(n_p=300, burn_in=800, thin=3)

WEIBULL = GeneratorSpec("weibull", 2.0, 5.0)


class TestCensoredSample:
    def test_right_censors_the_largest_at_the_boundary_statistic(self):
        rng = np.random.default_rng(5)
        c = generate_censored_sample(WEIBULL, 30, 0.2, "right", rng)
        censored, exact = c.times[c.censored], c.times[~c.censored]
        assert len(censored) == 6
        assert len(exact) == 24
        assert np.all(censored == exact.max())

    def test_left_censors_the_smallest_at_the_boundary_statistic(self):
        rng = np.random.default_rng(6)
        c = generate_censored_sample(WEIBULL, 30, 0.2, "left", rng)
        censored, exact = c.times[c.censored], c.times[~c.censored]
        assert len(censored) == 6
        assert np.all(censored == exact.min())

    def test_rounding_is_half_away_from_zero(self):
        rng = np.random.default_rng(7)
        c = generate_censored_sample(WEIBULL, 30, 0.25, "right", rng)
        assert np.count_nonzero(c.censored) == 8  # 7.5 rounds up
        c = generate_censored_sample(WEIBULL, 10, 0.45, "right", np.random.default_rng(7))
        assert np.count_nonzero(c.censored) == 5  # 4.5 rounds up

    def test_zero_fraction_keeps_raw_draws_in_order(self):
        raw = sample(WEIBULL, 20, np.random.default_rng(9))
        c = generate_censored_sample(WEIBULL, 20, 0.0, "right", np.random.default_rng(9))
        assert np.array_equal(c.times, raw)
        assert not c.censored.any()

    def test_deterministic_given_stream(self):
        a = generate_censored_sample(WEIBULL, 15, 0.3, "left", np.random.default_rng(3))
        b = generate_censored_sample(WEIBULL, 15, 0.3, "left", np.random.default_rng(3))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.censored, b.censored)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="side"):
            generate_censored_sample(WEIBULL, 10, 0.1, "both", rng)
        with pytest.raises(ValueError, match="fraction"):
            generate_censored_sample(WEIBULL, 10, 1.0, "right", rng)
        with pytest.raises(ValueError, match="no exact"):
            generate_censored_sample(WEIBULL, 20, 0.99, "right", rng)


class TestSystemSample:
    GENS = (
        GeneratorSpec("weibull", 2.0, 4.0),
        GeneratorSpec("gamma", 2.0, 0.667),
        GeneratorSpec("lognormal", 2.014, 6.968),
    )

    def reconstruct(self, seed, n):
        rng = np.random.default_rng(seed)
        return np.column_stack([sample(g, n, rng) for g in self.GENS])

    def test_series_takes_minima_and_causes(self):
        s = generate_system_sample(self.GENS, "series", 50, np.random.default_rng(77))
        x = self.reconstruct(77, 50)
        assert s.kind == "series" and s.k == 3 and s.n == 50
        for i, (t, cause) in enumerate(zip(s.times.tolist(), s.causes.tolist())):
            assert t == pytest.approx(x[i].min(), rel=1e-15)
            assert cause == int(np.argmin(x[i])) + 1

    def test_parallel_takes_maxima(self):
        s = generate_system_sample(self.GENS, "parallel", 40, np.random.default_rng(78))
        x = self.reconstruct(78, 40)
        for i, (t, cause) in enumerate(zip(s.times.tolist(), s.causes.tolist())):
            assert t == pytest.approx(x[i].max(), rel=1e-15)
            assert cause == int(np.argmax(x[i])) + 1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="kind"):
            generate_system_sample(self.GENS, "mesh", 5, rng)
        with pytest.raises(ValueError, match="generator"):
            generate_system_sample((), "series", 5, rng)
        with pytest.raises(ValueError, match="size"):
            generate_system_sample(self.GENS, "series", 0, rng)

    def test_a_failing_draw_names_its_component(self):
        # no Weibull shape in [1e-3, 1e3] has a variance this small, and a
        # gamma of mean 3 and variance 1e6 (shape 9e-6) underflows to 0
        cases = [
            (GeneratorSpec("weibull", 2.0, 1e-12), 2, UnsolvableError, "no Weibull shape"),
            (GeneratorSpec("gamma", 3.0, 1e6), 3, NumericalError, "gamma generator with mean 3"),
        ]
        for bad, j, error, text in cases:
            gens = list(self.GENS)
            gens[j - 1] = bad
            with pytest.raises(error, match=f"^component {j}: {text}"):
                generate_system_sample(gens, "series", 50, np.random.default_rng(0))


class TestRunScenario:
    def spec(self, **kw):
        base = dict(
            generator=WEIBULL, n=25, censor_fraction=0.2, side="right", replicates=3
        )
        base.update(kw)
        return ScenarioSpec(**base)

    def test_summary_consistent_with_estimates(self):
        res = run_scenario(self.spec(), FAST, RandomStream(500))
        assert len(res.estimates) == 3
        assert res.n_failed == 0
        err = np.array(res.estimates) - 2.0
        assert res.bias == pytest.approx(err.mean(), rel=1e-12)
        assert res.mse == pytest.approx((err**2).mean(), rel=1e-12)

    def test_failed_replicates_keep_their_reason(self, monkeypatch):
        real = simlab.fit_component
        calls = []

        def flaky(data, cfg, source):
            calls.append(source)
            if len(calls) == 2:
                raise NumericalError("posterior kernel is -inf at the initial point")
            return real(data, cfg, source)

        monkeypatch.setattr(simlab, "fit_component", flaky)
        res = run_scenario(self.spec(), FAST, RandomStream(500))
        clean = run_scenario(self.spec(), FAST, RandomStream(500))
        assert res.failures == ((1, "posterior kernel is -inf at the initial point"),)
        assert res.n_failed == 1
        assert res.estimates == (clean.estimates[0], clean.estimates[2])

    def test_zero_censoring_is_side_blind(self):
        right = run_scenario(self.spec(censor_fraction=0.0, side="right"), FAST, RandomStream(11))
        left = run_scenario(self.spec(censor_fraction=0.0, side="left"), FAST, RandomStream(11))
        assert right.estimates == left.estimates
        assert right.bias == left.bias
        assert right.mse == left.mse

    def test_fewer_replicates_reproduce_a_prefix(self):
        short = run_scenario(self.spec(replicates=2), FAST, RandomStream(12))
        full = run_scenario(self.spec(replicates=3), FAST, RandomStream(12))
        assert short.estimates == full.estimates[:2]

    def test_estimates_land_near_the_true_mean(self):
        res = run_scenario(
            self.spec(n=60, censor_fraction=0.0, replicates=4), FAST, RandomStream(21)
        )
        assert abs(res.bias) < 0.6
        assert res.mse < 0.5


class TestRunGrid:
    def test_order_and_side_blind_zero_cells(self):
        specs = grid_specs(
            families=("weibull",),
            means=(2.0,),
            censor_fractions=(0.0, 0.2),
            sizes=(25,),
            sides=("right", "left"),
            variance=5.0,
            replicates=2,
        )
        results = [run_scenario(spec, FAST, RandomStream(31)) for spec in specs]
        assert len(results) == 4
        coords = [(r.spec.side, r.spec.censor_fraction) for r in results]
        assert coords == [("right", 0.0), ("right", 0.2), ("left", 0.0), ("left", 0.2)]
        right0, left0 = results[0], results[2]
        assert right0.estimates == left0.estimates
        assert (right0.bias, right0.mse) == (left0.bias, left0.mse)

    def test_deterministic(self):
        kw = dict(
            families=("weibull",),
            means=(2.0,),
            censor_fractions=(0.2,),
            sizes=(20,),
            sides=("right",),
            replicates=2,
        )
        a = [run_scenario(spec, FAST, RandomStream(32)) for spec in grid_specs(**kw)]
        b = [run_scenario(spec, FAST, RandomStream(32)) for spec in grid_specs(**kw)]
        assert a == b


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


class TestRunForked:
    def test_a_free_worker_takes_the_next_spec(self):
        # the slow first spec holds one worker; the other takes all the rest,
        # where dealing the specs out up front would give the slow one some
        pids = run_forked(_pid_after, [0.5, 0, 0, 0, 0, 0], 2)
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert pids[0] not in pids[1:]

    def test_more_indices_than_a_pipe_buffer_holds(self):
        # 80,000 bytes of indices: the parent's writes block until workers read
        n = 20_000
        assert run_forked(lambda i: -i, range(n), 3) == [-i for i in range(n)]


class TestScenarioSpec:
    def test_true_mean_is_the_generator_mean(self):
        s = ScenarioSpec(GeneratorSpec("lognormal", 7.0, 5.0), 30, 0.2, "left", 5)
        assert s.true_mean == 7.0

    def test_coords_are_keyed_as_the_study_columns(self):
        s = ScenarioSpec(GeneratorSpec("lognormal", 7.0, 5.0), 30, 0.2, "left", 5)
        assert s.coords == {
            "side": "left", "family": "lognormal", "censor_pct": 20.0, "true_mean": 7.0, "n": 30,
        }
        # study.csv rows start with the values in this order
        assert tuple(s.coords) == io.STUDY_HEADER[:5]

    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            ScenarioSpec(WEIBULL, 1, 0.0, "right", 1)
        with pytest.raises(ValueError, match="censor_fraction"):
            ScenarioSpec(WEIBULL, 10, -0.1, "right", 1)
        with pytest.raises(ValueError, match="side"):
            ScenarioSpec(WEIBULL, 10, 0.1, "middle", 1)
        with pytest.raises(ValueError, match="replicates"):
            ScenarioSpec(WEIBULL, 10, 0.1, "right", 0)
        with pytest.raises(ValueError, match="no exact"):
            ScenarioSpec(WEIBULL, 20, 0.99, "right", 1)
