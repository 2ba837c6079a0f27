"""Acceptance checks: one test per headline requirement, in order.

Each test exercises the deliverable end to end at desk scale and prints a
single summary line with the measured quantities next to their limits.
Chain lengths are reduced where a criterion allows it; reference
magnitudes quoted in comments come from 100-replicate runs of the same
designs and are applied with the stated slack.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
from datetime import datetime

import numpy as np
from scipy import integrate

from oracles import gamma_logpdf, masked_system_loglik, quadrature_posterior_means
from relsys.cli import main
from relsys.curves import TimeGrid, mean_time_posterior, reliability_band
from relsys.dists import ComponentParams, GeneratorSpec, MeanVarGamma, weibull_from_moments
from relsys.errors import RelsysError
from relsys.mcem import fit_component
from relsys.sampler import PosteriorDraws, run_chain
from relsys.settings import FitConfig
from relsys.simlab import ScenarioSpec, generate_censored_sample, run_scenario
from relsys.streams import RandomStream
from relsys.sysmodel import (
    ComponentSample,
    SystemSample,
    _bind_loglik,
    decompose,
    make_log_kernel,
)

# desk-scale chains for replicated studies: short per-iteration chains and
# a moderate final chain keep Monte-Carlo error well inside the tolerances
STUDY_CFG = FitConfig(n_p=500, burn_in=1000, thin=2)


def cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_01_uncensored_large_sample_bias_and_mse():
    # weibull mean 2 variance 5, n=1000, no censoring, 20 replicates;
    # the 100-replicate reference is bias -0.0057, MSE 0.0043
    spec = ScenarioSpec(
        generator=GeneratorSpec("weibull", 2.0, 5.0),
        n=1000,
        censor_fraction=0.0,
        side="right",
        replicates=20,
    )
    r = run_scenario(spec, STUDY_CFG, 42)
    print(
        f"\n[01] n=1000 uncensored: |bias|={abs(r.bias):.4f} (limit 0.05), "
        f"mse={r.mse:.4f} (limit 0.02)"
    )
    assert r.n_failed == 0
    assert abs(r.bias) <= 0.05
    assert r.mse <= 0.02


def test_02_bias_grows_with_censoring_fraction():
    # weibull mean 2 variance 5 at n=100; reference |bias| magnitudes at
    # 100 replicates are 0.0426 / 0.1242 / 0.2394 for p = 0 / 0.2 / 0.4,
    # accepted here within 3x at 20 replicates
    limits = (3 * 0.0426, 3 * 0.1242, 3 * 0.2394)
    biases = []
    for p in (0.0, 0.2, 0.4):
        spec = ScenarioSpec(
            generator=GeneratorSpec("weibull", 2.0, 5.0),
            n=100,
            censor_fraction=p,
            side="right",
            replicates=20,
        )
        r = run_scenario(spec, STUDY_CFG, 33)
        assert r.n_failed == 0
        biases.append(abs(r.bias))
    print(
        f"\n[02] |bias| by censoring 0/20/40%: "
        f"{biases[0]:.4f} < {biases[1]:.4f} < {biases[2]:.4f} "
        f"(limits {limits[0]:.3f}/{limits[1]:.3f}/{limits[2]:.3f})"
    )
    assert biases[0] < biases[1] < biases[2]
    for b, limit in zip(biases, limits):
        assert b <= limit


def test_03_zero_censoring_is_side_blind():
    cfg = FitConfig(tol=0.02, n_p=200, burn_in=400, thin=2)
    rows = []
    for side in ("right", "left"):
        spec = ScenarioSpec(
            generator=GeneratorSpec("gamma", 2.0, 5.0),
            n=30,
            censor_fraction=0.0,
            side=side,
            replicates=6,
        )
        rows.append(run_scenario(spec, cfg, 5))
    right, left = rows
    print(
        f"\n[03] p=0 side identity: right bias={right.bias!r} == "
        f"left bias={left.bias!r}"
    )
    assert right.estimates == left.estimates
    assert right.bias == left.bias
    assert right.mse == left.mse


def test_04_closed_form_mean_matches_quadrature():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        p = ComponentParams(float(rng.uniform(0.3, 10.0)), float(rng.uniform(0.3, 5.0)))
        # two equal draws: the posterior mean lifetime is the closed form of one
        pair = np.full(2, p.beta), np.full(2, p.eta)
        closed = mean_time_posterior(PosteriorDraws(*pair, 0.3, 0.2, 0.0, 0.0, ()))[0]
        quad, err = integrate.quad(
            lambda t: math.exp(-((t / p.eta) ** p.beta)),
            0.0,
            math.inf,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        assert err < 1e-9
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    print(f"\n[04] closed-form mean vs integral: worst rel error {worst:.2e} (limit 1e-8)")
    assert worst <= 1e-8


def test_05_system_loglik_factorizes_over_components():
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 51))
        kind = "series" if i % 2 == 0 else "parallel"
        s = SystemSample(kind, k, rng.gamma(2.0, 1.0, n) + 0.05, rng.integers(1, k + 1, n))
        params = [
            ComponentParams(float(rng.uniform(0.4, 5.0)), float(rng.uniform(0.3, 4.0)))
            for _ in range(k)
        ]
        whole = masked_system_loglik(kind, s.times, s.causes, params)
        parts = sum(
            _bind_loglik(c)(p.beta, math.log(p.beta), math.log(p.eta))
            for c, p in zip(decompose(s), params)
        )
        assert math.isfinite(whole)
        worst = max(worst, abs(whole - parts) / max(1.0, abs(whole)))
    print(f"\n[05] factorization over 100 systems: worst rel error {worst:.2e} (limit 1e-12)")
    assert worst <= 1e-12


TINY_DATASETS = [
    ("right", [(1.1, False), (0.8, False), (2.3, True), (1.7, False), (3.0, True), (2.6, False)]),
    ("right", [(0.5, False), (0.9, True), (0.7, False), (1.4, True), (0.3, False)]),
    ("left", [(0.6, True), (1.8, False), (2.4, False), (0.9, True), (3.1, False), (1.2, False), (2.0, False)]),
    ("left", [(4.2, False), (1.1, True), (2.7, False), (3.3, False), (0.8, True), (5.0, False), (2.2, True), (3.9, False), (1.9, False), (4.6, False)]),
    ("right", [(2.1, False), (3.4, False), (1.2, False), (4.8, True), (2.9, False), (3.8, True), (1.7, False), (4.1, True)]),
]


def test_06_tiny_sample_posteriors_match_quadrature():
    # wide tiny-sample posteriors need a loose EM tolerance; the grid
    # posterior is evaluated at whatever hyper-means the fit settles on
    cfg = FitConfig(tol=5e-3, n_p=3000, burn_in=5000, thin=10)
    worst = 0.0
    for i, (side, recs) in enumerate(TINY_DATASETS):
        times, censored = zip(*recs)
        c = ComponentSample(side, np.array(times), np.array(censored))
        fit = fit_component(c, cfg, RandomStream(60 + i))
        lb, le = np.log(fit.draws.betas), np.log(fit.draws.etas)
        kernel = make_log_kernel(
            c, (MeanVarGamma(fit.m_beta, 4.0), MeanVarGamma(fit.m_eta, 4.0))
        )
        u0, hu = float(lb.mean()), max(6.0 * float(lb.std()), 1.0)
        w0, hw = float(le.mean()), max(6.0 * float(le.std()), 1.0)
        qb, qe = quadrature_posterior_means(kernel, (u0 - hu, u0 + hu), (w0 - hw, w0 + hw))
        rb = abs(float(fit.draws.betas.mean()) - qb) / qb
        re = abs(float(fit.draws.etas.mean()) - qe) / qe
        worst = max(worst, rb, re)
    print(f"\n[06] chain vs 200x200 grid posterior: worst rel error {worst:.3%} (limit 5%)")
    assert worst <= 0.05


def test_07_sampler_reproduces_known_gamma_means():
    g_beta = MeanVarGamma(2.0, 1.0)
    g_eta = MeanVarGamma(3.0, 1.5)

    def kernel(p: tuple[float, float]) -> float:
        beta, eta = p
        return gamma_logpdf(beta, g_beta.mean, g_beta.variance) + gamma_logpdf(
            eta, g_eta.mean, g_eta.variance
        )

    def se(x, rho):
        rho = min(max(rho, 0.0), 0.99)
        return x.std(ddof=1) / math.sqrt(x.size) * math.sqrt((1 + rho) / (1 - rho))

    worst = 0.0
    for seed in (11, 12, 13):
        d = run_chain(
            kernel,
            FitConfig(n_p=2000, burn_in=3000, thin=5),
            np.random.default_rng(seed),
        )
        zb = abs(d.betas.mean() - 2.0) / se(d.betas, d.lag1_beta)
        ze = abs(d.etas.mean() - 3.0) / se(d.etas, d.lag1_eta)
        worst = max(worst, zb, ze)
    print(f"\n[07] gamma-target calibration: worst |z| {worst:.2f} (limit 4 SE, 3 seeds)")
    assert worst <= 4.0


def test_08_band_covers_true_reliability_at_median():
    # weibull mean 2 variance 4, n=100, uncensored; the 95% band at the
    # true median time must cover R=0.5 in at least 80% of replicates
    g = GeneratorSpec("weibull", 2.0, 4.0)
    truth = weibull_from_moments(2.0, 4.0)
    t_med = truth.eta * math.log(2.0) ** (1.0 / truth.beta)
    base = RandomStream(7)
    at_median = TimeGrid(np.array([t_med]))
    hits = fails = 0
    for r in range(50):
        rep = base.child(r)
        data = generate_censored_sample(g, 100, 0.0, "right", rep.child(0).generator())
        try:
            fit = fit_component(data, STUDY_CFG, rep.child(1))
        except RelsysError:
            fails += 1
            continue
        band = reliability_band(fit.draws, at_median, 0.95, "hpd")
        hits += band.lower[0] <= 0.5 <= band.upper[0]
    print(f"\n[08] median-time band coverage: {hits}/50 (limit >= 40), {fails} failed fits")
    assert hits >= 40


EXAMPLE_SPEC = """\
kind = {kind}
n = 100
component1.family = weibull
component1.mean = 2.0
component1.variance = 4.0
component2.family = gamma
component2.mean = 2.0
component2.variance = 0.667
component3.family = lognormal
component3.mean = 2.014
component3.variance = 6.968
"""


def test_09_three_component_showcase_regenerates(tmp_path):
    # reference censoring percentages 64/80/56 (series) and 61/68/71
    # (parallel), accepted within +-10; series posterior-mean lifetimes
    # 2.13/1.87/1.68, accepted within +-0.5 (the generating seed behind
    # the reference run is unknown, so this is a magnitude check)
    sims = {}
    for kind in ("series", "parallel"):
        spec = tmp_path / f"{kind}.cfg"
        spec.write_text(EXAMPLE_SPEC.format(kind=kind))
        out = tmp_path / f"sim_{kind}"
        assert cli("simulate", "--spec", spec, "--seed", 24, "--out", out) == 0
        sims[kind] = json.loads((out / "manifest.json").read_text())
    series_pct = sims["series"]["achieved_censoring_pct"]
    parallel_pct = sims["parallel"]["achieved_censoring_pct"]
    for got, want in zip(series_pct, (64.0, 80.0, 56.0)):
        assert abs(got - want) <= 10.0
    for got, want in zip(parallel_pct, (61.0, 68.0, 71.0)):
        assert abs(got - want) <= 10.0

    fit_dir = tmp_path / "fit_series"
    rc = cli(
        "fit", tmp_path / "sim_series" / "sample.csv",
        "--kind", "series", "--k", "3", "--seed", "0", "--out", fit_dir,
    )
    assert rc == 0
    hyper = json.loads((fit_dir / "hyper_estimates.json").read_text())
    mean_times = [c["mean_time"] for c in hyper["components"]]
    print(
        f"\n[09] censoring series={[round(x) for x in series_pct]} "
        f"parallel={[round(x) for x in parallel_pct]} (refs 64/80/56, 61/68/71 +-10); "
        f"series E(T)={[round(x, 3) for x in mean_times]} (refs 2.13/1.87/1.68 +-0.5)"
    )
    assert all(c["converged"] for c in hyper["components"])
    for got, want in zip(mean_times, (2.13, 1.87, 1.68)):
        assert abs(got - want) <= 0.5


def test_10_reruns_are_byte_identical_except_timestamps(tmp_path):
    spec_text = (
        "kind = series\nn = 20\n"
        "component1.family = weibull\ncomponent1.mean = 2.0\ncomponent1.variance = 1.0\n"
        "component2.family = gamma\ncomponent2.mean = 3.0\ncomponent2.variance = 2.0\n"
    )
    subset_text = (
        "families = weibull\nsides = right\nsizes = 8\n"
        "means = 2.0\ncensor-fractions = 0.0,0.2\n"
    )

    def pipeline(name):
        root = tmp_path / name
        root.mkdir()
        spec = root / "system.cfg"
        spec.write_text(spec_text)
        subset = root / "subset.cfg"
        subset.write_text(subset_text)
        assert cli("simulate", "--spec", spec, "--seed", 7, "--out", root / "sim") == 0
        assert cli(
            "fit", root / "sim" / "sample.csv", "--kind", "series", "--k", "2",
            "--np", "80", "--burnin", "300", "--thin", "2", "--tol", "0.02",
            "--seed", 11, "--out", root / "fit",
        ) == 0
        assert cli(
            "reliability", root / "fit", "--grid-points", "30", "--out", root / "bands"
        ) == 0
        assert cli(
            "study", "--grid", subset, "--replicates", "2",
            "--np", "50", "--burnin", "100", "--thin", "1", "--tol", "0.05",
            "--seed", 3, "--out", root / "study",
        ) == 0
        return root

    a = pipeline("a")
    b = pipeline("b")
    identical = manifests = 0
    for file_a in sorted(p for p in a.rglob("*") if p.is_file()):
        file_b = b / file_a.relative_to(a)
        if file_a.name == "manifest.json":
            ma = json.loads(file_a.read_text())
            mb = json.loads(file_b.read_text())
            for m in (ma, mb):
                stamps = m.pop("timestamps")
                assert set(stamps) == {"started", "finished"}
                started, finished = (
                    datetime.fromisoformat(stamps[key]) for key in ("started", "finished")
                )
                assert started.tzinfo is not None and started <= finished
            assert ma == mb
            manifests += 1
        else:
            assert file_a.read_bytes() == file_b.read_bytes()
            identical += 1
    print(
        f"\n[10] rerun determinism: {identical} files byte-identical, "
        f"{manifests} manifests equal after dropping timestamps"
    )
    assert identical >= 10 and manifests == 4
