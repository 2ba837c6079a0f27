"""End-to-end tests for the command line interface.

Each test drives ``main`` in process with a temp directory and checks the
exit code, the files written, and the error text on the usual failure
paths.  Byte-level determinism across reruns is asserted explicitly.
"""

import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relsys
from relsys import cli as cli_module
from relsys import io, mcem, settings, simlab
from relsys.cli import main
from relsys.errors import DataError, NumericalError, UsageError
from relsys.mcem import fit_system
from relsys.sampler import PosteriorDraws
from relsys.settings import FitConfig
from relsys.simlab import grid_specs
from relsys.streams import RandomStream

SPEC = """\
# two-component series rig
kind = series
n = 25
component1.family = weibull
component1.mean = 2.0
component1.variance = 1.0
component2.family = gamma
component2.mean = 3.0
component2.variance = 2.0
"""

# small chains keep these tests fast; correctness of the estimates
# themselves is covered by the library test modules
FAST_FIT = ("--np", "60", "--burnin", "200", "--thin", "2", "--tol", "0.02")

COMPONENT_CSV = "time,event\n" + "".join(
    f"{t},{e}\n"
    for t, e in [
        (1.2, 1), (0.7, 1), (2.9, 0), (1.9, 1), (0.4, 1), (2.9, 0),
        (1.1, 1), (2.2, 1), (0.9, 1), (2.9, 0), (1.6, 1), (2.4, 1),
    ]
)


def cli(*argv) -> int:
    return main([str(a) for a in argv])


def simulate(tmp_path, seed=7, spec=SPEC, name="sim"):
    spec_file = tmp_path / "system.cfg"
    spec_file.write_text(spec)
    out = tmp_path / name
    rc = cli("simulate", "--spec", spec_file, "--seed", seed, "--out", out)
    assert rc == 0
    return out


def fit(tmp_path, sim_dir, seed=11, name="fit", *extra):
    out = tmp_path / name
    rc = cli(
        "fit", sim_dir / "sample.csv", "--kind", "series", "--k", "2",
        *FAST_FIT, "--seed", seed, "--out", out, *extra,
    )
    assert rc == 0
    return out


def manifest_of(out_dir) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


class TestSimulateCommand:
    def test_writes_sample_and_manifest(self, tmp_path):
        out = simulate(tmp_path)
        lines = (out / "sample.csv").read_text().splitlines()
        assert lines[0] == "time,cause"
        assert len(lines) == 26
        for line in lines[1:]:
            t, cause = line.split(",")
            assert float(t) > 0.0
            assert cause in ("1", "2")
        m = manifest_of(out)
        assert m["command"] == "simulate"
        assert m["seed"] == 7
        assert m["config"]["kind"] == "series"
        assert len(m["achieved_censoring_pct"]) == 2
        digest = hashlib.sha256((out / "sample.csv").read_bytes()).hexdigest()
        assert m["outputs"]["sample.csv"] == digest

    def test_single_observation(self, tmp_path):
        spec = SPEC.replace("n = 25", "n = 1")
        out = simulate(tmp_path, spec=spec)
        assert len((out / "sample.csv").read_text().splitlines()) == 2

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC + "component1.shape = 2\n")
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 1
        assert "component1.shape" in capsys.readouterr().err

    ZERO = "component0.family = weibull\ncomponent0.mean = 2.0\ncomponent0.variance = 1.0\n"

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("kind = series\nn = 5\n" + ZERO, "component0.family"),
            (SPEC + ZERO, "component0.family"),
            (SPEC + "component01.mean = 9\n", "component01.mean"),
        ],
        ids=["zero_alone", "zero_beside_one", "leading_zero"],
    )
    def test_components_are_numbered_from_one(self, tmp_path, capsys, spec, key):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(spec)
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{spec_file}: unknown key {key!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_moments_name_the_component(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC.replace("component2.mean = 3.0", "component2.mean = -3.0"))
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 1
        assert "component 2" in capsys.readouterr().err

    def test_unsolvable_weibull_moments_exit_numerical(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC.replace("component1.variance = 1.0", "component1.variance = 1e-12"))
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 3
        assert "component 1" in capsys.readouterr().err

    def test_zero_lifetimes_exit_numerical(self, tmp_path, capsys):
        # a gamma of mean 3 and variance 1e6 has shape 9e-6: its draws
        # underflow to exactly 0
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC.replace("component2.variance = 2.0", "component2.variance = 1e6"))
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 3
        assert "gamma generator with mean 3 and variance 1e+06" in capsys.readouterr().err

    def test_missing_component_number(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC.replace("component2", "component3"))
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 1
        assert "component 2" in capsys.readouterr().err

    def test_negative_spec_seed_names_the_file(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC + "seed = -3\n")
        rc = cli("simulate", "--spec", spec_file, "--out", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{spec_file}: seed must be >= 0, got -3" in err
        assert "--seed" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC + "seed = 5\n")
        rc = cli("simulate", "--spec", spec_file, "--seed", "-1", "--out", tmp_path / "out")
        assert rc == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_env_var_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELSYS_SEED", "99")
        monkeypatch.setenv("SEED", "99")
        spec_file = tmp_path / "system.cfg"
        spec_file.write_text(SPEC)
        out = tmp_path / "out"
        assert cli("simulate", "--spec", spec_file, "--out", out) == 0
        assert manifest_of(out)["seed"] == 0


class TestFitCommand:
    def test_outputs_match_direct_library_call(self, tmp_path):
        sim = simulate(tmp_path)
        out = fit(tmp_path, sim)
        for name in ("draws_component1.csv", "draws_component2.csv",
                     "em_trace.csv", "hyper_estimates.json", "manifest.json"):
            assert (out / name).exists()
        sample = io.read_system_csv(sim / "sample.csv", "series", 2)
        cfg = FitConfig(prior_variance=4.0, tol=0.02, n_p=60, burn_in=200, thin=2)
        fits = fit_system(sample, cfg, RandomStream(11)).components
        for j, f in enumerate(fits, start=1):
            betas, etas = io.read_draws_csv(out / io.draws_filename(j), j)
            assert np.array_equal(betas, f.draws.betas)
            assert np.array_equal(etas, f.draws.etas)
        hyper = json.loads((out / "hyper_estimates.json").read_text())
        assert hyper["kind"] == "series"
        assert hyper["k"] == 2
        assert hyper["t99"] == float(np.percentile(sample.times, 99.0))
        manifest = manifest_of(out)
        for j, c in enumerate(hyper["components"], start=1):
            f = fits[j - 1]
            assert c["component"] == j
            assert c["m_beta"] == f.m_beta
            assert c["m_eta"] == f.m_eta
            assert isinstance(c["converged"], bool)
            work = {"iterations": len(f.em_trace) - 1, "chains": f.chains,
                    "min_weight_ess": f.min_weight_ess}
            assert {key: c[key] for key in work} == work
            assert {key: manifest["components"][j - 1][key] for key in work} == work

    def test_trace_rows_cover_all_components(self, tmp_path):
        sim = simulate(tmp_path)
        out = fit(tmp_path, sim)
        lines = (out / "em_trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,component,m_beta,m_eta"
        comps = {line.split(",")[1] for line in lines[1:]}
        assert comps == {"1", "2"}

    def test_component_form_with_side(self, tmp_path):
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        out = tmp_path / "fit"
        rc = cli("fit", data, "--side", "right", *FAST_FIT, "--seed", 3, "--out", out)
        assert rc == 0
        hyper = json.loads((out / "hyper_estimates.json").read_text())
        assert hyper["kind"] == "component"
        assert hyper["k"] == 1
        assert hyper["side"] == "right"
        assert (out / "draws_component1.csv").exists()

    def test_component_form_requires_side(self, tmp_path, capsys):
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        rc = cli("fit", data, "--out", tmp_path / "fit")
        assert rc == 1
        assert "--side" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, flags, named",
        [
            ("time,cause", ("--kind", "series", "--k", "2", "--side", "left"), "--side"),
            ("time,event", ("--side", "right", "--kind", "parallel", "--k", "7"),
             "--kind or --k"),
            ("time,event", ("--side", "right", "--k", "1"), "--k"),
        ],
    )
    def test_flags_the_header_does_not_take_are_usage_errors(
        self, tmp_path, capsys, header, flags, named
    ):
        # a parallel fit asked of component data must not become a
        # component fit without a word
        if header == "time,cause":
            data = simulate(tmp_path) / "sample.csv"
        else:
            data = tmp_path / "comp.csv"
            data.write_text(COMPONENT_CSV)
        out = tmp_path / "fit"
        rc = cli("fit", data, *flags, *FAST_FIT, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"'{header}' header; it does not take {named}" in err
        assert not out.exists()

    def test_system_form_requires_kind_and_k(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        rc = cli("fit", sim / "sample.csv", "--out", tmp_path / "fit")
        assert rc == 1
        assert "--kind" in capsys.readouterr().err

    def test_single_draw_is_usage_error(self, tmp_path, capsys):
        # one draw has no standard deviation, which would be written as NaN
        sim = simulate(tmp_path)
        out = tmp_path / "fit"
        rc = cli("fit", sim / "sample.csv", "--kind", "series", "--k", "2",
                 "--np", "1", "--out", out)
        assert rc == 1
        assert "--np must be >= 2" in capsys.readouterr().err
        assert not (out / "hyper_estimates.json").exists()

    def test_cause_outside_range_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("time,cause\n1.0,1\n2.0,5\n3.0,2\n")
        rc = cli("fit", data, "--kind", "series", "--k", "3",
                 "--out", tmp_path / "fit")
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "cause 5" in err

    @pytest.mark.parametrize(
        "header, shape",
        [("time,cause", ("--kind", "series", "--k", "2")), ("time,event", ("--side", "left"))],
    )
    def test_header_only_file_is_data_error(self, tmp_path, capsys, header, shape):
        data = tmp_path / "empty.csv"
        data.write_text(header + "\n\n")
        rc = cli("fit", data, *shape, "--out", tmp_path / "fit")
        assert rc == 2
        assert "at least one" in capsys.readouterr().err

    def test_unrecognized_header_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("hours,failed\n1.0,1\n")
        rc = cli("fit", data, "--kind", "series", "--k", "1",
                 "--out", tmp_path / "fit")
        assert rc == 2
        assert "hours,failed" in capsys.readouterr().err

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        rc = cli("fit", tmp_path / "absent.csv", "--kind", "series", "--k", "1",
                 "--out", tmp_path / "fit")
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_iteration_cap_still_exits_zero(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "fit"
        rc = cli("fit", sim / "sample.csv", "--kind", "series", "--k", "2",
                 *FAST_FIT, "--max-iter", "1", "--seed", 11, "--out", out)
        assert rc == 0
        hyper = json.loads((out / "hyper_estimates.json").read_text())
        assert all(not c["converged"] for c in hyper["components"])
        assert all(not c["converged"] for c in manifest_of(out)["components"])

    def test_defaults_come_from_fit_config(self, tmp_path, monkeypatch, capsys):
        # a default-chain fit takes minutes, so the fit itself runs short
        # chains; the settings the command built are recorded and compared
        built = []

        def recording(comp, cfg, source):
            built.append(cfg)
            short = FitConfig(tol=0.02, n_p=60, burn_in=200, thin=2)
            return mcem.fit_component(comp, short, source)

        monkeypatch.setattr(cli_module, "fit_component", recording)
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        out = tmp_path / "fit"
        assert cli("fit", data, "--side", "right", "--out", out) == 0
        d = FitConfig()
        assert built == [d]
        expect = {
            "v": d.prior_variance,
            "np": d.n_p,
            "burnin": d.burn_in,
            "thin": d.thin,
            "tol": d.tol,
            "max-iter": d.max_iter,
        }
        config = manifest_of(out)["config"]
        assert {key: config[key] for key in expect} == expect

        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        text = " ".join(help_text[help_text.index("options:"):].split())
        for flag, value in [
            ("--v V", f"{d.prior_variance:g}"),
            ("--np NP", d.n_p),
            ("--burnin BURNIN", d.burn_in),
            ("--thin THIN", d.thin),
            ("--tol TOL", f"{d.tol:g}"),
            ("--max-iter MAX_ITER", d.max_iter),
        ]:
            entry = text[text.index(flag):]
            assert f"(default {value})" in entry[:entry.index(" --", len(flag))]

    def test_a_fit_that_fails_after_making_out_writes_no_manifest(self, tmp_path, capsys):
        # times spread over e^-100..e^100 pin the prior-mean update at its
        # lower bound, after --out is made
        times = np.exp(np.random.default_rng(1).uniform(-100, 100, 40))
        data = tmp_path / "wide.csv"
        data.write_text("time,event\n" + "".join(f"{t!r},1\n" for t in times.tolist()))
        out = tmp_path / "fit"
        assert cli("fit", data, "--side", "right", "--np", "20", "--burnin", "100",
                   "--thin", "1", "--out", out) == 3
        assert "prior-mean update pinned at the lower bound 1e-09" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    # at --v 1e-300 the M step's gamma shape overflows log-gamma, and at
    # --v 1e308 it underflows to 0: the fit fails with a numerical error
    @pytest.mark.parametrize("v", ["1e-300", "1e308"])
    def test_extreme_prior_variance_is_a_numerical_error(self, tmp_path, capsys, v):
        data = tmp_path / "comp.csv"
        data.write_text("time,event\n0.4,1\n0.9,1\n1.3,0\n1.8,1\n2.5,1\n3.1,0\n")
        assert cli("fit", data, "--side", "right", "--v", v, "--np", "50", "--burnin",
                   "100", "--thin", "1", "--out", tmp_path / "fit") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: prior-mean update failed at prior variance {float(v):g}: ")
        assert "Traceback" not in err

    def test_absurd_mean_lifetime_is_flagged_and_written_as_strict_json(
        self, tmp_path, capsys
    ):
        # at default chains component 1's lifetime posterior is so heavy
        # tailed that its mean is ~3e237 and its spread overflows
        data = tmp_path / "sample.csv"
        data.write_text(
            "time,cause\n2.843933884168326,2\n1.3657956793612256,2\n10.75087374522157,1\n"
        )
        out = tmp_path / "fit"
        assert cli("fit", data, "--kind", "parallel", "--k", 2, "--out", out) == 0
        captured = capsys.readouterr()

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        for name in ("hyper_estimates.json", "manifest.json"):
            json.loads((out / name).read_text(), parse_constant=reject)
        c1, c2 = json.loads((out / "hyper_estimates.json").read_text())["components"]
        assert c1["mean_time"] > 1e3 * 10.75087374522157
        assert c1["sd_time"] is None
        [warning] = c1["warnings"]
        assert warning.startswith("absurd posterior mean lifetime ")
        assert "(the largest time in the data is 10.7509)" in warning
        assert f"component 1: warning: {warning}" in captured.err
        assert f"mean_time={c1['mean_time']:.6g} " in captured.out
        assert c2["warnings"] == [] and c2["sd_time"] is not None
        assert "Warning" not in captured.err


@pytest.mark.parametrize("key, value", [("v", "inf"), ("v", "nan"), ("tol", "nan"), ("tol", "inf")])
@pytest.mark.parametrize("form", ["fit flag", "fit config", "study flag"])
def test_non_finite_chain_setting_is_usage_error(tmp_path, capsys, key, value, form):
    out = tmp_path / "out"
    if form == "study flag":
        rc = cli("study", f"--{key}", value, "--out", out)
    else:
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        if form == "fit flag":
            extra = (f"--{key}", value)
        else:
            cfg_file = tmp_path / "fit.cfg"
            cfg_file.write_text(f"{key} = {value}\n")
            extra = ("--config", cfg_file)
        rc = cli("fit", data, "--side", "right", *extra, "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: --{key} must be finite and positive, got {value}" in err
    assert "Traceback" not in err
    assert not (out / "hyper_estimates.json").exists()
    assert not (out / "study.csv").exists()


class TestConfigFiles:
    """``--config`` on ``fit`` and ``reliability``: a file of ``key = value``
    lines acts as the flags it names, and the command line's flags win."""

    SETTINGS = {
        "fit": {"kind": "series", "k": "2", "np": "60", "burnin": "200",
                "thin": "2", "tol": "0.02", "seed": "11"},
        "reliability": {"grid-max": "2.5", "grid-points": "15", "level": "0.9",
                        "method": "quantile"},
    }

    @pytest.fixture
    def inputs(self, tmp_path):
        """The data argument of each command: a sample and a fit of it."""
        sim = simulate(tmp_path)
        return {"fit": sim / "sample.csv", "reliability": fit(tmp_path, sim)}

    def run(self, tmp_path, command, data, name, settings=None, flags=None):
        """Run ``command`` with ``settings`` as a config file and ``flags`` as
        flags; return every output's bytes, and the manifest less timestamps."""
        argv = [command, data]
        if settings is not None:
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            argv += ["--config", cfg_file]
        for key, value in (flags or {}).items():
            argv += [f"--{key}", value]
        out = tmp_path / name
        assert cli(*argv, "--out", out) == 0
        m = manifest_of(out)
        m.pop("timestamps")
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        return files, m

    @pytest.mark.parametrize("command", ["fit", "reliability"])
    def test_config_file_acts_as_its_flags(self, tmp_path, inputs, command):
        s = self.SETTINGS[command]
        data = inputs[command]
        by_flags = self.run(tmp_path, command, data, "flags", flags=s)
        by_config = self.run(tmp_path, command, data, "config", settings=s)
        assert by_config == by_flags

    @pytest.mark.parametrize("command", ["fit", "reliability"])
    def test_flag_beats_config_key(self, tmp_path, inputs, command):
        s = self.SETTINGS[command]
        key, flag_value, config_value = {
            "fit": ("np", "50", "40"),
            "reliability": ("level", "0.8", "0.6"),
        }[command]
        data = inputs[command]
        flagged = {**s, key: flag_value}
        by_flags = self.run(tmp_path, command, data, "flags", flags=flagged)
        mixed = self.run(tmp_path, command, data, "mixed",
                         settings={**s, key: config_value}, flags={key: flag_value})
        assert mixed == by_flags

    @pytest.mark.parametrize("command", ["fit", "reliability"])
    @pytest.mark.parametrize("key", ["out", "config", "prior-variance"])
    def test_unknown_key_names_file_and_key(self, tmp_path, capsys, command, key):
        cfg_file = tmp_path / "settings.cfg"
        cfg_file.write_text(f"{key} = x\n")
        out = tmp_path / "out"
        rc = cli(command, tmp_path, "--config", cfg_file, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert "settings.cfg" in err
        assert repr(key) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("fit", "np", "abc"),
            ("fit", "tol", "small"),
            ("fit", "kind", "paralel"),
            ("reliability", "grid-points", "abc"),
            ("reliability", "level", "high"),
            ("reliability", "method", "foo"),
        ],
    )
    def test_bad_value_names_the_key(self, tmp_path, capsys, command, key, value):
        cfg_file = tmp_path / "settings.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        rc = cli(command, tmp_path, "--config", cfg_file, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(rf"\b{re.escape(key)}\b.*'{value}'", err), err
        assert "Traceback" not in err
        assert not out.exists()


class TestUndecodableInput:
    BAD = b"time,cause\n1.0,1\n\xff\xfe,2\n"

    @pytest.mark.parametrize(
        "read",
        [
            io.read_header,
            lambda path: io.read_system_csv(path, "series", 2),
            lambda path: io.read_component_csv(path, "right"),
            lambda path: io.read_draws_csv(path, 1),
            io.read_json,
        ],
        ids=["header", "system", "component", "draws", "json"],
    )
    def test_data_readers_raise_data_error_naming_the_file(self, tmp_path, read):
        path = tmp_path / "binary.dat"
        path.write_bytes(self.BAD)
        with pytest.raises(DataError, match="binary.dat"):
            read(path)

    def test_config_reader_raises_usage_error_naming_the_file(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"kind = series\n\xff = 1\n")
        with pytest.raises(UsageError, match="binary.cfg"):
            io.read_config(path)

    def test_commands_exit_with_documented_codes(self, tmp_path, capsys):
        bad = tmp_path / "binary.dat"
        bad.write_bytes(self.BAD)
        assert cli("fit", bad, "--kind", "series", "--k", "2", "--out", tmp_path / "a") == 2
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        assert cli("fit", data, "--config", bad, "--out", tmp_path / "b") == 1
        assert cli("simulate", "--spec", bad, "--out", tmp_path / "c") == 1
        fit_dir = tmp_path / "d"
        fit_dir.mkdir()
        (fit_dir / "hyper_estimates.json").write_bytes(b'{"kind": "\xff"}')
        assert cli("reliability", fit_dir, "--out", tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert err.count("binary.dat") == 3
        assert "hyper_estimates.json" in err
        assert "Traceback" not in err

class TestOutThatCannotBeADirectory:
    """An ``--out`` that names a file, or a path under one, exits 1 with a
    message, leaves the file as it was, and is found before any fit runs."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["simulate", "fit", "reliability", "study"])
    def test_is_a_usage_error_found_before_fitting(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        if command == "simulate":
            spec = tmp_path / "system.cfg"
            spec.write_text(SPEC)
            argv = ("simulate", "--spec", spec)
        elif command == "fit":
            data = tmp_path / "comp.csv"
            data.write_text(COMPONENT_CSV)
            argv = ("fit", data, "--side", "right", *FAST_FIT)
        elif command == "reliability":
            argv = ("reliability", fit(tmp_path, simulate(tmp_path)))
        else:
            grid = tmp_path / "subset.cfg"
            grid.write_text(TestStudyCommand.SUBSET)
            argv = ("study", "--grid", grid, "--replicates", "1", "--workers", "1",
                    *TestStudyCommand.FAST)

        def refuse(*args, **kwargs):
            raise AssertionError("a fit ran before --out was checked")

        monkeypatch.setattr(cli_module, "fit_component", refuse)
        monkeypatch.setattr(cli_module, "run_scenario", refuse)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        capsys.readouterr()
        assert cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        reason = "Not a directory" if under else "File exists"
        assert err == f"error: --out {out}: cannot create the directory: {reason}\n"
        assert afile.read_text() == "kept\n"


class TestInputInsideOut:
    """A command whose input file lies in its ``--out`` directory, under the
    name of the output it writes there, records the input as it was before
    the run overwrote it."""

    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_inputs_hold_the_digest_from_before_the_run(self, tmp_path, command):
        if command == "simulate":
            src = tmp_path / "sample.csv"
            src.write_text(SPEC)
            argv = ("simulate", "--spec", src, "--seed", 7)
        else:
            src = tmp_path / "study.csv"
            src.write_text(TestStudyCommand.SUBSET + "means = 2.0\ncensor-fractions = 0.0\n")
            argv = ("study", "--grid", src, "--replicates", "1", "--workers", "1",
                    *TestStudyCommand.FAST)
        before = hashlib.sha256(src.read_bytes()).hexdigest()
        assert cli(*argv, "--out", tmp_path) == 0
        m = manifest_of(tmp_path)
        assert m["inputs"] == {src.name: before}
        assert m["outputs"][src.name] == hashlib.sha256(src.read_bytes()).hexdigest() != before


class TestReliabilityCommand:
    def test_bands_on_default_grid(self, tmp_path):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        out = tmp_path / "bands"
        rc = cli("reliability", fit_dir, "--grid-points", "40", "--out", out)
        assert rc == 0
        hyper = json.loads((fit_dir / "hyper_estimates.json").read_text())
        for name in ("band_component1.csv", "band_component2.csv", "band_system.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,mean,lower,upper"
            assert len(lines) == 41
            first = [float(x) for x in lines[1].split(",")]
            last = [float(x) for x in lines[-1].split(",")]
            assert first[0] == 0.0 and first[1] == 1.0
            assert last[0] == pytest.approx(hyper["t99"])
            assert 0.0 <= last[1] <= 1.0
        m = manifest_of(out)
        assert m["seed"] is None
        assert m["config"]["method"] == "hpd"
        assert m["config"]["level"] == 0.95

    def test_system_band_is_below_component_bands_for_series(self, tmp_path):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "20", "--out", out) == 0
        def means(name):
            lines = (out / name).read_text().splitlines()[1:]
            return [float(line.split(",")[1]) for line in lines]
        sys_mean = means("band_system.csv")
        for name in ("band_component1.csv", "band_component2.csv"):
            for s, c in zip(sys_mean, means(name)):
                assert s <= c + 1e-12

    def test_single_point_grid(self, tmp_path):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        out = tmp_path / "bands"
        rc = cli("reliability", fit_dir, "--grid-points", "1",
                 "--grid-max", "2.5", "--out", out)
        assert rc == 0
        lines = (out / "band_system.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2.5,")

    def test_missing_draws_lists_expected_files(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        (fit_dir / "draws_component2.csv").unlink()
        rc = cli("reliability", fit_dir, "--out", tmp_path / "bands")
        assert rc == 2
        err = capsys.readouterr().err
        assert "draws_component1.csv" in err
        assert "draws_component2.csv" in err

    def test_large_k_stops_at_the_first_absent_draws_file(self, tmp_path, capsys):
        # the draws files are read one by one, so a k far beyond the files
        # present names the first absent one, not all k
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        hyper_path = fit_dir / "hyper_estimates.json"
        hyper = json.loads(hyper_path.read_text())
        hyper_path.write_text(json.dumps({**hyper, "k": 100000}))
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert "draws_component100000.csv" in err and "absent: draws_component3.csv" in err
        assert len(err.encode()) < 1024
        assert not out.exists()

    def test_unequal_draw_counts_are_found_before_out_is_made(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        draws = fit_dir / "draws_component2.csv"
        lines = draws.read_text().splitlines(keepends=True)
        draws.write_text("".join(lines[:41]))  # the header and 40 of the 60 draws
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--out", out) == 2
        assert "unequal draw counts [40, 60]" in capsys.readouterr().err
        assert not out.exists()

    def test_level_outside_unit_interval(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        rc = cli("reliability", fit_dir, "--level", "1.5", "--out", tmp_path / "bands")
        assert rc == 1
        assert "--level" in capsys.readouterr().err

    def test_tiny_level_gives_a_one_draw_band(self, tmp_path):
        # 4e-14 of the 60 draws rounds to none; the hpd window keeps one
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        out = tmp_path / "bands"
        rc = cli("reliability", fit_dir, "--level", "4e-14", "--grid-points", "5", "--out", out)
        assert rc == 0
        for line in (out / "band_system.csv").read_text().splitlines()[1:]:
            _, _, lower, upper = line.split(",")
            assert lower == upper

    def test_quantile_method(self, tmp_path):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        out = tmp_path / "bands"
        rc = cli("reliability", fit_dir, "--grid-points", "10",
                 "--method", "quantile", "--level", "0.9", "--out", out)
        assert rc == 0
        assert manifest_of(out)["config"]["method"] == "quantile"

    def test_per_component_metadata_is_not_read(self, tmp_path):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        assert cli("reliability", fit_dir, "--grid-points", "20", "--out", tmp_path / "ref") == 0
        hyper = json.loads((fit_dir / "hyper_estimates.json").read_text())
        bad_number = json.loads(json.dumps(hyper))
        bad_number["components"][0]["m_beta"] = "abc"
        edits = {
            "bad_number": bad_number,
            "not_a_list": {**hyper, "components": {"a": 1}},
            "missing": {k: v for k, v in hyper.items() if k != "components"},
        }
        for name, edited in edits.items():
            src = tmp_path / f"fit_{name}"
            shutil.copytree(fit_dir, src)
            (src / "hyper_estimates.json").write_text(json.dumps(edited))
            out = tmp_path / f"bands_{name}"
            assert cli("reliability", src, "--grid-points", "20", "--out", out) == 0, name
            for band in ("band_component1.csv", "band_component2.csv", "band_system.csv"):
                assert (out / band).read_bytes() == (tmp_path / "ref" / band).read_bytes()

    @pytest.mark.parametrize(
        "column, value, name", [(2, "nan", "shape"), (3, "-1.0", "scale"), (3, "inf", "scale")]
    )
    def test_bad_draw_names_its_first_line(self, tmp_path, capsys, column, value, name):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        path = fit_dir / "draws_component2.csv"
        lines = path.read_text().splitlines()
        for i, col, x in [(5, column, value), (9, 2, "0")]:
            fields = lines[i].split(",")
            fields[col] = x
            lines[i] = ",".join(fields)
        # the blank line is skipped but counted: the first bad row is line 7
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "5", "--out", out) == 2
        err = capsys.readouterr().err
        assert f"draws_component2.csv: line 7: {name} must be finite and > 0, got {value}" in err
        assert not (out / "band_system.csv").exists()

    @pytest.mark.parametrize("kind", ["paralel", "Series", "", 2, None, ["series"]])
    def test_unknown_kind_is_data_error(self, tmp_path, capsys, kind):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        hyper_path = fit_dir / "hyper_estimates.json"
        hyper = json.loads(hyper_path.read_text())
        hyper_path.write_text(json.dumps({**hyper, "kind": kind}))
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "5", "--out", out) == 2
        err = capsys.readouterr().err
        assert "hyper_estimates.json" in err and repr(kind) in err
        assert "Traceback" not in err
        assert not (out / "band_system.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("k", 2.5), ("k", "2"), ("k", True), ("k", 1.9), ("t99", True),
         ("t99", "abc"), ("t99", 0), ("t99", -1), ("t99", float("inf")),
         ("t99", float("nan")), ("t99", None), ("t99", 10**400)],
    )
    def test_malformed_k_or_t99_is_data_error(self, tmp_path, capsys, key, value):
        # int() would read these as k = 2 or 1 and t99 = 1.0, and band
        # only some of the components on a made-up grid; a t99 that is
        # present but unusable is a bad data file, not a missing flag
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        hyper_path = fit_dir / "hyper_estimates.json"
        hyper = json.loads(hyper_path.read_text())
        hyper_path.write_text(json.dumps({**hyper, key: value}))
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "5", "--out", out) == 2
        err = capsys.readouterr().err
        assert "hyper_estimates.json" in err and f"{key} must be" in err and repr(value) in err
        assert "Traceback" not in err
        assert not (out / "band_system.csv").exists()

    def test_component_kind_with_several_draws_files_is_data_error(self, tmp_path, capsys):
        # a component fit writes one draws file; "component" with k = 2
        # would band a two-component series system
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        hyper_path = fit_dir / "hyper_estimates.json"
        hyper = json.loads(hyper_path.read_text())
        hyper_path.write_text(json.dumps({**hyper, "kind": "component", "k": 2}))
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "5", "--out", out) == 2
        err = capsys.readouterr().err
        assert "hyper_estimates.json" in err and "k = 1, got 2" in err
        assert not (out / "band_system.csv").exists()

    def test_absent_t99_needs_grid_max(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        hyper_path = fit_dir / "hyper_estimates.json"
        hyper = json.loads(hyper_path.read_text())
        del hyper["t99"]
        hyper_path.write_text(json.dumps(hyper))
        assert cli("reliability", fit_dir, "--grid-points", "5", "--out", tmp_path / "a") == 1
        assert "--grid-max is required" in capsys.readouterr().err
        assert cli("reliability", fit_dir, "--grid-points", "5", "--grid-max", "3",
                   "--out", tmp_path / "b") == 0

    @pytest.mark.parametrize("source", ["flag", "anchor"])
    def test_grid_max_too_small_for_distinct_times(self, tmp_path, capsys, source):
        # linspace(0, 5e-324, 3) is [0, 0, 5e-324]: no strictly increasing grid
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        flags = ["--grid-max", "5e-324"]
        if source == "anchor":
            hyper_path = fit_dir / "hyper_estimates.json"
            hyper = json.loads(hyper_path.read_text())
            hyper_path.write_text(json.dumps({**hyper, "t99": 5e-324}))
            flags = []
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "3", *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert "grid max 5e-324 is too small for --grid-points 3" in err
        assert "Traceback" not in err
        assert not out.exists()
        # the same grid max makes a grid of two distinct times
        assert cli("reliability", fit_dir, "--grid-points", "2", *flags, "--out", out) == 0
        lines = (out / "band_system.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "5e-324"]

    def test_out_may_not_be_the_draws_directory(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fit_dir = fit(tmp_path, sim)
        before = {p.name: p.read_bytes() for p in fit_dir.iterdir()}
        for out in (fit_dir, fit_dir / ".." / fit_dir.name):
            assert cli("reliability", fit_dir, "--grid-points", "5", "--out", out) == 1
            err = capsys.readouterr().err
            assert f"--out {out} is the draws directory {fit_dir}" in err
        assert {p.name: p.read_bytes() for p in fit_dir.iterdir()} == before

    def test_component_fit_directory_composes_as_identity(self, tmp_path):
        data = tmp_path / "comp.csv"
        data.write_text(COMPONENT_CSV)
        fit_dir = tmp_path / "fit"
        assert cli("fit", data, "--side", "right", *FAST_FIT,
                   "--seed", 3, "--out", fit_dir) == 0
        out = tmp_path / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "15", "--out", out) == 0
        assert (out / "band_system.csv").read_bytes() == \
            (out / "band_component1.csv").read_bytes()


class TestReadDraws:
    """The one-pass draws reader gives the row reader's arrays bit for bit,
    or hands the file to it, so that every error names the same line."""

    HEADER = "component,draw_index,beta,eta"

    @staticmethod
    def both_readers(path, j=1):
        """What ``read_draws_csv`` and the row reader make of ``path``: the
        bytes of both arrays, or the DataError message."""
        out = []
        for read in (io.read_draws_csv, io._read_draws_by_row):
            try:
                out.append(tuple(x.tobytes() for x in read(path, j)))
            except DataError as e:
                out.append(str(e))
        return out

    # (body after the header line, one-pass read, expected error or None)
    CASES = {
        "plain_lf": ("\n1,1,1.5,2.0\n1,2,0.25,3e2\n", True, None),
        "crlf_blank_lines": ("\r\n1,1,1.5,2.0\r\n\r\n1,2,.5,7.\r\n\r\n", True, None),
        "no_final_newline": ("\n1,1,1.5,2.0\n1,2,+1.5,2E-3", True, None),
        "component_float": ("\n1,1,1.5,2.0\n1.0,2,1.5,2.0\n", False,
                            "line 3: component is not an integer: '1.0'"),
        "component_plus": ("\n+1,1,1.5,2.0\n", False, None),
        "other_component": ("\n1,1,1.5,2.0\n2,2,1.5,2.0\n", False,
                            "line 3: component 2 in a file for component 1"),
        "underscore": ("\n1,1,1_5,2.0\n", False, None),
        "quoted": ('\n1,1,"1.5",2.0\n', False, None),
        "spaces": ("\n1, 1, 1.5, 2.0\n", False, None),
        "draw_index_ignored": ("\n1,x,1.5,2.0\n", False, None),
        "five_fields": ("\n1,1,1.5,2.0\n1,2,1.5,2.0,9\n", False,
                        "line 3: expected 4 fields, got 5"),
        "five_then_three": ("\n1,1,1.5,2.0,9\n1,2,1.5\n", False,
                            "line 2: expected 4 fields, got 5"),
        "empty_cell": ("\n1,1,,2.0\n", False, "line 2: beta is not a number: ''"),
        "header_only": ("\n", False, "no draws"),
        "header_only_no_newline": ("", False, "no draws"),
        "negative_after_blank": ("\r\n1,1,1.5,2.0\r\n\r\n1,2,1.5,-1.0\r\n", False,
                                 "line 4: scale must be finite and > 0, got -1.0"),
        "overflow": ("\n1,1,1e400,2.0\n", False, "line 2: shape must be finite and > 0, got inf"),
        "zero": ("\n1,1,0e0,2.0\n", False, "line 2: shape must be finite and > 0, got 0.0"),
        "cr_only_line_ends": ("\r1,1,1.5,2.0\r", False, None),
        "cr_cr_lf": ("\r\n1,1,1.5,2.0\r\r\n1,2,1.5,2.0\r", True, None),
        "cr_splits_a_row": ("\n1,1,1.5,2.0\n1,2,1.\r5,2.0\n", False,
                            "line 3: expected 4 fields, got 3"),
        "cr_between_rows": ("\n1,1,1.5,2.0\r1,2,1.5,2.0\n", False, None),
        "header_cr_cr_lf": ("\r\r\n1,1,1.5,2.0\n", False, None),
        "longer_component": ("\n1,1,1.5,2.0\n12,2,1.5,2.0\n", False,
                             "line 3: component 12 in a file for component 1"),
        "blank_line_of_crs": ("\n1,1,1.5,2.0\n\r\r\n1,2,1.5,2.0\n\r", True, None),
        "bad_value_then_bad_number": ("\n1,1,-1.5,2.0\n1,2,abc,2.0\n", False,
                                      "line 2: shape must be finite and > 0, got -1.5"),
        "bad_value_then_other_component": ("\n1,1,-1.5,2.0\n2,2,1.5,2.0\n", False,
                                           "line 2: shape must be finite and > 0, got -1.5"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_pass_reader_matches_row_reader(self, tmp_path, case):
        body, one_pass, error = self.CASES[case]
        path = tmp_path / "draws_component1.csv"
        path.write_bytes((self.HEADER + body).encode())
        got, expect = self.both_readers(path)
        assert got == expect
        assert (io._read_draws_at_once(path, 1) is not None) == one_pass
        if error is None:
            assert isinstance(got, tuple)
        else:
            assert got == f"{path}: {error}"

    def test_fuzzed_files_read_as_the_row_reader_reads_them(self, tmp_path):
        # well-formed rows, each with one noise piece put in at random, and
        # mixed line ends: a fair share of the files stay plain
        rng = np.random.default_rng(17)
        noise = [b"", b"", b"", b"", b"", b"7", b"e", b"-", b".", b",", b" ", b"x", b"_", b'"',
                 b"\r", b"\n", b"\r\n", b"\r\r", b"12,", b"2,", b"1e400", b"\xff"]
        ends = [b"\n", b"\r\n", b"\r\r\n", b"\n\r\n", b"\r", b""]
        values = [b"1.5", b"2e-3", b".5", b"7.", b"+1.25", b"3E2", b"0.25", b"-0.5"]
        path = tmp_path / "draws_component1.csv"
        one_pass = 0
        for _ in range(2000):
            body = bytearray(ends[rng.integers(2)])
            for i in range(1, int(rng.integers(2, 5))):
                beta, eta = rng.integers(len(values), size=2)
                row = b"1,%d,%s,%s" % (i, values[beta], values[eta])
                at = int(rng.integers(len(row) + 1))
                row = row[:at] + noise[rng.integers(len(noise))] + row[at:]
                body += row + ends[rng.integers(len(ends))]
            path.write_bytes(self.HEADER.encode() + bytes(body))
            got, expect = self.both_readers(path)
            assert got == expect, bytes(body)
            one_pass += io._read_draws_at_once(path, 1) is not None
        assert one_pass >= 100

    def test_random_floats_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.random(10_000) * 10.0 ** rng.integers(-323, 308, 10_000)
        x[:6] = [5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 1.0]
        x = x[x > 0.0]
        assert np.any(x < 2.2250738585072014e-308)  # subnormals
        path = tmp_path / "draws_component3.csv"
        io.write_draws_csv(path, 3, PosteriorDraws(x, x[::-1].copy(), 0.3, 0.2, 0.0, 0.0, ()))
        assert io._read_draws_at_once(path, 3) is not None
        got, expect = self.both_readers(path, 3)
        assert got == expect
        assert got == (x.tobytes(), x[::-1].tobytes())
        # written by the program: CRLF line ends
        assert path.read_bytes().count(b"\r\n") == x.size + 1

    def test_reads_a_fit_draws_file_within_its_size(self, tmp_path):
        # a reader that copies, decodes and splits the body into a list of
        # rows peaks at over 5 times the file's bytes
        rng = np.random.default_rng(8)
        betas, etas = rng.lognormal(0.3, 0.1, 8000), rng.lognormal(0.8, 0.1, 8000)
        path = tmp_path / "draws_component1.csv"
        io.write_draws_csv(path, 1, PosteriorDraws(betas, etas, 0.3, 0.2, 0.0, 0.0, ()))
        size = path.stat().st_size
        io.read_draws_csv(path, 1)  # compiles the patterns before tracing
        tracemalloc.start()
        try:
            got = io.read_draws_csv(path, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size, peak / size
        assert len(got[0]) == sum(1 for _ in io._rows(path, io.DRAWS_HEADER)) == 8000
        assert got[0].tobytes() == betas.tobytes() and got[1].tobytes() == etas.tobytes()


class TestStudyCommand:
    SUBSET = "families = weibull\nsides = right\nsizes = 8\n"
    FAST = ("--np", "50", "--burnin", "100", "--thin", "1", "--tol", "0.05")

    def run_subset(self, tmp_path, name="study", subset=None, *extra):
        grid_file = tmp_path / "subset.cfg"
        grid_file.write_text(subset or self.SUBSET)
        out = tmp_path / name
        rc = cli("study", "--grid", grid_file, "--replicates", "2",
                 *self.FAST, "--seed", 3, "--out", out, *extra)
        assert rc == 0
        return out

    def test_subset_produces_one_row_per_cell(self, tmp_path):
        out = self.run_subset(tmp_path)
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "side,family,censor_pct,true_mean,n,bias,mse,n_failed"
        assert len(lines) == 7
        cells = [line.split(",")[:5] for line in lines[1:]]
        # canonical order: censor fraction varies slowest, then the mean
        assert [c[2] for c in cells] == ["0.0", "0.0", "20.0", "20.0", "40.0", "40.0"]
        assert [c[3] for c in cells] == ["2.0", "7.0"] * 3
        assert all(c[0] == "right" and c[1] == "weibull" and c[4] == "8" for c in cells)

    def test_grid_file_sets_replicates_and_the_flag_beats_it(self, tmp_path):
        subset = self.SUBSET + "censor-fractions = 0.0\nmeans = 2.0\nreplicates = 3\n"
        grid_file = tmp_path / "subset.cfg"
        grid_file.write_text(subset)
        from_file = tmp_path / "from_file"
        assert cli("study", "--grid", grid_file, *self.FAST, "--out", from_file) == 0
        assert manifest_of(from_file)["config"]["replicates"] == 3
        flagged = self.run_subset(tmp_path, "flagged", subset)  # --replicates 2
        assert manifest_of(flagged)["config"]["replicates"] == 2

    def test_replicates_help_names_the_grid_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["study", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert (f"replicates per cell (default: the --grid file's replicates key, "
                f"else {settings.GRID_REPLICATES})") in text

    def test_full_grid_enumerates_all_cells(self):
        assert len(grid_specs()) == 108

    def test_replicates_must_be_positive(self, tmp_path, capsys):
        rc = cli("study", "--replicates", "0", "--out", tmp_path / "study")
        assert rc == 1
        assert "--replicates" in capsys.readouterr().err

    def test_invalid_side_in_subset(self, tmp_path, capsys):
        grid_file = tmp_path / "subset.cfg"
        grid_file.write_text("sides = upward\n")
        rc = cli("study", "--grid", grid_file, "--out", tmp_path / "study")
        assert rc == 1
        assert "upward" in capsys.readouterr().err

    def test_worker_pool_matches_serial_run(self, tmp_path, capsys):
        # six distinct fits of three sizes: each worker count deals them
        # differently, and every one must print and write the same
        subset = "families = weibull\nsides = right\nsizes = 8, 12, 16\n" \
                 "censor-fractions = 0.0, 0.25\nmeans = 2.0\n"
        runs = []
        for workers in (1, 2, 3):
            out = self.run_subset(tmp_path, f"w{workers}", subset, "--workers", workers)
            m = manifest_of(out)
            assert m["config"].pop("workers") == workers
            del m["timestamps"]
            runs.append(((out / "study.csv").read_bytes(), m, capsys.readouterr()))
        assert runs[0][1]["cells"] == 6
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_without_fork_the_study_runs_one_worker(self, tmp_path, monkeypatch):
        subset = self.SUBSET + "censor-fractions = 0.2\nmeans = 2.0, 7.0\n"
        monkeypatch.delattr(os, "fork")
        out = self.run_subset(tmp_path, "study", subset, "--workers", "2")
        assert manifest_of(out)["config"]["workers"] == 1

    def test_workers_capped_at_cell_count(self, tmp_path):
        subset = self.SUBSET + "censor-fractions = 0.0\nmeans = 2.0\n"
        out = self.run_subset(tmp_path, "study", subset, "--workers", "4")
        assert manifest_of(out)["config"]["workers"] == 1
        # two cells, one on each side, that censor nothing share one fit
        both = subset.replace("sides = right", "sides = right, left")
        out = self.run_subset(tmp_path, "both", both, "--workers", "4")
        m = manifest_of(out)
        assert (m["cells"], m["config"]["workers"]) == (2, 1)

    def test_default_workers_are_the_usable_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            expect = 1
        else:
            expect = 2
        # two distinct fits, so the pool size is not capped to one
        subset = self.SUBSET + "censor-fractions = 0.2\nmeans = 2.0, 7.0\n"
        out = self.run_subset(tmp_path, "study", subset)
        assert manifest_of(out)["config"]["workers"] == expect

    def test_cells_that_censor_nothing_are_fitted_once(self, tmp_path, capsys, monkeypatch):
        # at n = 30, 0.01 censors round(0.3) = 0 records, as 0.0 does
        subset = ("families = weibull\nsides = right, left\nsizes = 30\n"
                  "censor-fractions = 0.0, 0.01, 0.2\nmeans = 2.0\n")
        calls = []

        def counting(spec, **kw):
            calls.append(spec.coords)
            return simlab.run_scenario(spec, **kw)

        capsys.readouterr()
        monkeypatch.setattr(cli_module, "run_scenario", counting)
        once = self.run_subset(tmp_path, "once", subset, "--workers", "1")
        printed = capsys.readouterr().out
        monkeypatch.undo()
        assert [(c["side"], c["censor_pct"]) for c in calls] == [
            ("right", 0.0), ("right", 1.0), ("right", 20.0), ("left", 20.0)
        ]
        pooled = self.run_subset(tmp_path, "pooled", subset, "--workers", "2")
        assert capsys.readouterr().out == printed
        assert (once / "study.csv").read_bytes() == (pooled / "study.csv").read_bytes()
        m = manifest_of(once)
        assert m["cells"] == len(m["work"]) == 6
        assert [c["side"] for c in m["work"]] == ["right"] * 3 + ["left"] * 3
        # each left cell that censors nothing reports its right cell's fit
        for right, left in zip(m["work"][:2], m["work"][3:5]):
            assert {**right, "side": "left"} == left

    def test_failure_reasons_go_to_stderr_and_manifest(self, tmp_path, capsys, monkeypatch):
        def failing(data, cfg, source):
            raise NumericalError("log-likelihood is NaN for beta=1.0, eta=1.0")

        monkeypatch.setattr(simlab, "fit_component", failing)
        subset = self.SUBSET + "censor-fractions = 0.0\nmeans = 2.0\n"
        out = self.run_subset(tmp_path, "study", subset, "--workers", "1")
        assert "replicate 1 failed: log-likelihood is NaN" in capsys.readouterr().err
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "side,family,censor_pct,true_mean,n,bias,mse,n_failed"
        assert lines[1].endswith(",nan,nan,2")
        m = manifest_of(out)
        assert m["failed_replicates"] == 2
        assert m["replicate_failures"] == [
            {
                "side": "right",
                "family": "weibull",
                "censor_pct": 0.0,
                "true_mean": 2.0,
                "n": 8,
                "failures": [
                    {"replicate": r, "reason": "log-likelihood is NaN for beta=1.0, eta=1.0"}
                    for r in (0, 1)
                ],
            }
        ]

    def test_zero_lifetimes_are_failed_replicates(self, tmp_path, capsys):
        # a gamma of mean 2 and variance 1e6 draws lifetimes of exactly 0
        subset = ("families = gamma\nsides = right\nsizes = 30\n"
                  "censor-fractions = 0.0\nmeans = 2.0\nvariance = 1e6\n")
        out = self.run_subset(tmp_path, "study", subset)
        reason = "gamma generator with mean 2 and variance 1e+06 drew lifetime 0.0"
        assert f"replicate 0 failed: {reason}" in capsys.readouterr().err
        m = manifest_of(out)
        assert m["failed_replicates"] == 2
        [cell] = m["replicate_failures"]
        assert [f["replicate"] for f in cell["failures"]] == [0, 1]
        assert all(f["reason"].startswith(reason) for f in cell["failures"])
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[1] == "right,gamma,0.0,2.0,30,nan,nan,2"

    def test_non_converged_fits_are_listed(self, tmp_path, capsys):
        out = self.run_subset(tmp_path, "study", None, "--max-iter", "1", "--tol", "1e-12")
        assert "(2 of 2 fits not converged)" in capsys.readouterr().out
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "side,family,censor_pct,true_mean,n,bias,mse,n_failed"
        assert all(line.endswith(",0") for line in lines[1:])
        m = manifest_of(out)
        assert m["failed_replicates"] == 0
        assert len(m["not_converged"]) == m["cells"] == 6
        assert all(cell["replicates"] == [0, 1] for cell in m["not_converged"])
        pcts = [cell["censor_pct"] for cell in m["not_converged"]]
        assert pcts == [0.0, 0.0, 20.0, 20.0, 40.0, 40.0]

    def test_converged_fits_are_not_listed(self, tmp_path, capsys):
        out = self.run_subset(tmp_path, "study", None, "--tol", "1e6")
        assert "not converged" not in capsys.readouterr().out
        assert manifest_of(out)["not_converged"] == []

    def test_manifest_counts_cells(self, tmp_path):
        out = self.run_subset(tmp_path)
        m = manifest_of(out)
        assert m["cells"] == 6
        assert m["config"]["replicates"] == 2
        assert "subset.cfg" in m["inputs"]
        assert m["absurd_estimates"] == []
        # per-cell work totals: each replicate runs an EM chain and a final one
        assert [cell["censor_pct"] for cell in m["work"]] == [0.0, 0.0, 20.0, 20.0, 40.0, 40.0]
        for cell in m["work"]:
            assert cell["chains"] >= 2 * 2
            assert cell["iterations"] >= 2
            assert 0.5 <= cell["min_weight_ess"] <= 1.0

    @pytest.mark.parametrize("v", ["1e-300", "1e308"])
    def test_extreme_prior_variance_fails_the_replicates(self, tmp_path, capsys, v):
        subset = self.SUBSET + "censor-fractions = 0.0\nmeans = 2.0\n"
        out = self.run_subset(tmp_path, "study", subset, "--v", v)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        m = manifest_of(out)
        assert m["failed_replicates"] == 2
        [cell] = m["replicate_failures"]
        assert [f["replicate"] for f in cell["failures"]] == [0, 1]
        reason = f"prior-mean update failed at prior variance {float(v):g}: "
        assert all(f["reason"].startswith(reason) for f in cell["failures"])

    def test_absurd_estimates_are_flagged(self, tmp_path, capsys):
        # a variance of 1e6 at mean 2 makes weibull samples whose fitted
        # mean lifetimes run to 1e4 and beyond
        subset = ("families = weibull\nsides = right\nsizes = 30\n"
                  "censor-fractions = 0.0\nmeans = 2.0\nvariance = 1e6\n")
        out = self.run_subset(tmp_path, "study", subset)
        err = capsys.readouterr().err
        m = manifest_of(out)
        [cell] = m["absurd_estimates"]
        assert (cell["family"], cell["n"], cell["true_mean"]) == ("weibull", 30, 2.0)
        assert [r["replicate"] for r in cell["replicates"]] == [0, 1]
        for r in cell["replicates"]:
            assert not 2e-3 <= r["estimate"] <= 2e3
            assert f"replicate {r['replicate']} has an absurd mean-lifetime estimate" in err
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "side,family,censor_pct,true_mean,n,bias,mse,n_failed"
        assert len(lines) == 2


def test_commands_load_no_process_pool_or_masked_arrays(tmp_path):
    """simulate, fit, reliability and a study on one worker or on two
    import neither a process pool nor multiprocessing nor numpy.ma."""
    script = f"""
import sys
from relsys.cli import main
tmp = {str(tmp_path)!r}
with open(tmp + "/system.cfg", "w") as f:
    f.write({SPEC!r})
with open(tmp + "/subset.cfg", "w") as f:
    f.write("families = weibull\\nsides = right\\nsizes = 8\\n"
            "censor-fractions = 0.0\\nmeans = 2.0, 7.0\\n")
chains = ["--np", "20", "--burnin", "40", "--thin", "1", "--tol", "0.5", "--max-iter", "2"]
for argv in (
    ["simulate", "--spec", tmp + "/system.cfg", "--out", tmp + "/sim"],
    ["fit", tmp + "/sim/sample.csv", "--kind", "series", "--k", "2", *chains,
     "--out", tmp + "/fit"],
    ["reliability", tmp + "/fit", "--grid-points", "10", "--out", tmp + "/bands"],
    ["study", "--grid", tmp + "/subset.cfg", "--replicates", "1", *chains,
     "--workers", "1", "--out", tmp + "/study"],
    ["study", "--grid", tmp + "/subset.cfg", "--replicates", "1", *chains,
     "--workers", "2", "--out", tmp + "/pooled"],
):
    assert main(argv) == 0, argv
print(",".join(m for m in ("concurrent.futures", "multiprocessing", "numpy.ma")
               if m in sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == ""
    # the second study did run on two workers: its two means are two fits
    assert json.loads((tmp_path / "pooled" / "manifest.json").read_text())["config"]["workers"] == 2


def src_env() -> dict:
    """This environment, with the tested package first on the import path,
    for a fresh interpreter."""
    src = str(Path(relsys.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_fit_and_reliability_load_no_simlab(tmp_path):
    script = f"""
import sys
from relsys.cli import main
tmp = {str(tmp_path)!r}
with open(tmp + "/c.csv", "w") as f:
    f.write({COMPONENT_CSV!r})
assert main(["fit", tmp + "/c.csv", "--side", "right", *{list(FAST_FIT)!r},
             "--out", tmp + "/fit"]) == 0
assert main(["reliability", tmp + "/fit", "--grid-points", "5", "--out", tmp + "/bands"]) == 0
print("relsys.simlab" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_reliability_and_pooled_study_load_no_openssl(tmp_path):
    """The band command, and a study whose fits all run in pool workers,
    never load _hashlib, which maps OpenSSL: main leaves its entry None."""
    fit(tmp_path, simulate(tmp_path))
    (tmp_path / "subset.cfg").write_text(
        "families = weibull\nsides = right,left\nsizes = 8\n"
        "censor-fractions = 0.25\nmeans = 2.0\n"
    )
    script = f"""
import sys
from relsys.cli import main
tmp = {str(tmp_path)!r}
assert main(["reliability", tmp + "/fit", "--grid-points", "5", "--out", tmp + "/bands"]) == 0
blocked = [sys.modules.get("_hashlib") is None]
# two distinct fits (each side censors its own records) for two workers
assert main(["study", "--grid", tmp + "/subset.cfg", "--replicates", "1", "--np", "20",
             "--burnin", "40", "--thin", "1", "--tol", "0.5", "--max-iter", "2",
             "--workers", "2", "--out", tmp + "/study"]) == 0
print(blocked + [sys.modules.get("_hashlib") is None])
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[True, True]"
    assert json.loads((tmp_path / "study" / "manifest.json").read_text())["config"]["workers"] == 2


# what the n = 12 cell does in its worker, and what the study must raise
# (its type, its message, and whether it comes with the worker's traceback);
# the interrupting cell waits until both workers are forked, then outlives
# any test unless the study kills it
WORKER_FAULTS = {
    "a cell raises": (
        "raise RuntimeError('cell n=12 broke on purpose')",
        ["RuntimeError", "cell n=12 broke on purpose", True],
    ),
    "a worker is killed": (
        "os.kill(os.getpid(), signal.SIGKILL)",
        ["RuntimeError", "a study worker was killed by SIGKILL before it sent its results",
         False],
    ),
    "the study is interrupted": (
        "time.sleep(0.5); os.kill(os.getppid(), signal.SIGINT); time.sleep(600)",
        ["KeyboardInterrupt", "", False],
    ),
}


@pytest.mark.parametrize("fault", WORKER_FAULTS)
def test_study_worker_fault_stops_the_study_and_leaves_no_process(tmp_path, fault):
    """A fault in one of two forked workers reaches the study's caller, which
    then has no child process left and no manifest written."""
    (tmp_path / "subset.cfg").write_text(
        "families = weibull\nsides = right\nsizes = 8, 12\n"
        "censor-fractions = 0.25\nmeans = 2.0\n"
    )
    action, expected = WORKER_FAULTS[fault]
    script = f"""
import json, os, signal, sys, time
from relsys import cli
from relsys.simlab import run_scenario
tmp = {str(tmp_path)!r}

def runner(spec, **kw):
    if spec.n == 12:
        {action}
    return run_scenario(spec, **kw)

# the forked workers inherit the patched name
cli.run_scenario = runner
try:
    cli.main(["study", "--grid", tmp + "/subset.cfg", "--replicates", "1", "--np", "20",
              "--burnin", "40", "--thin", "1", "--tol", "0.5", "--max-iter", "2",
              "--workers", "2", "--out", tmp + "/study"])
    raised = None
except BaseException as e:
    # a cell's exception comes from one that holds the worker's traceback
    raised = [type(e).__name__, str(e), "in runner" in str(e.__cause__)]
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(json.dumps([raised, left]))
"""
    # in a session of its own, so that a worker the study fails to stop
    # is killed with the rest of the group and outlives no failed test
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=src_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, stderr
    assert json.loads(stdout.splitlines()[-1]) == [expected, None]
    assert not (tmp_path / "study" / "manifest.json").exists()


def test_simulate_and_fit_load_no_openssl(tmp_path):
    # both import numpy.random, whose secrets -> hmac -> hashlib chain would
    # map OpenSSL but for main's None entry
    script = f"""
import sys
from relsys.cli import main
tmp = {str(tmp_path)!r}
with open(tmp + "/system.cfg", "w") as f:
    f.write({SPEC!r})
assert main(["simulate", "--spec", tmp + "/system.cfg", "--seed", "7", "--out", tmp + "/sim"]) == 0
assert main(["fit", tmp + "/sim/sample.csv", "--kind", "series", "--k", "2",
             *{list(FAST_FIT)!r}, "--out", tmp + "/fit"]) == 0
print("hashlib" in sys.modules, sys.modules["_hashlib"] is None)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True True"


def test_python_m_fit_imports_no_hashlib_extension(tmp_path):
    (tmp_path / "c.csv").write_text(COMPONENT_CSV)
    # -v prints "import 'name' # loader" for each module a loader executes;
    # -X importtime would also list the lookups that the None entry halts
    done = subprocess.run(
        [sys.executable, "-v", "-m", "relsys.cli", "fit", str(tmp_path / "c.csv"),
         "--side", "right", *FAST_FIT, "--out", str(tmp_path / "fit")],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    imported = set(re.findall(r"^import '([^']+)' #", done.stderr, re.MULTILINE))
    assert {"numpy.random", "hashlib"} <= imported
    assert "_hashlib" not in imported


def test_hashlib_imported_before_main_keeps_openssl(tmp_path):
    # setdefault leaves an OpenSSL that the caller has loaded, and the
    # manifest digests still match it
    script = f"""
import hashlib, json, sys
from pathlib import Path
from relsys.cli import main
tmp = Path({str(tmp_path)!r})
(tmp / "system.cfg").write_text({SPEC!r})
assert main(["simulate", "--spec", str(tmp / "system.cfg"), "--seed", "7",
             "--out", str(tmp / "sim")]) == 0
assert main(["fit", str(tmp / "sim" / "sample.csv"), "--kind", "series", "--k", "2",
             *{list(FAST_FIT)!r}, "--out", str(tmp / "fit")]) == 0
assert sys.modules["_hashlib"] is not None
for out in (tmp / "sim", tmp / "fit"):
    digests = json.loads((out / "manifest.json").read_text())["outputs"]
    assert digests and all(
        d == hashlib.sha256((out / name).read_bytes()).hexdigest() for name, d in digests.items()
    ), out
print("ok")
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def test_python_m_runs_commands_as_main_does(tmp_path):
    # run as __main__, the module binds its numeric names on a module object
    # of its own, not on relsys.cli
    sim = simulate(tmp_path)
    fit_dir = fit(tmp_path, sim)
    for argv in (
        ["simulate", "--spec", tmp_path / "system.cfg", "--seed", 7, "--out", tmp_path / "m_sim"],
        ["fit", tmp_path / "m_sim" / "sample.csv", "--kind", "series", "--k", 2, *FAST_FIT,
         "--seed", 11, "--out", tmp_path / "m_fit"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "relsys.cli", *map(str, argv)],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
    for ours, theirs in ((sim, tmp_path / "m_sim"), (fit_dir, tmp_path / "m_fit")):
        names = sorted(p.name for p in ours.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in theirs.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (theirs / name).read_bytes() == (ours / name).read_bytes(), name


# the modules a parse may load: numpy and the package's other modules are
# loaded only once a command runs
PARSE_MODULES = ("relsys", "relsys.cli", "relsys.errors", "relsys.settings")
PARSE_ARGVS = (
    ["--help"],
    ["simulate", "--help"],
    ["fit", "--help"],
    ["reliability", "--help"],
    ["study", "--help"],
    ["fit", "--bogus"],
)


def numeric(modules) -> list[str]:
    """numpy and the package's modules beyond ``PARSE_MODULES``, among ``modules``."""
    return [
        m for m in modules if m.split(".")[0] in ("numpy", "relsys") and m not in PARSE_MODULES
    ]


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_parsing_as_python_m_loads_no_numeric_module(argv):
    # -X importtime lists each module the run imports on stderr
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "relsys.cli", *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == (0 if "--help" in argv else 1), done.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "argparse" in imported
    assert numeric(imported) == []


def test_parsing_through_main_loads_no_numeric_module():
    script = f"""
import contextlib, io, sys
from relsys.cli import main
for argv in {PARSE_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code == (0 if "--help" in argv else 1), (argv, code)
    print(" ".join(sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(PARSE_ARGVS)
    for argv, line in zip(PARSE_ARGVS, lines):
        assert numeric(line.split()) == [], argv


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 1 << 20])
def test_file_digest_is_hashlib_sha256(tmp_path, size):
    # the sizes straddle the 64 KiB read chunk
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert io.sha256_file(path) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        io.write_json(tmp_path / "x.json", {"x": value})


class TestRerunDeterminism:
    def pipeline(self, tmp_path, name):
        root = tmp_path / name
        root.mkdir()
        sim = simulate(tmp_path, name=f"{name}/sim")
        fit_dir = fit(tmp_path, sim, name=f"{name}/fit")
        bands = root / "bands"
        assert cli("reliability", fit_dir, "--grid-points", "25", "--out", bands) == 0
        return root

    def test_full_pipeline_is_byte_identical_except_timestamps(self, tmp_path):
        a = self.pipeline(tmp_path, "a")
        b = self.pipeline(tmp_path, "b")
        compared = 0
        for file_a in sorted(a.rglob("*")):
            if file_a.is_dir():
                continue
            file_b = b / file_a.relative_to(a)
            if file_a.name == "manifest.json":
                ma = json.loads(file_a.read_text())
                mb = json.loads(file_b.read_text())
                ma.pop("timestamps")
                mb.pop("timestamps")
                assert ma == mb
            else:
                assert file_a.read_bytes() == file_b.read_bytes()
            compared += 1
        assert compared >= 11


class TestRecordedOutputs:
    # SHA-256 digests: the sample.csv ones recorded before samples were
    # stored as arrays, the fit ones with the importance-reweighted EM, the
    # band ones with the per-row scalar HPD and two quantile calls; a
    # change to how samples are parsed, generated, decomposed or summed,
    # to how the EM draws its chains, or to how a band reduces the drawn
    # curves moves them.  The manifests (less timestamps), the study
    # outputs and the printed text were recorded later, before the fit and
    # study records were each built in one place; the simulate manifests
    # before main became the one manifest writer.  The parallel and left
    # fit outputs were re-recorded when a left censoring's term became the
    # single-branch log(-expm1(-x)): the draws moved in the last ulps, the
    # EM traces and the printed text did not
    RECORDED = {
        "series": {
            "sample.csv": "359583e35a82adbdaed9d352b8b4a0f1d3f3bc703c437592a98c3f7b72df51d2",
            "draws_component1.csv": "0b3c4aa70db9de19178dffb4acba51db989fc9f3b8bd12b2509a9e2bbb211038",
            "draws_component2.csv": "f23abe3ab99fe729ea7a4baeda035567509ad3145a4977d32684ade649d3b867",
            "em_trace.csv": "77b4f4c768cb4ffddd9b3ca04e3aef26b4492024d1735e05994a83923216097f",
            "hyper_estimates.json": "1061b658b6369e78a7c32570dafd939a124b4a3fdcecf52b417e3c1f8cb6b64f",
            "hpd/band_component1.csv": "3a50d2eb9633e6a2e39e19628e67cff2f650111d5fa9c92a1bc8903d25093fb1",
            "hpd/band_component2.csv": "9a3aab8417be846207e0cb9d4b2c992778144c3bcaf93c75c47112fe706a3b13",
            "hpd/band_system.csv": "9d2359f92126ef675330ad0371e2117f9e6cda0b08786f2d1385eab065781c19",
            "quantile/band_component1.csv": "2e01818d3a035fbe92e9dc7a4912af7cfe4754c2acfd6f0931c9076af8673ade",
            "quantile/band_component2.csv": "68e44289fc7a5ad426e40dd1118e080aed5f9c78e761bd4795a0d158fe1118d9",
            "quantile/band_system.csv": "87d7cd81b2f7ea8acdebbfc10dd765842eec81d53bf919dbb5d63b836e488439",
            "stdout": "fbda94bff9d3122ffe4c7e0c5550b97dee6b979e8ad29f91d8f405ba2fd17548",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "manifest.json": "f5aad9beeaf3dd0a063314d286ccbb540b67a21f0ad794f657f213e575150864",
            "hpd/manifest.json": "70263f69258330c64dc7bfcc4c7df823523cf758dce7b25117bba44e4abf67f6",
            "quantile/manifest.json": "3ebcd654d05066f22a13250a6c4ee96039daa407f863cf31555f9472cb671d98",
            "sim/manifest.json": "4945d785922936ba7328e11fe025907a86714ff0b5b4fb8e27b26bdc67851e39",
        },
        "parallel": {
            "sample.csv": "66f3acb3dfa1871a487fcfdabfd38573d2090ffa6573f98a30c7b40a3fefc614",
            "draws_component1.csv": "de1e65e2e0aa6b4af4ea1ef4a8018f2f4f2fbe7d6fd23ffe1f7f3ac4af01978e",
            "draws_component2.csv": "0192c8a8e62cc7f77b61e494114327dfa6b3097ee063038f696a57386c319bdc",
            "em_trace.csv": "569db6cfb03e69a5f7beb329bc00c3736f28a2961d328dfdd6eb554c3764ef77",
            "hyper_estimates.json": "d3022a6e659e3e5cdc9f182f081afb8d400b493d3aeaa4cb8195be3a37d8584e",
            "hpd/band_component1.csv": "bdb64951d66baef1591a1ee8009f53bb463f8c4bfdf67763766a9e0077b4c1b6",
            "hpd/band_component2.csv": "c7cc71c4e983c49006547c69f3be002d3ae8795a5273d3e101d8515a236ee752",
            "hpd/band_system.csv": "174a2d710f2af683f25b1f849385d3c68c63975debd8425a2f82118c3309bfb7",
            "quantile/band_component1.csv": "518266bcaf9aafbda4bc0ad9e5e88b6c6959e731a962d6c556924e088df7caa3",
            "quantile/band_component2.csv": "ed76767d907f73bddb8044463105efdfbcde78273cf5a58a07b8b92edec66247",
            "quantile/band_system.csv": "047adbe2cf212d2c1e2d14ea1c5da50dca98853e777bb3d5d34eac510ab43c61",
            "stdout": "5b28e6dd637e5c00140b4a113f59b9ef6da70ec5628a7cad94a67866190a24e2",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "manifest.json": "0a5d4a8c4d97162b067a95583d77601a5a04fb30e2cf89ac8db71bebf05a4fde",
            "hpd/manifest.json": "d48bd2c6e0ac956f21a6fc3f9d54d34c55cc9020c036c5834432dea2e53d902c",
            "quantile/manifest.json": "7c60a7e8b425fe58d9d6b248f67a014658e9c3155f2cdb8147fd672cf753d70d",
            "sim/manifest.json": "e776dd370175dbb08bf63c2102bccfea609d5913a99950b10d8ee3af2a71e2f5",
        },
        "right": {
            "draws_component1.csv": "30de1dd2d67611389419d8eee6e0d3cc1e21d11d531688e0f127eb76ee7c36f4",
            "em_trace.csv": "ae94dca04476a926a751473106e2168fa2afc3834f9256e7f27d3c372d2142b4",
            "hyper_estimates.json": "9743b808f9d392e0ecf4f15078be7de08b9c8c45d01b57ec1819355d72244e3b",
            "stdout": "e0b99a6d26e44069ba2828d92fd100625936a2f22eef5c39c3fb2a32a9021b38",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "manifest.json": "f029a138c6bce2dab0b4b576fc2b53ae602fec7ddd83e93a492a6b90f930c9e2",
        },
        "left": {
            "draws_component1.csv": "390c4d6d7cdbaa59a4439ee7a590dcda578d2042e9eca081a6257df13b0bf158",
            "em_trace.csv": "428e700bf1d3f5ddce4b11d1d9350b7d6e0cfb4fa0708439fa9ba2d623cf7693",
            "hyper_estimates.json": "d2dbfa41e699903d1fc342b5caeba2d655f6df1248937ffb62e0fd8f0e7a35da",
            "stdout": "bde46c6093f7a10577df71cb922a6608d23b3445f85c09306120fb996f1182eb",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "manifest.json": "43671ab3037bae5c27922fae5d008ae06b14a9e32f4f865c208e83ae925cb27d",
        },
        "study": {
            "study.csv": "2e7573868d57d2caeccf70fc26d87a2b235edd68c5792ff674d78c4aaf433b52",
            "manifest.json": "12b1a3de7460dc7f55b7d6a4f405184c8c6f975b0f96ea373e0b3b07fc9c824c",
            "stdout": "4c0175c9ac9a15d8a9ece6593417dcbdf7085b25cd70511db8d8193de82a02e0",
            "stderr": "5e1c00e27a9b71c6c9fe284aeb4a932b8e40f93fa602500985ca022a5e52c99a",
        },
    }

    # a study subset whose manifest lists a failed replicate (gamma draws a
    # lifetime of 0 at variance 1e6), a fit stopped at the iteration cap
    # and an absurd estimate (weibull at variance 1e6), beside clean cells
    STUDY_SUBSET = ("families = weibull, gamma\nsides = right, left\nsizes = 30\n"
                    "censor-fractions = 0.0, 0.2\nmeans = 2.0\nvariance = 1e6\n")

    def outputs(self, tmp_path, case, capsys) -> dict:
        if case == "study":
            return self.study_outputs(tmp_path, capsys)
        digests = {}
        if case in ("series", "parallel"):
            sim = simulate(tmp_path, spec=SPEC.replace("kind = series", f"kind = {case}"))
            data = sim / "sample.csv"
            digests["sample.csv"] = hashlib.sha256(data.read_bytes()).hexdigest()
            digests["sim/manifest.json"] = self.digest(sim / "manifest.json")
            shape = ("--kind", case, "--k", "2")
        else:
            data = tmp_path / "comp.csv"
            data.write_text(COMPONENT_CSV)
            shape = ("--side", case)
        out = tmp_path / "fit"
        capsys.readouterr()
        assert cli("fit", data, *shape, *FAST_FIT, "--seed", 11, "--out", out) == 0
        digests.update(self.printed(capsys))
        for path in sorted(out.iterdir()):
            digests[path.name] = self.digest(path)
        if case in ("series", "parallel"):
            for method in ("hpd", "quantile"):
                bands = tmp_path / method
                assert cli("reliability", out, "--method", method, "--out", bands) == 0
                for path in sorted(bands.glob("band_*.csv")) + [bands / "manifest.json"]:
                    key = f"{method}/{path.name}"
                    digests[key] = self.digest(path)
        return digests

    def study_outputs(self, tmp_path, capsys) -> dict:
        grid_file = tmp_path / "subset.cfg"
        grid_file.write_text(self.STUDY_SUBSET)
        out = tmp_path / "study"
        capsys.readouterr()
        assert cli("study", "--grid", grid_file, "--replicates", "2",
                   *TestStudyCommand.FAST, "--max-iter", "2", "--seed", 3,
                   "--workers", "1", "--out", out) == 0
        printed = self.printed(capsys)
        m = manifest_of(out)
        assert all(m[key] for key in
                   ("replicate_failures", "not_converged", "absurd_estimates", "work"))
        return {
            "study.csv": self.digest(out / "study.csv"),
            "manifest.json": self.digest(out / "manifest.json"),
            **printed,
        }

    @staticmethod
    def printed(capsys) -> dict:
        """SHA-256 of what the last command wrote to stdout and stderr."""
        captured = capsys.readouterr()
        return {
            "stdout": hashlib.sha256(captured.out.encode()).hexdigest(),
            "stderr": hashlib.sha256(captured.err.encode()).hexdigest(),
        }

    @staticmethod
    def digest(path) -> str:
        """SHA-256 of a file; of a manifest less ``timestamps``, re-serialized
        with sorted keys."""
        if path.name != "manifest.json":
            return hashlib.sha256(path.read_bytes()).hexdigest()
        m = json.loads(path.read_text())
        m.pop("timestamps")
        return hashlib.sha256(json.dumps(m, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("case", ["series", "parallel", "right", "left", "study"])
    def test_outputs_are_bit_identical_to_recorded_run(self, tmp_path, capsys, case):
        assert self.outputs(tmp_path, case, capsys) == self.RECORDED[case]
