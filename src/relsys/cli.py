"""Command line entry points.

Four subcommands cover the workflow end to end::

    relsys simulate --spec system.cfg --seed 7 --out runs/sim
    relsys fit runs/sim/sample.csv --kind series --k 3 --seed 11 --out runs/fit
    relsys reliability runs/fit --level 0.95 --out runs/bands
    relsys study --grid subset.cfg --replicates 20 --seed 3 --out runs/study

Every command writes its artifacts and returns its record: the seed, the
effective configuration, input digests, output names and its own
diagnostics; ``main`` then writes that record, the output digests and the
timestamps to ``manifest.json``.  Rerunning with the same inputs reproduces
every file byte for byte; only the manifest's ``timestamps`` entry moves.

Seeds come exclusively from ``--seed`` flags or config files (default 0);
no environment variable is consulted.  Exit codes: 0 success (including
fits that stop at the iteration cap with ``converged`` false), 1 usage
error (and a run too large to allocate), 2 malformed data, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .errors import DataError, NumericalError, UsageError
from .settings import (
    _ABSURD_FACTOR,
    _GRID_POINTS,
    _KINDS,
    _LEVEL,
    _METHODS,
    _SIDES,
    GRID_REPLICATES,
    FitConfig,
    _within,
)

__all__ = ["main"]

# the names the commands take from numpy and the numeric modules, each with
# its home and the attribute bound there (None: the module itself); they load
# on first use, so that help and usage errors, each flag's bound too, import none
_NUMERIC = {
    "np": ("numpy", None),
    "io": (".io", None),
    **{
        name: (module, name)
        for module, names in {
            ".curves": (
                "TimeGrid", "_sorted_quantile", "mean_time_posterior", "reliability_band",
                "system_band",
            ),
            ".dists": ("GeneratorSpec",),
            ".mcem": ("ComponentFit", "SystemFit", "fit_component", "fit_system"),
            ".sampler": ("PosteriorDraws",),
            ".simlab": (
                "_shared_fit", "generate_system_sample", "grid_specs", "run_forked",
                "run_scenario",
            ),
            ".streams": ("RandomStream",),
        }.items()
        for name in names
    },
}

# simlab, the one numeric module that io does not load itself, is loaded
# only for the commands that draw samples: it would raise the peak memory
# of the others
_SAMPLING_COMMANDS = ("simulate", "study")


def __getattr__(name: str):
    # PEP 562, as in the package itself: a numeric name is imported on its
    # first lookup and then kept, so a value set on the module beforehand
    # (a test's or a tracer's wrapper) is never looked up here
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _NUMERIC[name]
    value = importlib.import_module(module, __package__)
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures exit 1 rather than argparse's 2."""

    def error(self, message):
        raise UsageError(message)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _convert(conv, name: str, raw: str):
    try:
        return conv(raw)
    except ValueError:
        kind = {int: "integer", float: "number"}.get(conv, conv.__name__)
        raise UsageError(f"config value {name}={raw!r} is not a valid {kind}") from None


def _checked(conv, flag: str, ok, must: str):
    """The argparse ``type`` of ``--flag``: ``conv`` of the string, if it passes
    ``ok``; else a UsageError, which argparse lets through to ``main``."""
    def convert(raw: str):
        value = conv(raw)
        if not ok(value):
            raise UsageError(f"--{flag} must {must}, got {value}")
        return value

    convert.__name__ = conv.__name__  # argparse's own "invalid int value: 'abc'"
    return convert


def _at_least(conv, flag: str, least=None):
    """``_checked`` for ``value >= least``, or finite and > 0 with no ``least``."""
    must = "be finite and positive" if least is None else f"be >= {least}"
    return _checked(conv, flag, functools.partial(_within, least=least), must)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"--out {args.out}: cannot create the directory: {e.strerror}") from None
    return out


# ---------------------------------------------------------------- simulate

# components are numbered from 1, without leading zeros
_COMPONENT_KEY = re.compile(r"component([1-9][0-9]*)\.(family|mean|variance)\Z")


def _parse_system_spec(path: str) -> tuple[str, int, int, list[GeneratorSpec]]:
    """Parse a simulate spec file into (kind, n, seed, generators); seed defaults to 0."""
    raw = io.read_config(path)
    kind = n = None
    seed = 0
    fields: dict[int, dict[str, str]] = {}
    for key, value in raw.items():
        if key == "kind":
            kind = value
        elif key == "n":
            n = _convert(int, "n", value)
        elif key == "seed":
            seed = _convert(int, "seed", value)
            if seed < 0:
                raise UsageError(f"{path}: seed must be >= 0, got {seed}")
        else:
            m = _COMPONENT_KEY.match(key)
            if m is None:
                raise UsageError(f"{path}: unknown key {key!r}")
            fields.setdefault(int(m.group(1)), {})[m.group(2)] = value
    if kind is None:
        raise UsageError(f"{path}: missing key 'kind'")
    if kind not in _KINDS:
        raise UsageError(f"{path}: kind must be one of {_KINDS}, got {kind!r}")
    if n is None:
        raise UsageError(f"{path}: missing key 'n'")
    if n < 1:
        raise UsageError(f"{path}: n must be >= 1, got {n}")
    if not fields:
        raise UsageError(
            f"{path}: no component entries (expected component1.family=... etc.)"
        )
    k = max(fields)
    generators = []
    for j in range(1, k + 1):
        got = fields.get(j)
        if got is None:
            raise UsageError(
                f"{path}: component {j} is missing (components must be numbered 1..{k})"
            )
        missing = [f for f in ("family", "mean", "variance") if f not in got]
        if missing:
            raise UsageError(f"{path}: component {j} is missing {', '.join(missing)}")
        try:
            generators.append(
                GeneratorSpec(
                    got["family"],
                    _convert(float, f"component{j}.mean", got["mean"]),
                    _convert(float, f"component{j}.variance", got["variance"]),
                )
            )
        except ValueError as e:
            raise UsageError(f"{path}: component {j}: {e}") from None
    return kind, n, seed, generators


def cmd_simulate(args) -> dict:
    kind, n, spec_seed, generators = _parse_system_spec(args.spec)
    # digest the spec before --out is written: it may hold the spec itself
    inputs = {Path(args.spec).name: io.sha256_file(args.spec)}
    seed = spec_seed if args.seed is None else args.seed
    k = len(generators)
    sample = generate_system_sample(generators, kind, n, RandomStream(seed).generator())
    out = _out_dir(args)
    io.write_table(
        out / "sample.csv", io.SYSTEM_HEADER, zip(sample.times.tolist(), sample.causes.tolist())
    )
    counts = np.bincount(sample.causes - 1, minlength=k).tolist()
    censoring_pct = [100.0 * (1.0 - counts[j] / n) for j in range(k)]
    for j, pct in enumerate(censoring_pct, start=1):
        print(f"component {j}: {counts[j - 1]} failures observed, {pct:.1f}% censored")
    return {
        "seed": seed,
        "config": {
            "kind": kind,
            "n": n,
            "components": [
                {"family": g.family, "mean": g.mean, "variance": g.variance}
                for g in generators
            ],
        },
        "inputs": inputs,
        "outputs": ["sample.csv"],
        "achieved_censoring_pct": censoring_pct,
    }


# --------------------------------------------------------------------- fit


# the chain settings, each a FitConfig field that declares its flag
_CHAIN_FIELDS = dataclasses.fields(FitConfig)


def _chain_settings(args) -> tuple[dict, FitConfig]:
    """The chain settings keyed as the manifest records them, and the
    :class:`FitConfig` they make."""
    s, kwargs = {}, {}
    for f in _CHAIN_FIELDS:
        flag = f.metadata["flag"]
        s[flag] = kwargs[f.name] = getattr(args, flag.replace("-", "_"))
    try:
        return s, FitConfig(**kwargs)
    except ValueError as e:
        # each flag's own bound is parsed; what is left is the chain's length
        raise UsageError(str(e)) from None


# the fields of a component's hyper_estimates.json record its manifest entry repeats
_MANIFEST_COMPONENT_KEYS = (
    "component", "converged", "iterations", "chains", "min_weight_ess", "acceptance_rate",
)


def _component_record(j: int, f: ComponentFit, mean_time: float, sd_time: float,
                      t_max: float) -> dict:
    """Component ``j``'s ``hyper_estimates.json`` entry, given its posterior
    lifetime moments and the largest time in the data.

    A mean lifetime that is not finite, or above ``_ABSURD_FACTOR`` times
    ``t_max``, adds a warning; a moment JSON cannot hold is written as null.
    """
    d = f.draws
    warnings = list(f.warnings)
    if not mean_time <= _ABSURD_FACTOR * t_max:
        warnings.append(
            f"absurd posterior mean lifetime {mean_time:.6g} "
            f"(the largest time in the data is {t_max:.6g})"
        )
    return {
        "component": j,
        "m_beta": f.m_beta,
        "m_eta": f.m_eta,
        "mean_time": _json_number(mean_time),
        "sd_time": _json_number(sd_time),
        "converged": f.converged,
        "iterations": len(f.em_trace) - 1,
        "chains": f.chains,
        "min_weight_ess": f.min_weight_ess,
        "acceptance_rate": d.acceptance_rate,
        "step_final": d.step_final,
        "lag1_beta": d.lag1_beta,
        "lag1_eta": d.lag1_eta,
        "warnings": warnings,
    }


def cmd_fit(args) -> dict:
    kind, k, side, seed = args.kind, args.k, args.side, args.seed
    s, cfg = _chain_settings(args)
    input_digest = io.sha256_file(args.data)
    header = io.read_header(args.data)
    if header == io.SYSTEM_HEADER:
        if side is not None:
            raise UsageError("data has a 'time,cause' header; it does not take --side")
        if kind is None:
            raise UsageError("data has a 'time,cause' header; --kind is required")
        if k is None:
            raise UsageError("data has a 'time,cause' header; --k is required")
        sample = io.read_system_csv(args.data, kind, k)
        times = sample.times
        # the fit splits the sample into one per component before any chain
        # runs; beyond one component per record, at least k - n have no
        # failure, and a huge --k would fill the memory with empty ones
        if k > times.size:
            raise UsageError(f"--k must be <= {times.size}, the number of records, got {k}")
        out = _out_dir(args)
        fits = fit_system(sample, cfg, RandomStream(seed)).components
        shape = {"kind": kind, "k": k}
    elif header == io.COMPONENT_HEADER:
        ignored = [flag for flag, v in (("--kind", kind), ("--k", k)) if v is not None]
        if ignored:
            raise UsageError(
                f"data has a 'time,event' header; it does not take {' or '.join(ignored)}"
            )
        if side is None:
            raise UsageError("data has a 'time,event' header; --side is required")
        comp = io.read_component_csv(args.data, side)
        times = comp.times
        out = _out_dir(args)
        fits = (fit_component(comp, cfg, RandomStream(seed).child(0)),)
        shape = {"kind": "component", "k": 1, "side": side}
    else:
        raise DataError(
            f"{args.data}: unrecognized header {','.join(header)!r}; "
            "expected time,cause or time,event"
        )
    ordered = np.sort(times)
    outputs = []
    records = []
    for j, f in enumerate(fits, start=1):
        name = io.draws_filename(j)
        io.write_draws_csv(out / name, j, f.draws)
        outputs.append(name)
        mean_time, sd_time = mean_time_posterior(f.draws)
        r = _component_record(j, f, mean_time, sd_time, float(ordered[-1]))
        records.append(r)
        state = "converged" if r["converged"] else "NOT converged"
        print(
            f"component {j}: m_beta={r['m_beta']:.6g} m_eta={r['m_eta']:.6g} "
            f"mean_time={mean_time:.6g} ({state}, "
            f"acceptance {r['acceptance_rate']:.2f})"
        )
        for w in r["warnings"]:
            print(f"component {j}: warning: {w}", file=sys.stderr)
    io.write_trace_csv(out / "em_trace.csv", fits)
    outputs.append("em_trace.csv")
    # np.percentile(times, 99.0) bit for bit, without the numpy.ma import it makes
    t99 = float(_sorted_quantile(ordered[None, :], 0.99)[0])
    io.write_json(out / "hyper_estimates.json", {**shape, "t99": t99, "components": records})
    outputs.append("hyper_estimates.json")
    return {
        "seed": seed,
        "config": {**s, **shape},
        "inputs": {Path(args.data).name: input_digest},
        "outputs": outputs,
        "components": [{key: r[key] for key in _MANIFEST_COMPONENT_KEYS} for r in records],
    }


# ------------------------------------------------------------- reliability

def _draws_shell(betas, etas) -> ComponentFit:
    """Wrap saved draws in the fit object the band code takes.

    Only the draws feed a band; the chain diagnostics and EM results the
    shell also carries are not read back and stay NaN.
    """
    nan = math.nan
    d = PosteriorDraws(
        betas=betas,
        etas=etas,
        acceptance_rate=nan,
        step_final=nan,
        lag1_beta=nan,
        lag1_eta=nan,
        warnings=(),
    )
    return ComponentFit(
        m_beta=nan,
        m_eta=nan,
        draws=d,
        em_trace=(),
        converged=True,
        warnings=(),
        chains=0,
        min_weight_ess=nan,
    )


# a one-component fit composes as a one-element series (identity)
_BAND_KINDS = {"series": "series", "parallel": "parallel", "component": "series"}


def cmd_reliability(args) -> dict:
    grid_max, grid_points, level, method = (
        args.grid_max, args.grid_points, args.level, args.method
    )
    src = Path(args.draws)
    if Path(args.out).resolve() == src.resolve():
        # the bands' manifest would replace the one that records the fit
        raise UsageError(f"--out {args.out} is the draws directory {src}; choose another")
    hyper_path = src / "hyper_estimates.json"
    if not hyper_path.exists():
        raise DataError(
            f"{src}: missing hyper_estimates.json (expected a fit output directory)"
        )
    hyper = io.read_json(hyper_path)
    try:
        kind, k = hyper["kind"], hyper["k"]
    except (KeyError, TypeError):
        raise DataError(f"{hyper_path}: missing 'kind'/'k' entries") from None
    # a JSON integer only: int() would truncate 1.9 and take "2", and a bool is an int
    if type(k) is not int or k < 1:
        raise DataError(f"{hyper_path}: k must be an integer >= 1, got {k!r}")
    if not (isinstance(kind, str) and kind in _BAND_KINDS):
        raise DataError(
            f"{hyper_path}: kind must be one of {tuple(_BAND_KINDS)}, got {kind!r}"
        )
    if kind == "component" and k != 1:
        raise DataError(f"{hyper_path}: a component fit has k = 1, got {k!r}")
    sys_kind = _BAND_KINDS[kind]
    comp_fits = []
    inputs = {hyper_path.name: io.sha256_file(hyper_path)}
    for j in range(1, k + 1):
        path = src / io.draws_filename(j)
        if not path.exists():
            raise DataError(
                f"{src}: missing draws files: expected {io.draws_filename(1)} to "
                f"{io.draws_filename(k)}; absent: {path.name}"
            )
        comp_fits.append(_draws_shell(*io.read_draws_csv(path, j)))
        inputs[path.name] = io.sha256_file(path)
    # a system band pairs the components' draws one to one; checked before
    # --out is made, so that no band is written
    counts = sorted({f.draws.n for f in comp_fits})
    if len(counts) > 1:
        raise DataError(f"{src}: components carry unequal draw counts {counts}")

    if grid_max is None:
        if "t99" not in hyper:
            raise UsageError("--grid-max is required (no 't99' anchor in hyper_estimates.json)")
        t99 = hyper["t99"]
        # a bool is an int, and JSON's Infinity and NaN are floats
        if (
            isinstance(t99, bool)
            or not isinstance(t99, (int, float))
            or not 0.0 < t99 <= sys.float_info.max
        ):
            raise DataError(f"{hyper_path}: t99 must be a finite number > 0, got {t99!r}")
        grid_max = float(t99)
    try:
        grid = (
            TimeGrid(np.array([grid_max]))
            if grid_points == 1
            else TimeGrid.regular(float(grid_max), grid_points)
        )
    except ValueError:
        # the only grid fault left: points that round to equal times
        raise UsageError(
            f"grid max {grid_max!r} is too small for --grid-points {grid_points} "
            "distinct times"
        ) from None

    out = _out_dir(args)
    outputs = []
    for j, f in enumerate(comp_fits, start=1):
        band = reliability_band(f.draws, grid, level=level, method=method)
        name = f"band_component{j}.csv"
        io.write_band_csv(out / name, band)
        outputs.append(name)
    sband = system_band(SystemFit(sys_kind, tuple(comp_fits)), grid, level=level, method=method)
    io.write_band_csv(out / "band_system.csv", sband)
    outputs.append("band_system.csv")
    print(f"wrote {len(outputs)} bands on {grid.n} time points up to {grid_max:.6g}")
    return {
        "seed": None,
        "config": {
            "grid-max": float(grid_max),
            "grid-points": grid_points,
            "level": level,
            "method": method,
            "kind": kind,
            "k": k,
        },
        "inputs": inputs,
        "outputs": outputs,
    }


# ------------------------------------------------------------------- study

# each subset-file key: its grid_specs keyword, the type of its values, and
# whether it takes a comma-separated list of them
_STUDY_GRID_KEYS = {
    "families": ("families", str, True),
    "sides": ("sides", str, True),
    "means": ("means", float, True),
    "censor-fractions": ("censor_fractions", float, True),
    "sizes": ("sizes", int, True),
    "variance": ("variance", float, False),
    "replicates": ("replicates", int, False),
}


def _split(raw: str, conv, name: str, path: str) -> tuple:
    items = [c.strip() for c in raw.split(",") if c.strip()]
    if not items:
        raise UsageError(f"{path}: {name} lists no values")
    return tuple(_convert(conv, name, c) for c in items)


def _grid_settings(grid_arg: str) -> tuple[dict, dict]:
    """Resolve --grid into grid_specs keyword arguments.

    Returns (kwargs, inputs) where inputs maps a subset file to its digest.
    """
    if grid_arg == "full":
        return {}, {}
    kwargs = {}
    for key, raw in io.read_config(grid_arg).items():
        if key not in _STUDY_GRID_KEYS:
            raise UsageError(f"{grid_arg}: unknown config key {key!r}")
        name, conv, is_list = _STUDY_GRID_KEYS[key]
        kwargs[name] = _split(raw, conv, key, grid_arg) if is_list else _convert(conv, key, raw)
    return kwargs, {Path(grid_arg).name: io.sha256_file(grid_arg)}


def _json_number(x: float) -> float | None:
    """``x``, or None where JSON has no number for it (NaN, infinities)."""
    return x if math.isfinite(x) else None


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_study(args) -> dict:
    workers = args.workers if args.workers is not None else _usable_cpus()
    s, cfg = _chain_settings(args)

    kwargs, inputs = _grid_settings(args.grid)
    if args.replicates is not None:
        kwargs["replicates"] = args.replicates
    try:
        specs = grid_specs(**kwargs)
    except ValueError as e:
        raise UsageError(f"invalid study grid: {e}") from None
    replicates = specs[0].replicates
    # each distinct fit runs once, under the key of the cells that share it
    keys = [_shared_fit(spec) for spec in specs]
    fits = list(dict.fromkeys(keys))
    # a worker is a fork of this process; without fork the study runs here
    workers = min(workers, len(fits)) if hasattr(os, "fork") else 1
    out = _out_dir(args)

    master = RandomStream(args.seed)
    runner = functools.partial(run_scenario, cfg=cfg, source=master)
    done = dict(zip(fits, run_forked(runner, fits, workers)))
    results = [done[key] for key in keys]

    rows = []
    cells = {"replicate_failures": [], "not_converged": [], "absurd_estimates": [], "work": []}
    for spec, r in zip(specs, results):
        c = spec.coords
        cell = (
            f"{c['side']} {c['family']} censor={c['censor_pct']:.0f}% "
            f"mean={c['true_mean']:g} n={c['n']}"
        )
        line = f"{cell}: bias={r.bias:.4f} mse={r.mse:.4f}"
        if r.n_failed:
            line += f" ({r.n_failed} of {replicates} replicates failed)"
        if r.not_converged:
            line += f" ({len(r.not_converged)} of {replicates} fits not converged)"
        print(line)
        for rep, reason in r.failures:
            print(f"{cell}: replicate {rep} failed: {reason}", file=sys.stderr)
        for rep, est in r.absurd:
            print(
                f"{cell}: replicate {rep} has an absurd mean-lifetime estimate {est:.6g}",
                file=sys.stderr,
            )
        # a cell enters the first three manifest lists only with something to list
        for key, field, entries in (
            ("replicate_failures", "failures",
             [{"replicate": rep, "reason": why} for rep, why in r.failures]),
            ("not_converged", "replicates", list(r.not_converged)),
            ("absurd_estimates", "replicates",
             [{"replicate": rep, "estimate": _json_number(est)} for rep, est in r.absurd]),
        ):
            if entries:
                cells[key].append({**c, field: entries})
        cells["work"].append(
            {
                **c,
                "chains": r.chains,
                "iterations": r.iterations,
                "min_weight_ess": _json_number(r.min_weight_ess),
            }
        )
        rows.append((*c.values(), r.bias, r.mse, r.n_failed))

    io.write_table(out / "study.csv", io.STUDY_HEADER, rows)
    return {
        "seed": args.seed,
        # the subset file by name; its content digest sits under inputs
        "config": {
            "grid": args.grid if args.grid == "full" else Path(args.grid).name,
            "replicates": replicates,
            "workers": workers,
            **s,
        },
        "inputs": inputs,
        "outputs": ["study.csv"],
        "cells": len(specs),
        "failed_replicates": sum(r.n_failed for r in results),
        **cells,
    }


# -------------------------------------------------------------------- main

# the settings a --config file may give, as the flags they name
_CONFIG_KEYS = {
    "fit": ("kind", "k", "side", *(f.metadata["flag"] for f in _CHAIN_FIELDS), "seed"),
    "reliability": ("grid-max", "grid-points", "level", "method"),
}
_CONFIG_HELP = "file of key = value lines, read as the flags they name; flags win"


def _add_chain_settings(p: argparse.ArgumentParser) -> None:
    for f in _CHAIN_FIELDS:
        p.add_argument(f"--{f.metadata['flag']}", default=f.default, help=f.metadata["help"],
                       type=_at_least(type(f.default), f.metadata["flag"], f.metadata["least"]))


def _build_parser() -> _Parser:
    seed = _at_least(int, "seed", 0)
    p = _Parser(
        prog="relsys",
        description="Hierarchical Bayesian reliability estimation for masked "
        "series/parallel failure data.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    sim = sub.add_parser(
        "simulate",
        help="draw a masked system failure sample",
        description="Draw a masked failure sample from configured component "
        "lifetime distributions and write it as a time,cause CSV.",
    )
    sim.add_argument("--spec", required=True, help="flat key=value system description")
    sim.add_argument("--seed", type=seed, default=None, help="root seed (default 0)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser(
        "fit",
        help="estimate the hierarchical model from a failure CSV",
        description="Fit per-component Weibull posteriors from a masked system "
        "sample (time,cause) or a pre-decomposed component sample (time,event).",
    )
    fit.add_argument("data", help="failure sample CSV")
    fit.add_argument("--config", default=None, help=_CONFIG_HELP)
    fit.add_argument(
        "--kind", choices=_KINDS, default=None, help="system structure, for time,cause data"
    )
    fit.add_argument("--k", type=_at_least(int, "k", 1), default=None,
                     help="number of components, for time,cause data")
    fit.add_argument(
        "--side",
        choices=_SIDES,
        default=None,
        help="censoring side for time,event data",
    )
    _add_chain_settings(fit)
    fit.add_argument("--seed", type=seed, default=0, help="root seed (default %(default)s)")
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=cmd_fit)

    rel = sub.add_parser(
        "reliability",
        help="turn saved posterior draws into reliability bands",
        description="Read a fit output directory and write pointwise credible "
        "bands for each component and for the system curve.",
    )
    rel.add_argument("draws", help="fit output directory")
    rel.add_argument("--config", default=None, help=_CONFIG_HELP)
    rel.add_argument(
        "--grid-max",
        type=_at_least(float, "grid-max"),
        default=None,
        help="largest grid time (default: the fit's 99th-percentile anchor)",
    )
    rel.add_argument(
        "--grid-points",
        type=_at_least(int, "grid-points", 1),
        default=_GRID_POINTS,
        help="number of grid times from 0 (default %(default)s)",
    )
    level = _checked(float, "level", lambda value: 0 < value < 1, "lie strictly between 0 and 1")
    rel.add_argument("--level", type=level, default=_LEVEL,
                     help="credible level (default %(default)g)")
    rel.add_argument(
        "--method",
        choices=_METHODS,
        default=_METHODS[0],
        help="interval rule (default %(default)s)",
    )
    rel.add_argument("--out", required=True, help="output directory")
    rel.set_defaults(func=cmd_reliability)

    study = sub.add_parser(
        "study",
        help="run the bias/MSE simulation grid",
        description="Replicate censored-sampling scenarios over a grid of "
        "generators, censoring fractions and sample sizes, and tabulate bias "
        "and mean squared error of the posterior-mean lifetime.",
    )
    study.add_argument(
        "--grid",
        default="full",
        help="'full' or a flat key=value subset file "
        "(families/sides/means/censor-fractions/sizes/variance/replicates); "
        "--replicates beats its replicates key",
    )
    study.add_argument(
        "--replicates",
        type=_at_least(int, "replicates", 1),
        default=None,
        help=f"replicates per cell (default: the --grid file's replicates key, "
        f"else {GRID_REPLICATES})",
    )
    _add_chain_settings(study)
    study.add_argument("--seed", type=seed, default=0, help="root seed (default %(default)s)")
    study.add_argument(
        "--workers",
        type=_at_least(int, "workers", 1),
        default=None,
        help="worker processes, at most one per distinct fit "
        "(default: the CPUs this process may use)",
    )
    study.add_argument("--out", required=True, help="output directory")
    study.set_defaults(func=cmd_study)

    return p


def _config_flags(path: str, command: str) -> list[str]:
    """A ``--config`` file's ``key = value`` lines as ``--key=value`` flags."""
    flags = []
    for key, value in io.read_config(path).items():
        if key not in _CONFIG_KEYS[command]:
            raise UsageError(f"{path}: unknown config key {key!r}")
        flags.append(f"--{key}={value}")
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.

    First, unless the process has already imported it, ``main`` marks
    OpenSSL's ``_hashlib`` as absent, so that ``hashlib`` and ``hmac`` use
    the interpreter's built-in hashes for the rest of the process and in
    every forked study worker.  A program that calls ``main`` before it
    imports ``hashlib`` gets those built-in hashes too.
    """
    # numpy.random imports secrets, which imports hmac and so hashlib, whose
    # _hashlib maps OpenSSL: 3.4 MB resident in every fit, simulate and study
    # worker, though relsys hashes nothing with it.  With the entry None, an
    # import of _hashlib raises ImportError and both modules fall back to
    # the built-in hashes
    sys.modules.setdefault("_hashlib", None)
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        # the commands read their numeric names as globals, which PEP 562
        # does not reach: bind each one, keeping a value already set
        module = sys.modules[__name__]
        for name, (home, _) in _NUMERIC.items():
            if home != ".simlab" or args.command in _SAMPLING_COMMANDS:
                getattr(module, name)
        if getattr(args, "config", None) is not None:
            # the file's flags go right after the command, so that the
            # command line's own, parsed later, win
            flags = _config_flags(args.config, args.command)
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        started = _now()
        # a command returns its record only once every output is written,
        # so one that raises leaves no manifest
        record = args.func(args)
        out = Path(args.out)
        io.write_json(out / "manifest.json", {
            "command": args.command,
            **record,
            "outputs": {name: io.sha256_file(out / name) for name in record["outputs"]},
            "timestamps": {"started": started, "finished": _now()},
        })
        return 0
    except (UsageError, DataError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, UsageError) else 2 if isinstance(e, DataError) else 3
    except MemoryError as e:
        # chain or sample settings too large to allocate: a usage error
        print(f"error: not enough memory for this run: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
