"""Traced run: the workload in-process through ``relsys.cli.main``, with
wrappers installed at the attribute each caller looks up.

Coarse calls (chains, M steps, fits, cells, bands, file I/O) become spans
with a name, start, end and parent, kept in memory and written out at the
end.  The posterior kernel, ``log_gamma_fn`` and stream generators are
called millions of times, so they are aggregated into a call count and a
self time instead; the time of an outermost such call is charged to the
enclosing span, so a span's self time is its duration minus its child
spans and the aggregated calls inside it.

One traced run does, in order: an untraced in-process warm-up (the
reference for output bytes, its time discarded), three pairs of an
untraced and a traced run, U T U T U T, whose wall times give the tracing
overhead and whose traced runs must repeat every count metric exactly, and
the kernel probes.
For the study, a subprocess run with a pool of nproc workers also gives the
untraced wall time the pool metrics are measured against.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from harness import OUT, SRC, Runner, digests, nproc
from workloads import Workload

perf = time.perf_counter

PROBE_SIZES = (30, 100, 1000)
PROBE_CALLS = 2000
PROBE_REPEATS = 7
TRACE_PAIRS = 3

# metrics that must repeat exactly between two traced runs
COUNTS = (
    "sysmodel.kernel_evals", "dists.log_gamma_calls", "sampler.chains", "sampler.steps",
    "sampler.acceptance_rate", "mcem.em_iterations", "mcem.em_iterations_max",
    "mcem.chain_growths", "mcem.converged_frac", "simlab.failed_replicates",
    "simlab.duplicate_cell_frac", "curves.matrix_mb", "io.bytes_written",
    "streams.generators",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "hot", "attrs")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.hot = 0.0  # aggregated hot-call time inside this span
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[str] = []
        self._open: list[int] = []
        self._nested: list[float] = []  # time of hot calls inside each open hot call
        self._patches: list = []

    def span(self, name: str, fn, attrs=None):
        def wrapper(*a, **kw):
            s = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(s)
            s.start = perf()
            try:
                out = fn(*a, **kw)
            except BaseException:
                s.attrs["failed"] = True
                raise
            finally:
                s.end = perf()
                self._open.pop()
            if attrs is not None:
                s.attrs.update(attrs(a, kw, out))
            return out

        return wrapper

    def hot_call(self, name: str, fn):
        """Aggregate ``fn`` into a call count and a self time.

        A hot call made inside another (``log_gamma_fn`` inside the kernel)
        is timed on its own and its time, wrapper included, is taken out of
        the enclosing call's total, as child spans are taken out of a span.
        """
        rec = self.hot.setdefault(name, [0, 0.0])
        nested = self._nested

        def wrapper(*a, **kw):
            nested.append(0.0)
            t = perf()
            try:
                return fn(*a, **kw)
            finally:
                dt = perf() - t
                rec[0] += 1
                rec[1] += dt - nested.pop()
                if nested:
                    nested[-1] += perf() - t
                elif self._open:
                    self.spans[self._open[-1]].hot += perf() - t

        return wrapper

    def patch(self, obj, attr: str, wrap) -> None:
        orig = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        self._patches.append((obj, attr, orig))
        setattr(obj, attr, wrap(orig))

    def install(self) -> None:
        import relsys.cli as cli
        import relsys.curves as curves
        import relsys.dists as dists
        import relsys.io as rio
        import relsys.mcem as mcem
        import relsys.simlab as simlab
        import relsys.streams as streams

        def kernel_factory(orig):
            def make(c, priors):
                return self.hot_call(f"kernel.{c.side}", orig(c, priors))
            return make

        def chain_attrs(a, kw, out):
            cfg = _arg(a, kw, 1, "cfg")
            return {"steps": cfg.burn_in + cfg.n_p * cfg.thin, "n_p": cfg.n_p,
                    "collected": cfg.n_p * cfg.thin, "acceptance": out.acceptance_rate}

        def band_attrs(a, kw, out):
            d, grid = _arg(a, kw, 0, "d"), _arg(a, kw, 1, "grid")
            return {"method": kw.get("method", "hpd"), "bytes": 8 * grid.n * d.n}

        def system_attrs(a, kw, out):
            f, grid = _arg(a, kw, 0, "f"), _arg(a, kw, 1, "grid")
            # one matrix per component plus their combination
            return {"bytes": 8 * grid.n * f.components[0].draws.n * (f.k + 1)}

        self.patch(mcem, "make_log_kernel", kernel_factory)
        self.patch(mcem, "run_chain", lambda f: self.span("sampler.run_chain", f, chain_attrs))
        self.patch(mcem, "m_step", lambda f: self.span("mcem.m_step", f))
        for mod in (mcem, simlab, cli):
            self.patch(mod, "fit_component", lambda f: self.span(
                "mcem.fit_component", f,
                lambda a, kw, out: {"iterations": len(out.em_trace) - 1,
                                    "converged": out.converged}))
        self.patch(cli, "run_scenario", lambda f: self.span(
            "simlab.cell", f,
            lambda a, kw, out: {"n_failed": out.n_failed, "estimates": out.estimates,
                                "key": _cell_key(out.spec)}))
        self.patch(simlab, "generate_censored_sample", lambda f: self.span("simlab.generate", f))
        for mod in (simlab, cli):
            self.patch(mod, "mean_time_posterior",
                       lambda f: self.span("curves.mean_time_posterior", f))
        self.patch(cli, "reliability_band", lambda f: self.span("curves.band", f, band_attrs))
        self.patch(cli, "system_band", lambda f: self.span("curves.system_band", f, system_attrs))
        for attr in ("read_draws_csv", "write_draws_csv", "write_band_csv",
                     "read_system_csv", "sha256_file"):
            self.patch(rio, attr, lambda f, a=attr: self.span(f"io.{a}", f))
        for mod in (dists, mcem, curves):
            self.patch(mod, "log_gamma_fn", lambda f: self.hot_call("log_gamma_fn", f))
        self.patch(streams.RandomStream, "generator", lambda f: self.hot_call("generator", f))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "hot_s": s.hot} for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "aggregated": self.hot}) + "\n")


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _cell_key(spec) -> tuple:
    g = spec.generator
    return (g.family, g.mean, g.variance, spec.censor_fraction, spec.n)


def run_inprocess(argvs, problems: list[str]) -> float:
    """Run each argv through ``relsys.cli.main``; return the total wall time.

    A non-zero exit or an exception the command lets escape is recorded in
    ``problems``.
    """
    from relsys.cli import main

    total = 0.0
    for argv in argvs:
        sink = stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t = perf()
            try:
                code = main(argv)
            except Exception:
                code = "an exception"
                traceback.print_exc()
            total += perf() - t
        if code != 0:
            problems.append(f"in-process relsys {argv[0]} exited {code}: "
                            f"{sink.getvalue().strip()[-200:]}")
    return total


def _pool_tail(durations: list[float], workers: int) -> float:
    """Time only one cell runs when the cells are handed out in order to
    ``workers`` workers, each taking the next cell when it is free."""
    free = [0.0] * workers
    intervals = []
    for d in durations:
        w = min(range(workers), key=free.__getitem__)
        intervals.append((free[w], free[w] + d))
        free[w] += d
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    tail, running, last = 0.0, 0, 0.0
    for t, step in events:
        if running == 1:
            tail += t - last
        running += step
        last = t
    return tail


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(t: Tracer, overhead: float, pool_wall: float | None, workers: int,
                  bytes_written: int) -> dict:
    by: dict[str, list[Span]] = {}
    for s in t.spans:
        by.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in t.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def hot(name):
        return t.hot.get(name, (0, 0.0))

    def ms(name):
        return 1e3 * _mean(s.dur for s in by.get(name, []))

    m = {}
    right, left = hot("kernel.right"), hot("kernel.left")
    m["sysmodel.kernel_evals"] = (right[0] + left[0], "count")
    m["sysmodel.kernel_right_us"] = (1e6 * right[1] / right[0] if right[0] else 0.0, "us")
    m["sysmodel.kernel_left_us"] = (1e6 * left[1] / left[0] if left[0] else 0.0, "us")
    lg = hot("log_gamma_fn")
    m["dists.log_gamma_calls"] = (lg[0], "count")
    m["dists.log_gamma_us"] = (1e6 * lg[1] / lg[0] if lg[0] else 0.0, "us")

    chains = by.get("sampler.run_chain", [])
    steps = sum(s.attrs.get("steps", 0) for s in chains)
    collected = sum(s.attrs.get("collected", 0) for s in chains)
    m["sampler.chains"] = (len(chains), "count")
    m["sampler.steps"] = (steps, "count")
    m["sampler.self_us_per_step"] = (
        1e6 * sum(s.dur - s.hot for s in chains) / steps if steps else 0.0, "us")
    m["sampler.acceptance_rate"] = (
        sum(s.attrs.get("acceptance", 0.0) * s.attrs.get("collected", 0) for s in chains)
        / collected if collected else 0.0, "ratio")

    fits = [s for s in by.get("mcem.fit_component", []) if not s.attrs.get("failed")]
    growths = 0
    for i, s in enumerate(t.spans):
        if s.name == "mcem.fit_component":
            nps = [c.attrs.get("n_p", 0) for c in children.get(i, [])
                   if c.name == "sampler.run_chain"]
            growths += sum(b > a for a, b in zip(nps, nps[1:]))
    iters = [s.attrs["iterations"] for s in fits]
    m["mcem.em_iterations"] = (sum(iters), "count")
    m["mcem.em_iterations_max"] = (max(iters, default=0), "count")
    m["mcem.chain_growths"] = (growths, "count")
    m["mcem.m_step_us"] = (1e3 * ms("mcem.m_step"), "us")
    m["mcem.fit_component_s.max"] = (max((s.dur for s in fits), default=0.0), "s")
    m["mcem.converged_frac"] = (_mean(1.0 if s.attrs["converged"] else 0.0 for s in fits), "ratio")

    cells = by.get("simlab.cell", [])
    reps = []
    for i, s in enumerate(t.spans):
        if s.name != "simlab.cell":
            continue
        # a replicate runs from its data generation to the next one's
        starts = [c.start for c in children.get(i, []) if c.name == "simlab.generate"]
        reps += [b - a for a, b in zip(starts, starts[1:] + [s.end])]
    cell_s = [s.dur for s in cells]
    seen: dict = {}
    dup = 0
    for s in cells:
        key = s.attrs.get("key")
        if key in seen and seen[key] == s.attrs.get("estimates"):
            dup += 1
        seen.setdefault(key, s.attrs.get("estimates"))
    m["simlab.cell_s.p50"] = (statistics.median(cell_s) if cell_s else 0.0, "s")
    m["simlab.cell_s.max"] = (max(cell_s, default=0.0), "s")
    m["simlab.replicate_s.p50"] = (statistics.median(reps) if reps else 0.0, "s")
    m["simlab.replicate_s.max"] = (max(reps, default=0.0), "s")
    m["simlab.generate_ms"] = (ms("simlab.generate"), "ms")
    m["simlab.failed_replicates"] = (sum(s.attrs.get("n_failed", 0) for s in cells), "count")
    m["simlab.duplicate_cell_frac"] = (dup / len(cells) if cells else 0.0, "ratio")

    m["cli.pool_busy_frac"] = (
        sum(cell_s) / (workers * pool_wall) if pool_wall else 0.0, "ratio")
    m["cli.pool_tail_s"] = (_pool_tail(cell_s, workers) if cells else 0.0, "s")

    bands = by.get("curves.band", [])
    for method in ("hpd", "quantile"):
        m[f"curves.band_{method}_ms"] = (
            1e3 * _mean(s.dur for s in bands if s.attrs.get("method") == method), "ms")
    m["curves.system_band_ms"] = (ms("curves.system_band"), "ms")
    m["curves.mean_time_posterior_ms"] = (ms("curves.mean_time_posterior"), "ms")
    m["curves.matrix_mb"] = (
        max((s.attrs.get("bytes", 0) for s in bands + by.get("curves.system_band", [])),
            default=0) / 1e6, "MB")

    m["io.read_draws_ms"] = (ms("io.read_draws_csv"), "ms")
    m["io.write_draws_ms"] = (ms("io.write_draws_csv"), "ms")
    m["io.write_band_ms"] = (ms("io.write_band_csv"), "ms")
    m["io.read_system_csv_ms"] = (ms("io.read_system_csv"), "ms")
    m["io.sha256_ms"] = (ms("io.sha256_file"), "ms")
    m["io.bytes_written"] = (bytes_written, "bytes")
    m["streams.generators"] = (hot("generator")[0], "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def kernel_probes(seed: int) -> dict:
    """Microseconds per posterior-kernel call on generated samples at fixed
    parameters, for both censoring sides and three sample sizes."""
    from relsys.dists import ComponentParams, GeneratorSpec, MeanVarGamma
    from relsys.simlab import generate_censored_sample
    from relsys.streams import RandomStream
    from relsys.sysmodel import make_log_kernel

    g = GeneratorSpec("weibull", 2.0, 5.0)
    priors = (MeanVarGamma(1.0, 4.0), MeanVarGamma(2.0, 4.0))
    p = ComponentParams(1.3, 2.1)
    out = {}
    for side in ("right", "left"):
        for n in PROBE_SIZES:
            sample = generate_censored_sample(
                g, n, 0.4, side, RandomStream(seed).child(n).generator())
            kernel = make_log_kernel(sample, priors)
            kernel(p)
            reps = []
            for _ in range(PROBE_REPEATS):
                t0 = perf()
                for _ in range(PROBE_CALLS):
                    kernel(p)
                reps.append(1e6 * (perf() - t0) / PROBE_CALLS)
            # the fastest repeat, as timeit reports it: the tail is the machine's load
            out[f"sysmodel.probe_us.{side}.n{n}"] = (min(reps), "us")
    return out


def _output_bytes(work: Path, dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in (work / d).glob("*") if p.is_file())


def traced(wl: Workload, work: Path, seed: int, runner: Runner) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import relsys.cli  # noqa: F401  (imported before any timing)

    for argv in wl.setup(work, seed):
        runner.run(argv)
    workers = nproc()
    pool_wall = None
    ref = None
    if wl.replicates:
        # the untraced pool run the busy fraction is measured against
        res = [runner.run(argv) for argv in wl.iteration(work, seed, workers)]
        runner.attempted += wl.replicates
        pool_wall = sum(r.wall_s for r in res)
        ref = digests(work, wl.outputs)

    argvs = wl.iteration(work, seed, 1)
    problems: list[str] = []
    outputs: list[dict] = []  # digests after each in-process run

    def one_run(tracer: Tracer | None) -> float:
        runner.attempted += len(argvs) + wl.replicates
        if tracer is not None:
            tracer.install()
        try:
            wall = run_inprocess(argvs, problems)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems.extend(wl.check(work))
        outputs.append(digests(work, wl.outputs))
        return wall

    # warm-up: the reference bytes; its time (cold caches) is not used
    one_run(None)
    base = outputs[0]
    if ref is not None and ref != base:
        problems.append(f"outputs with {workers} workers differ from 1 worker")

    # each traced run right after an untraced one, so that a pair sees the
    # same machine speed; the overhead is the median of the pairs' ratios
    ratios, tracers = [], []
    for _ in range(TRACE_PAIRS):
        untraced_wall = one_run(None)
        tracers.append(Tracer())
        ratios.append(one_run(tracers[-1]) / untraced_wall)
    if any(o != base for o in outputs):
        problems.append("outputs differ between the untraced and traced in-process runs")
    first, *others = (layer_metrics(t, statistics.median(ratios) - 1.0, pool_wall, workers,
                                    _output_bytes(work, wl.outputs)) for t in tracers)
    for other in others:
        for name in COUNTS:
            if first[name] != other[name]:
                problems.append(f"{name} differs between traced runs: "
                                f"{first[name][0]} vs {other[name][0]}")
    tracer = tracers[-1]
    if tracer.missing:
        print("not traced (attribute absent): " + ", ".join(tracer.missing))
    tracer.dump(OUT / f"spans-{wl.name}.json")

    metrics = {**first, **kernel_probes(seed)}
    for p in problems:
        runner.fail(p)
    print(f"workload {wl.name}: traced in-process, {TRACE_PAIRS} untraced/traced pairs, "
          f"{first['trace.overhead_frac'][0]:+.1%} tracing overhead")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    result = runner.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return result, base
