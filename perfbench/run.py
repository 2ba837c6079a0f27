"""Benchmark of the relsys command line, end to end and layer by layer.

    python3 perfbench/run.py --workload fit-series --seed 1 --seconds 20 --trace 0

Run from a source checkout: relsys is imported from ``src/`` next to this
directory, nothing is installed.  With ``--trace 0`` the workload's
commands run as subprocesses in a closed loop with one client for
``--seconds`` seconds and the end-to-end metrics are reported; with
``--trace 1`` the workload runs in-process with wrappers around each
module's public functions and the per-layer metrics are reported (see
``tracing.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import OUT, SRC, THREAD_PINS, Runner, digests, nproc  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_ITERATIONS = 3
SETUP_PER_ITERATION = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def metadata(wl: Workload, seed: int, seconds: int, trace: int, out_digests: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(), "study_workers": nproc(), "blas_threads": 1,
        "load": "closed loop, 1 client",
        "output_sha256": out_digests,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def estimate(values: list[float]) -> float:
    """Timing estimate of one command over a run: its median.

    On a shared machine one core's speed switches, every few seconds,
    between levels up to 1.5x apart, and the share of time at each level
    drifts over minutes.  Which quartile of a command's times is steadiest
    follows that drift: over 30 s windows of a continuous loop on a 2-vCPU
    VM, the lower quartile spread 5-7% in one half hour and 24-27% in the
    next, the upper quartile 20-21% and then 13-21%.  The median stayed in
    between, at 10-21%, with the smallest worst case.
    """
    return statistics.median(values)


def untraced(wl: Workload, work: Path, seed: int, seconds: int) -> tuple[dict, dict]:
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    for argv in wl.setup(work, seed):
        runner.run(argv)
    runner.run(["--help"])  # warm the page cache and the bytecode cache
    workers = nproc()
    setup: list[float] = []
    iterations: list[list] = []  # the results of each iteration's commands
    first: dict | None = None
    stop = time.monotonic() + seconds
    while True:
        # set-up time (interpreter, import relsys, parser) is sampled in every
        # iteration, so its samples spread over the run like the others
        setup += [runner.run(["--help"]).wall_s for _ in range(SETUP_PER_ITERATION)]
        iterations.append([runner.run(argv) for argv in wl.iteration(work, seed, workers)])
        runner.attempted += wl.replicates
        for problem in wl.check(work):
            runner.fail(problem)
        got = digests(work, wl.outputs)
        if first is None:
            first = got
        elif got != first:
            runner.fail("output bytes differ between iterations of the same commands")
        if len(iterations) >= MIN_ITERATIONS and time.monotonic() >= stop:
            break
        if time.monotonic() > runner.deadline:
            runner.fail(f"only {len(iterations)} iterations before the run limit")
            break

    def per_iteration(key: str) -> tuple[float, list[float]]:
        """The sum of each command's estimate, and the iterations' totals."""
        by_command = zip(*([getattr(r, key) for r in it] for it in iterations))
        return (sum(estimate(list(xs)) for xs in by_command),
                [sum(getattr(r, key) for r in it) for it in iterations])

    wall, walls = per_iteration("wall_s")
    cpu, cpus = per_iteration("cpu_s")
    rsss = [max(r.rss_mb for r in it) for it in iterations]
    table = [
        ("wall_s", wall, "s", walls),
        ("cpu_s", cpu, "s", cpus),
        ("peak_rss_mb", statistics.median(rsss), "MB", rsss),
        ("setup_s", estimate(setup), "s", setup),
    ]
    print(f"workload {wl.name}: {len(iterations)} iterations, closed loop with 1 client, "
          f"study workers {workers}, BLAS threads 1")
    for name, value, unit, samples in table:
        q1, q2, q3 = quartiles(samples)
        print(f"  {name:<12} {value:12.6g} {unit:<5} of {len(samples)} samples: "
              f"min {min(samples):.6g}, quartiles {q1:.6g} | {q2:.6g} | {q3:.6g}")
    if wl.replicates:
        # printed, not in the result: a constant divided by wall_s
        print(f"  {'fits_per_s':<12} {wl.replicates / wall:12.6g} {'1/s':<5} "
              f"{wl.replicates} replicate fits per iteration")
    err = min(len(runner.problems), runner.attempted) / runner.attempted
    print(f"  {'error_rate':<12} {err:12.6g} {'ratio':<5} "
          f"{len(runner.problems)} failed of {runner.attempted} operations")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in table}
    return runner.result(metrics), first


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "relsys" / "cli.py").is_file():
        print(f"perfbench: no relsys source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy loads in this process

    wl = WORKLOADS[args.workload]
    work = OUT / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from tracing import traced

            result, out_digests = traced(wl, work, args.seed, Runner(work, time.monotonic() + RUN_LIMIT_S))
        else:
            result, out_digests = untraced(wl, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("meta " + json.dumps(metadata(wl, args.seed, args.seconds, args.trace, out_digests),
                               sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
