"""Shared pieces of the benchmark: the subprocess runner, output digests
and the child environment."""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # work directories and span dumps

# Every child runs with one BLAS thread: two pool workers on two cores
# must not each start a BLAS thread pool of their own.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class CmdResult:
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Runs relsys commands one at a time and counts operations and failures."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.problems: list[str] = []
        self._log = work / "commands.log"

    def run(self, argv: list[str]) -> CmdResult:
        """Run ``python -m relsys.cli argv``; time it and read its rusage.

        CPU time and peak RSS come from ``wait4``, which covers the command
        and the pool workers it waited for; peak RSS is that of its largest
        process.  A command still running at the deadline is killed with
        its whole process group.
        """
        self.attempted += 1
        limit = max(1.0, self.deadline - time.monotonic())
        with open(self._log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "relsys.cli", *argv],
                env=self.env, cwd=self.work, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = self._log.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(f"relsys {argv[0]} exited {code}: {' '.join(tail)}")
        return CmdResult(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        failed = min(len(self.problems), self.attempted)
        return {"correct": failed == 0, "attempted": self.attempted,
                "failed": failed, "metrics": metrics}


def digests(work: Path, dirs) -> dict[str, str]:
    """SHA-256 of every output file except manifests, keyed dir/name."""
    out = {}
    for d in dirs:
        for path in sorted((work / d).glob("*")):
            if path.is_file() and path.name != "manifest.json":
                out[f"{d}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
