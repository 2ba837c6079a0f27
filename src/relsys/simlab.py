"""Simulation scenarios for bias and mean-squared-error studies.

A scenario draws lifetimes from a known generator, censors a fixed
fraction of them at an empirical threshold (type-I style: the threshold
is an order statistic of the drawn sample, so the censored count is exact
rather than binomial), fits the component model, and records the
posterior-mean lifetime against the generator's true mean.

Substreams are keyed by the scenario coordinates except the censoring
side, and by the replicate index.  Two consequences are deliberate: a
zero-censoring scenario produces byte-identical results whichever side it
nominally uses, and rerunning with fewer replicates reproduces a prefix
of the longer run.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .curves import mean_time_posterior
from .dists import _FAMILIES, GeneratorSpec, sample
from .errors import NumericalError, RelsysError
from .mcem import fit_component
from .settings import _ABSURD_FACTOR, _KINDS, _SIDES, GRID_REPLICATES, FitConfig
from .streams import RandomStream, as_stream
from .sysmodel import ComponentSample, SystemSample

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "generate_system_sample",
    "generate_censored_sample",
    "run_scenario",
    "run_forked",
    "grid_specs",
    "GRID_MEANS",
    "GRID_CENSOR_FRACTIONS",
    "GRID_SIZES",
    "GRID_VARIANCE",
]

GRID_MEANS = (2.0, 7.0)
GRID_CENSOR_FRACTIONS = (0.0, 0.2, 0.4)
GRID_SIZES = (30, 100, 1000)
GRID_VARIANCE = 5.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a study: generator, sample size, censoring and side.

    ``true_mean`` is the generator's expected lifetime; all three families
    are parametrized directly by their mean, so no integration is needed.
    """

    generator: GeneratorSpec
    n: int
    censor_fraction: float
    side: str
    replicates: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"scenario sample size must be >= 2, got {self.n}")
        if not 0.0 <= self.censor_fraction < 1.0:
            raise ValueError(
                f"censor_fraction must be in [0, 1), got {self.censor_fraction}"
            )
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        c = _censored_count(self.censor_fraction, self.n)
        if c >= self.n:
            raise ValueError(
                f"censoring {self.censor_fraction} of n={self.n} leaves no exact records"
            )

    @property
    def true_mean(self) -> float:
        return self.generator.mean

    @property
    def coords(self) -> dict:
        """The cell's coordinates, keyed as the ``study.csv`` columns."""
        return {
            "side": self.side,
            "family": self.generator.family,
            "censor_pct": self.censor_fraction * 100.0,
            "true_mean": self.true_mean,
            "n": self.n,
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Replicate estimates of the mean lifetime and their error summary.

    ``failures`` holds one ``(replicate index, error message)`` pair per
    replicate whose draw or fit raised, in replicate order.
    ``not_converged`` lists, in order, the replicates whose fit stopped at
    the iteration cap; their estimates are kept.  ``absurd`` holds one ``(replicate
    index, estimate)`` pair per kept estimate that is non-finite or more
    than 1e3 times above or below the true mean.  ``chains`` and
    ``iterations`` total the fitted replicates' Metropolis chains and EM
    iterations, and ``min_weight_ess`` is the smallest of their
    ``min_weight_ess`` (NaN when no replicate was fitted).
    """

    spec: ScenarioSpec
    estimates: tuple[float, ...]
    bias: float
    mse: float
    failures: tuple[tuple[int, str], ...]
    not_converged: tuple[int, ...]
    absurd: tuple[tuple[int, float], ...]
    chains: int
    iterations: int
    min_weight_ess: float

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _censored_count(fraction: float, n: int) -> int:
    # round half away from zero; fraction and n are non-negative here
    return int(math.floor(fraction * n + 0.5))


def generate_system_sample(
    generators: Sequence[GeneratorSpec],
    kind: str,
    n: int,
    rng: np.random.Generator,
) -> SystemSample:
    """Draw ``n`` masked system failures from per-component generators.

    Component lifetimes are drawn component by component from ``rng``; the
    observed time is the minimum (series) or maximum (parallel) and the
    cause is the achieving component.  Simultaneous failures have
    probability zero under continuous generators and are not arbitrated
    beyond first index.  A :class:`NumericalError` that a component's draw
    raises is raised again with the component's number, from 1, in front.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not generators:
        raise ValueError("at least one component generator is required")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    columns = []
    for j, g in enumerate(generators, start=1):
        try:
            columns.append(sample(g, n, rng))
        except NumericalError as e:
            raise type(e)(f"component {j}: {e}") from None
    lifetimes = np.column_stack(columns)
    pick = np.argmin if kind == "series" else np.argmax
    idx = pick(lifetimes, axis=1)
    return SystemSample(kind, len(generators), lifetimes[np.arange(n), idx], idx + 1)


def generate_censored_sample(
    g: GeneratorSpec,
    n: int,
    fraction: float,
    side: str,
    rng: np.random.Generator,
) -> ComponentSample:
    """Draw ``n`` lifetimes and censor an exact count at an order statistic.

    With ``c`` the rounded censored count, right censoring replaces the
    ``c`` largest values with the ``(n-c)``-th order statistic; left
    censoring replaces the ``c`` smallest with the ``(c+1)``-th.  The
    threshold itself stays exact, and ties are broken by draw order.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"censor fraction must be in [0, 1), got {fraction}")
    c = _censored_count(fraction, n)
    if c >= n:
        raise ValueError(f"censoring {fraction} of n={n} leaves no exact records")
    x = sample(g, n, rng)
    censored = np.zeros(n, dtype=bool)
    threshold = 0.0
    if c > 0:
        order = np.argsort(x, kind="stable")
        if side == "right":
            threshold = float(x[order[n - c - 1]])
            censored[order[n - c :]] = True
        else:
            threshold = float(x[order[c]])
            censored[order[:c]] = True
    return ComponentSample(side, np.where(censored, threshold, x), censored)


def _scenario_key(spec: ScenarioSpec) -> tuple[int, ...]:
    # the side is deliberately absent: zero-censoring cells must replay
    # identical substreams on both sides
    return (
        _FAMILIES.index(spec.generator.family),
        round(spec.generator.mean * 1000),
        round(spec.generator.variance * 1000),
        round(spec.censor_fraction * 1000),
        spec.n,
    )


def _shared_fit(spec: ScenarioSpec) -> ScenarioSpec:
    """The cell whose result ``spec`` shares.

    A cell that censors no record draws the same data on either side (its
    substreams leave the side out) and fits it the same way, so its result
    is that of the first side's cell; any other cell is its own.  The test
    is the censored count, not the fraction: 0.01 of n=30 censors nothing
    either.
    """
    if _censored_count(spec.censor_fraction, spec.n) == 0:
        return replace(spec, side=_SIDES[0])
    return spec


def run_scenario(
    spec: ScenarioSpec, cfg: FitConfig, source: RandomStream | int
) -> ScenarioResult:
    """Replicate one scenario cell and summarize bias and MSE.

    Each replicate draws data and fits on its own substream; replicates
    whose draw or fit raises a :class:`RelsysError` are skipped, and the
    error's message is kept in ``failures``.
    """
    base = as_stream(source).child(*_scenario_key(spec))
    estimates = []
    failures = []
    not_converged = []
    absurd = []
    chains = iterations = 0
    weight_ess = []
    lo, hi = spec.true_mean / _ABSURD_FACTOR, spec.true_mean * _ABSURD_FACTOR
    for r in range(spec.replicates):
        rep = base.child(r)
        try:
            data = generate_censored_sample(
                spec.generator,
                spec.n,
                spec.censor_fraction,
                spec.side,
                rep.child(0).generator(),
            )
            fit = fit_component(data, cfg, rep.child(1))
        except RelsysError as e:
            failures.append((r, str(e)))
            continue
        if not fit.converged:
            not_converged.append(r)
        chains += fit.chains
        iterations += len(fit.em_trace) - 1
        weight_ess.append(fit.min_weight_ess)
        est = mean_time_posterior(fit.draws)[0]
        if not lo <= est <= hi:
            absurd.append((r, est))
        estimates.append(est)
    if estimates:
        err = np.asarray(estimates) - spec.true_mean
        bias = float(err.mean())
        mse = float((err**2).mean())
    else:
        bias = math.nan
        mse = math.nan
    return ScenarioResult(
        spec=spec,
        estimates=tuple(estimates),
        bias=bias,
        mse=mse,
        failures=tuple(failures),
        not_converged=tuple(not_converged),
        absurd=tuple(absurd),
        chains=chains,
        iterations=iterations,
        min_weight_ess=min(weight_ess, default=math.nan),
    )


# POSIX's least PIPE_BUF: a write of at most this many bytes reaches a pipe whole
_PIPE_ATOMIC = 512


def run_forked(
    runner: Callable[[ScenarioSpec], ScenarioResult],
    specs: Sequence[ScenarioSpec],
    workers: int,
) -> list[ScenarioResult]:
    """``[runner(s) for s in specs]``, run by ``workers`` forked processes.

    Each worker takes the next spec, in the given order, when it is free: it
    reads the spec's index from a task pipe that all the workers share.  A
    worker inherits this process's imports and ``runner``, sends its results
    pickled through a pipe of its own once the tasks run out and leaves by
    ``os._exit``: it runs no exit handler and flushes no inherited buffer.
    A worker keeps SIGINT blocked, so an interrupt is this process's alone.
    An exception a cell raises in a worker is raised again here, from a
    :class:`RuntimeError` that holds the worker's traceback; a worker that
    dies before it sends its results raises :class:`RuntimeError`, naming its
    exit status or signal.  On any error, ``KeyboardInterrupt`` included, the
    workers still running are killed, and every worker is reaped before this
    returns or raises.  With one worker the specs run in this process.
    """
    if workers <= 1:
        return [runner(s) for s in specs]
    results: list = [None] * len(specs)
    readers = {}  # worker pid -> the read end of its results pipe, until the worker is reaped
    r, w = os.pipe()
    tasks, feed = open(r, "rb", buffering=0), open(w, "wb", buffering=0)
    try:
        for _ in range(workers):
            r, w = os.pipe()
            reader = open(r, "rb", buffering=0)
            try:
                with _sigint_held():  # no interrupt between the fork and its record
                    pid = os.fork()
                    if pid == 0:
                        _serve(runner, specs, tasks, feed, w)
                    readers[pid] = reader
            finally:
                # the parent's copy, closed before the next fork so that the
                # pipe's one writer is its worker; a worker never gets here
                os.close(w)
        # the workers' alone now: should they all die, writing fails, not blocks
        tasks.close()
        # each spec's index in four bytes, written so that no write splits one
        order = np.arange(len(specs), dtype="<u4").tobytes()
        try:
            for k in range(0, len(order), _PIPE_ATOMIC):
                feed.write(order[k : k + _PIPE_ATOMIC])
        except BrokenPipeError:
            pass  # no worker is left to take them; the results pipes say why
        feed.close()
        for pid, reader in list(readers.items()):
            data = reader.readall()
            with _sigint_held():  # at EOF the worker has closed its pipe and is leaving
                status = os.waitpid(pid, 0)[1]
                del readers[pid]
                reader.close()
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"a study worker {_death(code)} before it sent its results")
            ok, reply = pickle.loads(data)
            if not ok:
                error, trace = reply
                raise error from RuntimeError(f"in a study worker:\n{trace}")
            for i, result in reply:
                results[i] = result
    finally:
        tasks.close()
        feed.close()
        # only an error leaves workers unreaped; an interrupt waits until they are
        with _sigint_held():
            for pid, reader in readers.items():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


@contextmanager
def _sigint_held():
    """Block SIGINT for the body: an interrupt that comes meanwhile is raised
    as the body ends, never between two of its steps.  A process forked in
    the body keeps SIGINT blocked."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _serve(runner, specs, tasks, feed, fd: int) -> None:
    """A forked worker's whole life: run ``specs[i]`` for each index ``i``
    it reads from ``tasks`` until they run out, write ``(True, [(i, result),
    ...])`` or ``(False, (exception, its traceback's text))`` to ``fd`` and
    leave the process; it never returns."""
    code = 1
    try:
        feed.close()  # or the tasks would never run out
        try:
            done = []
            while index := tasks.read(4):
                i = int.from_bytes(index, "little")
                done.append((i, runner(specs[i])))
            reply = True, done
        except Exception as e:
            import traceback

            reply = False, (e, traceback.format_exc())
        with open(fd, "wb") as pipe:
            pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _death(code: int) -> str:
    """How a worker ended, from its ``os.waitstatus_to_exitcode`` value."""
    if code > 0:
        return f"exited with status {code}"
    try:
        return f"was killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"was killed by signal {-code}"


def grid_specs(
    families: Sequence[str] = _FAMILIES,
    means: Sequence[float] = GRID_MEANS,
    censor_fractions: Sequence[float] = GRID_CENSOR_FRACTIONS,
    sizes: Sequence[int] = GRID_SIZES,
    sides: Sequence[str] = _SIDES,
    variance: float = GRID_VARIANCE,
    replicates: int = GRID_REPLICATES,
) -> tuple[ScenarioSpec, ...]:
    """Enumerate the scenario cross product in canonical order.

    Cells are ordered by side, family (in ``dists._FAMILIES`` order), censor
    fraction, mean and sample size.
    """
    specs = []
    for side in sides:
        for family in families:
            for fraction in censor_fractions:
                for mean in means:
                    for n in sizes:
                        specs.append(
                            ScenarioSpec(
                                generator=GeneratorSpec(family, mean, variance),
                                n=n,
                                censor_fraction=fraction,
                                side=side,
                                replicates=replicates,
                            )
                        )
    return tuple(specs)
