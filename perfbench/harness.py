"""Closed-loop timed and traced passes over a workload's verdicts."""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
from speed import SpeedLog
from workloads import Outcome, Verdict

MIN_VERDICTS = 100  # so that >= 10 samples lie beyond the 90th percentile
RECHECKS = 3  # verdicts of the first cycle run before the timed phase and re-run after it


class Tally:
    """Verdict times and outcomes of one pass."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.errors: Counter = Counter()  # (label, detail, known defect) -> count
        self.outputs: list[str] = []

    def run(self, item: Verdict, keep_output: bool = False) -> Outcome:
        start = perf_counter()
        try:
            outcome = item.run()
        except Exception as exc:  # a traceback from the program is an error verdict
            outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}", f"raised {type(exc).__name__}")
        self.starts.append(start)
        self.times.append(perf_counter() - start)
        if not outcome.ok:
            self.errors[(item.label, outcome.detail, item.known_defect)] += 1
        if keep_output:
            self.outputs.append(outcome.output)
        return outcome

    def error(self, label: str, detail: str) -> None:
        self.errors[(label, detail, False)] += 1

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    @property
    def unexpected(self) -> int:
        """Errors other than the documented seed defects."""
        return sum(n for (_, _, known), n in self.errors.items() if not known)


def _ordered(cycle: list[Verdict], rng) -> list[Verdict]:
    return [cycle[i] for i in rng.permutation(len(cycle))]


def timed_run(pool: list[list[Verdict]], seconds: float, rng) -> tuple[Tally, list[float], SpeedLog]:
    """Whole cycles, each started only if it is expected to end within
    `seconds` (and until MIN_VERDICTS are reached), with speed probes
    between verdicts.  The first RECHECKS verdicts of the first cycle run
    once untimed before, as warm-up, and must give the same output when
    re-run after.

    Returns the tally, the wall time of each cycle and the speed probes."""
    sample = pool[0][:RECHECKS]
    first = [Tally().run(item).output for item in sample]
    tally, speed = Tally(), SpeedLog()
    for _ in range(3):
        speed.probe()
    cycle_walls: list[float] = []
    start = perf_counter()
    while not cycle_walls or len(tally.times) < MIN_VERDICTS or \
            perf_counter() - start + statistics.mean(cycle_walls) <= seconds:
        cycle_start = perf_counter()
        for item in _ordered(pool[len(cycle_walls) % len(pool)], rng):
            speed.maybe_probe()
            tally.run(item)
        cycle_walls.append(perf_counter() - cycle_start)
    speed.probe()
    for item, output in zip(sample, first):
        if Tally().run(item).output != output:
            tally.error(item.label, "re-run output differs from the first run")
    return tally, cycle_walls, speed


class TracedResult:
    def __init__(self, tally, tracer, p50_untraced, p50_traced):
        self.tally = tally
        self.tracer = tracer
        self.p50_untraced = p50_untraced
        self.p50_traced = p50_traced
        self.values, self.absent = tracing.layer_metrics(tracer, p50_traced / p50_untraced)
        self.shares = tracing.layer_shares(tracer)


def traced_run(items: list[Verdict]) -> TracedResult:
    """Run every item untraced and traced, back to back and in alternating
    order, so that both timings of a verdict see the same machine speed.
    The traced outputs must equal the untraced ones bit for bit."""
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()

    def run_traced(item):
        tracer.install()
        try:
            idx = tracer.open("bench.verdict")
            traced.run(item, keep_output=True)
            tracer.close(idx)
        finally:
            tracer.uninstall()

    for i, item in enumerate(items):
        if i % 2:
            run_traced(item)
            plain.run(item, keep_output=True)
        else:
            plain.run(item, keep_output=True)
            run_traced(item)
    for item, a, b in zip(items, plain.outputs, traced.outputs):
        if a != b:
            traced.error(item.label, "traced output differs from the untraced one")
    return TracedResult(traced, tracer, statistics.median(plain.times), statistics.median(traced.times))


def trace_items(pool: list[list[Verdict]], cycles: int, rng) -> list[Verdict]:
    return [item for c in range(cycles) for item in _ordered(pool[c % len(pool)], rng)]


def write_trace(result: TracedResult, path: Path, header: dict) -> None:
    result.tracer.write(path, dict(
        header, verdicts=len(result.tally.times), layer_shares=result.shares,
        p50_untraced_ms=1e3 * result.p50_untraced, p50_traced_ms=1e3 * result.p50_traced,
        metrics=result.values, absent_metrics=result.absent,
    ))
