"""Machine-speed reference for the timed pass.

The shared hosts this benchmark runs on change their CPU speed by up to
~1.6x, in stretches of seconds to minutes, so raw verdict times of the
same code spread wider than any useful bound.  The timed pass therefore
interleaves short probes of a fixed numpy kernel with the verdicts and
scales each verdict's wall time by REFERENCE_S over the median probe time
around it.  The reported times are seconds at the speed where one probe
takes REFERENCE_S: a change to the program moves them one for one, a
change of machine speed mostly does not.  The kernel is the benchmark's
own code and never calls the program.

The kernel is a batched power-table product on arrays of 600 x 20 floats,
the shape of work the program does at quadrature nodes.  Of the kernels
tried (pure-Python dict and float loops, numpy on 8-point arrays, numpy
on 600- and 6000-point arrays, np.sin on 4000 floats), its time tracked
verdict times most closely on every workload: correlation 0.9 to 0.98
over cycles on three workloads, 0.6 on check-split, where the spread
is smaller to start with.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.85e-3  # nominal probe time; normalised times are at this speed
PROBE_EVERY_S = 0.025  # at most one probe per this much wall time (~3% overhead)
WINDOW_S = 1.0  # probes this close to a verdict set its speed
SETUP_PROBES = 9  # probes on each side of a set-up measured in a subprocess

_POINTS = np.linspace(0.0, 1.0, 600 * 3).reshape(600, 3)
_COLUMNS = np.array([0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1])
_ONES = np.ones(20)


def _kernel() -> None:
    for _ in range(6):
        mono = np.ones((600, 20))
        for v in range(3):
            powers = np.empty((600, 4))
            powers[:, 0] = 1.0
            for e in range(1, 4):
                powers[:, e] = powers[:, e - 1] * _POINTS[:, v]
            mono *= powers[:, _COLUMNS]
        mono @ _ONES


class SpeedLog:
    """Probe times, each stamped with the midpoint of its probe."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.at.append(0.5 * (start + end))
        self.took.append(end - start)
        self._last = end

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of [start, end].

        The timed pass probes at most PROBE_EVERY_S before each verdict,
        so that window is never empty."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def scale(self, starts: list[float], times: list[float]) -> list[float]:
        return [t * self.factor(s, s + t) for s, t in zip(starts, times)]


def timed_scaled(fn) -> tuple[float, float]:
    """Run `fn()`, which returns a duration, between SETUP_PROBES probes on
    each side; return the duration raw and scaled to the reference speed."""
    log = SpeedLog()
    for _ in range(SETUP_PROBES):
        log.probe()
    raw = fn()
    for _ in range(SETUP_PROBES):
        log.probe()
    return raw, raw * REFERENCE_S / statistics.median(log.took)
