"""The host's pace, measured on a fixed reference workload.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by tens of percent over seconds to minutes, with the load of
its neighbours.  A cold run measured in a slow minute reads slower
although the program did not change.  So ``run.py`` times this fixed
reference work right before and right after every run, in the parent
process, and scales the run's times by ``REFERENCE_S / pace``: each
timing metric reads as it would on a host that does the reference work
in :data:`REFERENCE_S` seconds.  The raw, unscaled timings are printed
beside them and kept in the run records.

The reference mixes the two kinds of work the program does: object-
and dict-heavy interpreted Python (the controllers, the scalar engine,
the scheduler) and NumPy ufuncs over 1k- and 10k-wide arrays (the mega
engine's ticks), in about equal time.  It never changes with the
program, so a change to the program moves the scaled metrics by its
full amount.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference-work time the scaled metrics are expressed at; about the
#: median of :func:`pace_s` on an idle 2-vCPU Xeon VM.
REFERENCE_S = 0.045
#: Timed repetitions per measurement; the median is the pace.
REPS = 5


class _Leaf:
    __slots__ = ("load", "cores", "slack")

    def __init__(self, load: float) -> None:
        self.load, self.cores, self.slack = load, 4, 0.0

    def step(self, table: dict, tick: int) -> int:
        self.slack = table[tick & 63] - self.load * 0.01
        if self.slack < 0.1:
            self.cores = max(1, self.cores - 1)
        elif self.slack > 0.3:
            self.cores = min(16, self.cores + 1)
        return self.cores


def _python_work() -> int:
    table = {i: 0.05 * (i % 11) for i in range(64)}
    leaves = [_Leaf(float(i % 97)) for i in range(200)]
    total = 0
    for tick in range(480):
        for leaf in leaves:
            total += leaf.step(table, tick)
    return total


_RNG = np.random.default_rng(0)
_NARROW = _RNG.random(1000)
_WIDE = _RNG.random(10000)


def _numpy_work() -> float:
    x, y = _NARROW.copy(), _WIDE.copy()
    for _ in range(375):
        x = np.minimum(np.sqrt(x * 1.0001 + 0.5), 2.0)
        y = np.where(y > 0.5, y * 0.99, y + 0.01)
        x[x > 1.9] -= x.mean() * 1e-3
    return float(x.sum() + y.sum())


def reference_work() -> None:
    """One repetition of the reference work (~45 ms on an idle host)."""
    _python_work()
    _numpy_work()


def pace_s() -> float:
    """Median seconds of :data:`REPS` reference repetitions.

    One untimed repetition first wakes a vCPU that idled while the
    run's interpreter worked.
    """
    reference_work()
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
