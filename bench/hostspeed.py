"""The benchmark's speedometer: how fast is the host running right now?"""

from __future__ import annotations

import bisect
import time
from typing import List


class HostSpeed:
    """How fast the host is running right now, from a reference slice of
    pure-Python work interleaved with the measured work.

    On a shared box the same code swings by a quarter from one minute to
    the next and in bursts of milliseconds (CPU time tracks wall: the
    host runs slower, the process is not descheduled), which would drown
    any bound a change is judged by.  So every few milliseconds of the
    timed region one short reference slice runs and is timed on its own.
    A stretch of measured work is then read at *nominal* speed: its wall
    time, slices taken out, divided by the local slowdown - the mean time
    of the :data:`WINDOW` slices nearest to it over
    :data:`NOMINAL_SLICE_S`.  Timing metrics thus read as on a host on
    which the slice always takes its nominal time.
    """

    #: The slice's usual time on the host this benchmark was written on, so
    #: scaled and raw numbers are of one size there.
    NOMINAL_SLICE_S = 90e-6
    #: Timed work between two slices (about 3 % of the region is slices).
    PERIOD_S = 0.003
    #: Slices averaged into one local slowdown.
    WINDOW = 16

    def __init__(self) -> None:
        self._ends: List[float] = []
        #: Running total of slice seconds; ``_sums[i]`` covers slices ``< i``.
        self._sums: List[float] = [0.0]
        self._due = 0.0

    def tick(self) -> None:
        """Run a slice if one is due (called at every event and decision)."""
        if time.perf_counter() >= self._due:
            self.slice()

    def slice(self) -> None:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(300):
            key = str(i)
            table[key] = i * 7 % 13
            acc += table[key]
        sorted(table, key=table.get)
        end = time.perf_counter()
        self._ends.append(end)
        self._sums.append(self._sums[-1] + end - start)
        self._due = end + self.PERIOD_S

    def burst(self, n: int = WINDOW) -> None:
        for _ in range(n):
            self.slice()

    @property
    def slowdown(self) -> float:
        """Mean slowdown over every slice (1.0 before the first)."""
        slices = len(self._ends)
        return self._sums[-1] / slices / self.NOMINAL_SLICE_S if slices else 1.0

    def slowdown_at(self, t: float) -> float:
        """Slowdown around time ``t``, from the nearest slices."""
        slices = len(self._ends)
        if not slices:
            return 1.0
        hi = min(slices, max(0, bisect.bisect_left(self._ends, t) - self.WINDOW // 2) + self.WINDOW)
        lo = max(0, hi - self.WINDOW)
        return (self._sums[hi] - self._sums[lo]) / (hi - lo) / self.NOMINAL_SLICE_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds of measured work between two clock readings, at
        nominal host speed, slices excluded."""
        total = 0.0
        cursor = start
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_right(self._ends, end)
        for j in range(lo, hi):
            slice_start = self._ends[j] - (self._sums[j + 1] - self._sums[j])
            if slice_start > cursor:
                total += (slice_start - cursor) / self.slowdown_at(slice_start)
            cursor = self._ends[j]
        if end > cursor:
            total += (end - cursor) / self.slowdown_at(end)
        return total
