"""Host time at a reference host speed.

The benchmark shares its machine with other work, and the speed of the
host drifts by tens of percent over seconds to minutes. The runner
therefore times a fixed pure-Python loop before the first case and
after every case, and scales each case's host times by the reference
loop time over the mean of the loop times just before and just after
the case.

The loop cannot be moved by the program it calibrates. It only uses
objects made once at import, a few hundred bytes that stay in the
first-level cache, and it allocates nothing that the garbage collector
tracks, so neither the program's heap and cache footprint nor its
collector state can change the loop's time. It is also timed only
between cases, after the case's deployment has been dropped and
collected.
"""

from __future__ import annotations

import heapq
import statistics
import time

# The loop's time on the reference host (2-core VM).
REFERENCE_S = 0.004
_STEPS = 4000
# Loop runs per calibration; their median damps one run's jitter.
_SAMPLES = 3


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total


_CELLS = [_Cell() for _ in range(64)]
_HEAP: list[int] = []
_COUNTS: dict[int, int] = {}


def loop_seconds() -> float:
    """Host seconds the calibration loop takes now: calls, a heap, a dict."""
    heap, counts, cells = _HEAP, _COUNTS, _CELLS
    start = time.perf_counter()
    for i in range(_STEPS):
        heapq.heappush(heap, i * 7919 % 1013)
        counts[i & 255] = counts.get(i & 255, 0) + 1
        cells[i & 63].add(i)
    while heap:
        heapq.heappop(heap)
    counts.clear()
    return time.perf_counter() - start


def calibrate() -> float:
    """Median loop time over a few runs of the loop."""
    return statistics.median(loop_seconds() for _ in range(_SAMPLES))


class HostSpeed:
    """Scale factors from host seconds to reference seconds."""

    def __init__(self) -> None:
        self._last = calibrate()

    def now(self) -> float:
        """Reference seconds per host second at this moment."""
        return REFERENCE_S / self._last

    def factor(self) -> float:
        """Reference seconds per host second since the previous call."""
        now = calibrate()
        factor = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return factor
