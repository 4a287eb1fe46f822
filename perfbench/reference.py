"""A fixed pure-Python loop that gauges how fast the machine runs now.

The speed of the shared machine this benchmark was built on drifts by 15%
to 35% over seconds to minutes, whatever runs on it: ten timed runs of one
workload could spread by 30% with nothing changed. Each worker therefore
times this loop in its own process just before and just after the region
it measures, and ``run.py`` reports every time scaled to a machine on
which the loop takes :data:`REFERENCE_S`:

    reported = measured x REFERENCE_S / reference time

The loop uses no ``repro`` code, so no change to the simulator moves it;
it exercises what the simulator spends its time on (object creation,
attribute and dict access, method calls, a binary heap, generator
resumes). The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds one :func:`reference_s` call takes on the machine that scaled
#: times refer to (about its time on the machine the benchmark was built
#: on, so scaled and raw times read alike there).
REFERENCE_S = 0.4


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.link = None

    def add_to(self, table: dict) -> int:
        table[self.key] = table.get(self.key, 0) + self.value
        return self.key


def _counter(n: int):
    for i in range(n):
        yield i


def _loop(n: int) -> None:
    # Small, bounded structures: the loop must not raise the process's
    # peak resident memory, which the benchmark reports.
    heap: list = []
    table: dict = {}
    ticks = _counter(n)
    prev = None
    for i in range(n):
        node = _Node(i & 255, i)
        node.link = prev
        prev = node if i & 7 else None
        node.add_to(table)
        heapq.heappush(heap, [i * 7919 % 100003, i, node])
        if len(heap) > 256:
            heapq.heappop(heap)
        next(ticks)


def reference_s() -> float:
    """Time a fixed amount of work, in seconds. The cyclic garbage
    collector is off meanwhile: the loop makes no cycles, and a
    collection would time the scan of the objects the caller holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        for _ in range(4):
            _loop(60_000)
        return time.monotonic() - start
    finally:
        if enabled:
            gc.enable()
