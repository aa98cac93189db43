"""Host-speed calibration for the end-to-end timings.

The machine the benchmark was tuned on (2 shared cores) runs the same
pure-Python loop up to 1.8 times slower for whole 20-second runs, in CPU time
as much as in wall time, so the host's speed moves raw times more than most
changes to the program would.  The end-to-end run therefore times a fixed
kernel right after every operation and reports each operation in
*reference milliseconds*: its measured time multiplied by
``KERNEL_REF_MS / k``, where ``k`` is the mean of the kernel times just
before and just after it.  A program that gets slower still reads slower;
a host that gets slower reads the same.

The kernel is plain Python over a fixed graph (breadth-first searches with
lists, dicts and sets, then a pass over 3-subsets), the same kind of work
the package does, and it uses nothing from the package, so no change to
the package moves it.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

# The kernel's typical time on the 2-core host it was tuned on, so that a
# reference millisecond is about one millisecond there.
KERNEL_REF_MS = 1.0

_ORDER = 400
_SOURCES = range(0, _ORDER, 80)
_SUBSET_BASE = 16


def _fixed_graph() -> list[list[int]]:
    rng = random.Random(20170524)
    adj: list[set[int]] = [set() for _ in range(_ORDER)]
    for _ in range(3 * _ORDER):
        u, v = rng.randrange(_ORDER), rng.randrange(_ORDER)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


_ADJ = _fixed_graph()


def kernel() -> int:
    reached = 0
    for source in _SOURCES:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            du = dist[u] + 1
            for w in _ADJ[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)
        reached += len(dist)
    degrees = [len(_ADJ[v]) for v in range(_SUBSET_BASE)]
    for trio in combinations(range(_SUBSET_BASE), 3):
        if len({degrees[v] for v in trio}) == 1:
            reached += 1
    return reached


def kernel_ms() -> float:
    """One timed run of the kernel, in milliseconds."""
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6


class Clock:
    """Turns measured times into reference times.

    ``scale(t)`` times the kernel once and scales ``t`` by the mean of that
    kernel time and the one before it; call it right after what ``t`` timed."""

    WARMUP_RUNS = 20

    def __init__(self) -> None:
        for _ in range(self.WARMUP_RUNS):
            kernel_ms()
        self.last_ms = kernel_ms()
        self.kernel_samples: list[float] = []

    def scale(self, measured: float) -> float:
        before, after = self.last_ms, kernel_ms()
        self.last_ms = after
        self.kernel_samples.append(after)
        return measured * KERNEL_REF_MS / ((before + after) / 2)
