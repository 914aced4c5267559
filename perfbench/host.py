"""Host speed reference, sampled between timed calls.

On a shared virtual machine the same process can run 40% faster or slower
from one minute to the next while nothing in it changes.  The benchmark
therefore times a fixed reference kernel every SAMPLE_EVERY_NS and reports
each timing at reference speed, ``raw * REFERENCE_NS / kernel``, with
``kernel`` the median of the samples taken just before and just after it; the
median because a sample now and then stalls for milliseconds.  The raw values
stay in the run's detail record.

The kernel is a shortest-path search over small tuples, dicts and a heap, the
interpreted work that dominates the program.  Over one-second windows its
time tracked the planners' and the oracle's with a correlation of 0.985, their
ratio varying by 3.8% while each varied by 20%.  Between two batches of
training runs twenty minutes apart it moved with the training throughput to
within 1%.  A numpy kernel at the training network's sizes was tried for
training and dropped: its own time moved by 35% between those batches while
training's did not.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time


# Kernel time that defines reference speed; it fixes only the scale of the
# reported timings and is close to the kernel's time on the 2-vCPU host that
# defined the benchmark.
REFERENCE_NS = 1_000_000
SAMPLE_EVERY_NS = 50_000_000
NEIGHBOURS = 3  # samples used on each side of a timed interval
_SIDE = 18


def kernel() -> int:
    """Dijkstra over a fixed grid with deterministic weights; returns the
    distance to the far corner so the work cannot be skipped."""
    best = {(0, 0): 0}
    frontier = [(0, (0, 0))]
    while frontier:
        d, (x, y) = heapq.heappop(frontier)
        if d > best[(x, y)]:
            continue
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < _SIDE and 0 <= ny < _SIDE:
                nd = d + 1 + (nx * 7 + ny * 13) % 5
                if nd < best.get((nx, ny), nd + 1):
                    best[(nx, ny)] = nd
                    heapq.heappush(frontier, (nd, (nx, ny)))
    return best[(_SIDE - 1, _SIDE - 1)]


class HostSpeed:
    def __init__(self) -> None:
        self.starts: list[int] = []
        self.kernel_ns: list[int] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless a sample is younger than SAMPLE_EVERY_NS."""
        t0 = time.perf_counter_ns()
        if force or not self.starts or t0 - self.starts[-1] >= SAMPLE_EVERY_NS:
            kernel()
            self.starts.append(t0)
            self.kernel_ns.append(time.perf_counter_ns() - t0)

    def factor(self, start: int, end: int) -> float:
        """Multiply a time measured over [start, end] by this to express it at
        reference speed."""
        before = bisect.bisect_left(self.starts, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.kernel_ns[max(0, before - NEIGHBOURS):before] + self.kernel_ns[after:after + NEIGHBOURS]
        if not near:
            raise ValueError("no host speed sample near the interval")
        return REFERENCE_NS / statistics.median(near)

    def norm(self, timed) -> float:
        """A Timed value at reference speed."""
        return timed.value * self.factor(timed.start, timed.end)
