"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples, in exact
    arithmetic so that 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values, min_beyond: int = MIN_BEYOND) -> Tail:
    """The highest ladder percentile that leaves at least ``min_beyond``
    samples ranked above it.

    With too few samples for any rung the maximum is returned as the 100th
    percentile, so a report always carries a value and says how it was taken.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    chosen = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= min_beyond:
            chosen = p
    if chosen is None:
        return Tail(100.0, float(max(values)), n)
    return Tail(chosen, float(percentile(values, chosen)), n)


def median(values) -> float:
    return float(statistics.median(values))
