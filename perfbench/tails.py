"""Order statistics for timings: the median and the supported tail.

The tail of a sample is reported at the highest percentile that still has
at least :data:`MIN_BEYOND` samples above it, so a short run never reports
a "p99" that is really its single worst sample.  Percentiles use the
nearest-rank rule with integer arithmetic, so ``n * p`` never rounds up by
a floating-point hair and costs a sample.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Percentiles the tail may be reported at, highest first.
CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to count as supported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the percentile it was taken at and its support."""

    value: float
    percentile: float
    beyond: int
    samples: int

    def describe(self, unit: str) -> str:
        return (
            f"p{self.percentile:g}={self.value:.4g} {unit} "
            f"(n={self.samples}, {self.beyond} beyond)"
        )


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank of ``percentile`` in ``n`` sorted samples."""
    tenths = round(percentile * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Tail:
    """The highest supported percentile; the maximum when none is supported."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    for pct in CANDIDATES:
        rank = _rank(pct, n)
        if n - rank >= MIN_BEYOND:
            return Tail(ordered[rank - 1], pct, n - rank, n)
    return Tail(ordered[-1], 100.0, 0, n)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
