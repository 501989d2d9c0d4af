"""Order statistics the benchmark reports (pure functions, no I/O)."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: a tail percentile is reported only with at least this many samples
#: beyond it, so it never rests on a handful of outliers
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with at least ``TAIL_SAMPLES``
    samples strictly beyond it among ``count`` samples, or ``None``
    when there are too few samples for any (``count`` <= 10).

    With ``count`` samples, percentile ``p`` leaves
    ``count * (100 - p) / 100`` samples above it; 100 samples give p90,
    1000 give p99.
    """
    if count <= TAIL_SAMPLES:
        return None
    return min(99, math.floor(100 * (count - TAIL_SAMPLES) / count))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(p, value)`` for the tail percentile of ``values``, if there
    is one above the median (at least 20 samples)."""
    pct = tail_percentile(len(values))
    if pct is None or pct <= 50:
        return None
    return pct, percentile(values, pct)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
