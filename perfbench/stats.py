"""The benchmark's own statistics.

Pure functions over lists of numbers and time intervals, kept apart
from anything that starts processes or opens sockets so that
``perfbench/tests`` can pin them exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer make the "tail" one or two unlucky requests.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.  The reported tail is the
#: highest one the sample count supports.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)

Interval = Tuple[float, float]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def rank_index(n: int, pct: float) -> int:
    """Nearest-rank index of the *pct* percentile among *n* sorted values."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: an actual sample, never interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[rank_index(len(ordered), pct)])


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, samples beyond it)`` for the highest
    candidate percentile with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it, or None when even the lowest candidate has fewer."""
    n = len(values)
    best = None
    for pct in TAIL_PERCENTILES:
        beyond = n - 1 - rank_index(n, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, percentile(values, pct), beyond)
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, computed the
    way the acceptance check does (``statistics.quantiles(n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint union of *intervals* (empty ones dropped)."""
    merged: List[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered_length(intervals: Iterable[Interval]) -> float:
    return sum(end - start for start, end in merge_intervals(intervals))


def unattributed(
    windows: Iterable[Interval], layer_calls: Iterable[Interval]
) -> float:
    """Time inside the operation *windows* that no layer call covers.

    Layer calls are clipped to the windows before their union is
    measured, so the result lies between 0 and the windows' total
    length whatever the inputs: a call that overlaps another, starts
    early or ends late is never counted twice or outside the window.
    """
    merged = merge_intervals(windows)
    clipped: List[Interval] = []
    for call_start, call_end in layer_calls:
        for start, end in merged:
            lo, hi = max(start, call_start), min(end, call_end)
            if hi > lo:
                clipped.append((lo, hi))
    gap = covered_length(merged) - covered_length(clipped)
    return max(0.0, gap)
