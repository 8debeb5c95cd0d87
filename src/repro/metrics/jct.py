"""App completion time statistics and CDFs (Figure 6).

The paper reports average app completion times ("THEMIS is ~4.6%,
~55.5%, and ~24.4% better than Gandiva, SLAQ, and Tiresias respectively
on average app completion time") and plots the full CDF.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.topology import ordered_sum


def cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points ``(x, P[X <= x])`` in ascending x order."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(x, (i + 1) / n) for i, x in enumerate(ordered)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile needs at least one value")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    # a + (b - a) * w is exact at w = 0 and never overshoots b, unlike
    # the a*(1-w) + b*w form which can exceed max(values) by one ulp.
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def average_jct(completion_times: Sequence[float]) -> float:
    """Mean app completion time."""
    if not completion_times:
        raise ValueError("average_jct needs at least one completion time")
    return ordered_sum(completion_times) / len(completion_times)


def jct_summary(completion_times: Sequence[float]) -> dict[str, float]:
    """Mean / median / p95 / max of app completion times."""
    return {
        "mean": average_jct(completion_times),
        "median": percentile(completion_times, 50.0),
        "p95": percentile(completion_times, 95.0),
        "max": max(completion_times),
    }
