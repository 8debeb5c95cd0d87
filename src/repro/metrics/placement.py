"""Placement score aggregation (Figure 7).

Each app's score is the time-weighted mean of its jobs' 4-level
placement scores while holding GPUs; Figure 7 plots the CDF of those
scores per scheduler ("A score of 1.0 indicates GPUs are tightly packed
while lower scores imply GPUs that are spread out").
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.topology import ordered_sum
from repro.metrics.jct import cdf, percentile


def placement_cdf(scores: Sequence[float]) -> list[tuple[float, float]]:
    """CDF points over per-app placement scores."""
    return cdf(scores)


def score_summary(scores: Sequence[float]) -> dict[str, float]:
    """Mean / median / p10 of per-app placement scores.

    The p10 (worst decile) is where placement-unaware schedulers
    separate most clearly from packing ones.
    """
    if not scores:
        raise ValueError("score_summary needs at least one score")
    return {
        "mean": ordered_sum(scores) / len(scores),
        "median": percentile(scores, 50.0),
        "p10": percentile(scores, 10.0),
    }
