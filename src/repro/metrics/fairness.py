"""Fairness metrics: max finish-time fairness and Jain's index.

Section 8.1: "The Max Fairness metric captures the worst finish time
fairness across apps.  Lower values of max fairness indicate a fairer
allocation." and "We use Jain's Fairness to measure the variance of
rho values across apps.  Jain's Fairness close to 1 indicates lower
variance in rho and is better."
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.topology import ordered_sum


def max_fairness(rhos: Sequence[float]) -> float:
    """Worst (largest) finish-time fairness across apps."""
    values = [r for r in rhos if not math.isnan(r)]
    if not values:
        raise ValueError("max_fairness needs at least one rho value")
    return max(values)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``; 1.0 is best.

    Unbounded (``inf``) entries — fully starved apps — drive the index
    to 0, which is the correct limiting behaviour.
    """
    finite = [v for v in values if not math.isinf(v)]
    if len(finite) < len(values):
        return 0.0
    if not finite:
        raise ValueError("jain_index needs at least one value")
    total = ordered_sum(finite)
    squares = ordered_sum(v * v for v in finite)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(finite) * squares)


def distance_from_ideal(rhos: Sequence[float], contention: float) -> float:
    """Fractional distance of the worst rho from the ideal value.

    Section 8.3: with peak contention ``c`` times the cluster capacity
    "an ideal scheduler would be able to achieve a maximum finish-time
    fairness of [c]"; the paper reports Themis ~7% away from ideal and
    prior schemes 68%-2155% away.  Returns ``(max rho - c) / c``;
    negative values mean the scheduler beat the contention bound.
    """
    if contention <= 0:
        raise ValueError(f"contention must be > 0, got {contention}")
    return (max_fairness(rhos) - contention) / contention


def rho_spread(rhos: Sequence[float]) -> tuple[float, float, float]:
    """(min, median, max) of the rho distribution — Figure 4a's bars."""
    values = sorted(r for r in rhos if not math.isinf(r))
    if not values:
        raise ValueError("rho_spread needs at least one finite value")
    mid = len(values) // 2
    if len(values) % 2:
        median = values[mid]
    else:
        median = 0.5 * (values[mid - 1] + values[mid])
    return values[0], median, values[-1]
