"""The one table of per-run summary metrics, keyed by column name.

Every consumer that reduces a :class:`SimulationResult` to headline
numbers — the figure registry's row columns, the CLI's summary table,
cross-seed sweep aggregation, the service's ``sim`` job result — names
its columns out of :data:`METRICS` instead of re-deriving them, so a
new metric (or a mechanism-exercise counter) is one entry here.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.metrics.fairness import (
    distance_from_ideal,
    jain_index,
    max_fairness,
    rho_spread,
)
from repro.metrics.jct import average_jct, jct_summary
from repro.metrics.placement import score_summary
from repro.metrics.utilization import utilization
from repro.simulation.simulator import SimulationResult

METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "max_rho": lambda r: max_fairness(r.rhos()),
    "jain": lambda r: jain_index(r.rhos()),
    "dist_from_ideal": lambda r: distance_from_ideal(r.rhos(), r.peak_contention),
    # Figure 4a's bars: the spread over apps that finished (a starved
    # app's infinite rho is excluded here, unlike in ``max_rho``).
    "min_rho": lambda r: rho_spread(r.rhos())[0],
    "median_rho": lambda r: rho_spread(r.rhos())[1],
    "max_finite_rho": lambda r: rho_spread(r.rhos())[2],
    "avg_jct": lambda r: average_jct(r.completion_times()),
    "p95_jct": lambda r: jct_summary(r.completion_times())["p95"],
    "placement": lambda r: score_summary(r.placement_scores())["mean"],
    "gpu_time": lambda r: r.total_gpu_time,
    "utilization": utilization,
    "peak_contention": lambda r: r.peak_contention,
    "rounds": lambda r: r.num_rounds,
    # The hidden payments' ledger: the share of proportional-fair winners
    # that kept fewer GPUs than their bundle, and the GPUs withheld.
    "paid_share": lambda r: _paid_share(r),
    "gpus_withheld": lambda r: _auction_total(r, "gpus_withheld"),
}


def _auction_total(result: SimulationResult, key: str) -> int:
    """One ``RoundStats`` counter summed over every auction of the run;
    ``ValueError`` (no sample) for a scheduler without an arbiter or a
    payload cached before the counter was kept."""
    totals = result.round_stats.get("totals", {})
    if key not in totals:
        raise ValueError(f"no auction counter {key!r} in this result")
    return totals[key]


def _paid_share(result: SimulationResult) -> float:
    winners = _auction_total(result, "num_pf_winners")
    if not winners:
        raise ValueError("no auction had a winner")
    return _auction_total(result, "num_paid") / winners


def metric_values(
    result: SimulationResult, names: Iterable[str]
) -> dict[str, Optional[float]]:
    """``{name: METRICS[name](result)}`` in the order of ``names``.

    A metric the run has no sample for (no app finished, so there is
    no rho or completion time to summarise) reads ``None``.
    """
    values: dict[str, Optional[float]] = {}
    for name in names:
        try:
            values[name] = METRICS[name](result)
        except ValueError:
            values[name] = None
    return values


def multi_bidder_auctions(result: SimulationResult) -> tuple[int, int]:
    """(auctions with >= 2 participants, auctions recorded) of one run.

    A lone bidder keeps its whole bundle and no hidden payment is ever
    computed, so a Themis replay whose first number is 0 exercised none
    of the auction mechanism.  Read from the arbiter's per-round
    instrumentation the result already carries, counted over every
    round whatever ``downsample`` thinned; ``(0, 0)`` for schedulers
    without an arbiter.
    """
    stats = result.round_stats
    if "multi_bidder_rounds" not in stats:
        # No arbiter, or a payload cached before the count was kept:
        # its ``per_round`` rows are complete unless it downsampled.
        rows = stats.get("per_round", ())
        return sum(1 for row in rows if row["num_participants"] >= 2), len(rows)
    return stats["multi_bidder_rounds"], stats["rounds"]
