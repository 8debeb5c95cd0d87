"""Evaluation metrics of Section 8.1.

* **Max Fairness** — worst finish-time fairness across apps (lower is
  fairer), and distance-from-ideal against the contention bound,
* **Jain's Fairness** — variance of rho across apps (1.0 is best),
* **Placement Score** — the 4-level locality score CDF,
* **GPU Time** — total GPU-minutes consumed (lower = more efficient),
* app completion time statistics and CDFs,
* per-app GPU allocation timelines (Figure 8),
* :data:`METRICS` — the one by-name table of the per-run summaries
  above that figure rows, the CLI, sweep aggregation and the service
  all read (:mod:`repro.metrics.summary`).
"""

from repro.metrics.fairness import (
    distance_from_ideal,
    jain_index,
    max_fairness,
    rho_spread,
)
from repro.metrics.hetero import is_heterogeneous, per_type_rows
from repro.metrics.jct import average_jct, cdf, jct_summary, percentile
from repro.metrics.placement import placement_cdf, score_summary
from repro.metrics.sharing import (
    sharing_incentive_fraction,
    violators,
    worst_violation,
)
from repro.metrics.summary import METRICS, metric_values, multi_bidder_auctions
from repro.metrics.timeline import allocation_series, sample_series
from repro.metrics.utilization import gpu_time_total, utilization

__all__ = [
    "METRICS",
    "allocation_series",
    "average_jct",
    "cdf",
    "distance_from_ideal",
    "gpu_time_total",
    "is_heterogeneous",
    "jain_index",
    "jct_summary",
    "max_fairness",
    "metric_values",
    "multi_bidder_auctions",
    "per_type_rows",
    "percentile",
    "placement_cdf",
    "rho_spread",
    "sample_series",
    "score_summary",
    "sharing_incentive_fraction",
    "utilization",
    "violators",
    "worst_violation",
]
