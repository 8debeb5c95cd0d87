"""Per-GPU-generation breakdowns for heterogeneous-cluster runs.

A mixed V100/P100/K80 fleet raises questions the aggregate metrics
cannot answer: which generation did the work, was the slow silicon left
idle, and did apps that ran mostly on old GPUs pay for it in fairness
or completion time?  :func:`per_type_rows` answers them from the
per-type GPU-time integrals the simulator records — no re-simulation
needed, so it works on cached :class:`SimulationResult` payloads too.

Per-type rho / JCT / placement are GPU-time-weighted means: an app
contributes to a generation's row in proportion to the device-minutes
it spent on that generation, which attributes mixed-fleet apps
fractionally instead of forcing a single label per app.
"""

from __future__ import annotations

import math

from repro.cluster.topology import ordered_sum
from repro.simulation.simulator import SimulationResult


def _weighted_mean(pairs: list[tuple[float, float]]) -> float:
    """Weighted mean of (value, weight) pairs; ``nan`` with no weight."""
    total_weight = ordered_sum(weight for _, weight in pairs)
    if total_weight <= 0:
        return math.nan
    return ordered_sum(value * weight for value, weight in pairs) / total_weight


def per_type_rows(result: SimulationResult) -> list[dict]:
    """One metrics row per GPU generation present in the run.

    Columns: GPU count, device GPU-time, share of all GPU-time,
    utilisation over the makespan window, and GPU-time-weighted mean
    rho (finite, finished apps), mean JCT and mean placement score.
    Weighted columns are ``nan`` when no finished app touched the
    generation.
    """
    type_names = sorted(
        set(result.cluster_gpus_by_type) | set(result.gpu_time_by_type)
    )
    total_gpu_time = ordered_sum(result.gpu_time_by_type.values())
    rows: list[dict] = []
    for name in type_names:
        gpus = result.cluster_gpus_by_type.get(name, 0)
        gpu_time = result.gpu_time_by_type.get(name, 0.0)
        rho_pairs: list[tuple[float, float]] = []
        jct_pairs: list[tuple[float, float]] = []
        placement_pairs: list[tuple[float, float]] = []
        for stats in result.app_stats:
            weight = stats.gpu_time_by_type.get(name, 0.0)
            if weight <= 0:
                continue
            if stats.finished_at is not None and math.isfinite(stats.rho):
                rho_pairs.append((stats.rho, weight))
            if stats.completion_time is not None:
                jct_pairs.append((stats.completion_time, weight))
            if stats.mean_placement_score > 0.0:
                placement_pairs.append((stats.mean_placement_score, weight))
        utilisation = (
            gpu_time / (gpus * result.makespan)
            if gpus > 0 and result.makespan > 0
            else 0.0
        )
        rows.append(
            {
                "gpu_type": name,
                "gpus": gpus,
                "gpu_time": gpu_time,
                "gpu_time_share": (
                    gpu_time / total_gpu_time if total_gpu_time > 0 else 0.0
                ),
                "utilization": utilisation,
                "weighted_rho": _weighted_mean(rho_pairs),
                "weighted_jct": _weighted_mean(jct_pairs),
                "weighted_placement": _weighted_mean(placement_pairs),
            }
        )
    return rows


def is_heterogeneous(result: SimulationResult) -> bool:
    """True when the run's cluster mixes more than one GPU generation."""
    return len(result.cluster_gpus_by_type) > 1
