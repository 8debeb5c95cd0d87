"""The offline finish-time fair policy of Section 4, solved exactly.

The paper formalises Themis' goal as an optimisation program: assign
every GPU ``(x, y)`` to at most one app so that the maximum deviation
``eps_max`` of any app's ``rho`` above the ideal value is minimised

    min eps_max
    s.t. rho_i <= N + eps_i,  eps_i <= eps_max,  sum_i G_xyi = 1

with ``rho_i`` a placement-sensitive function of the allocation.  The
online auction only approximates this; this module solves the program
*exactly* for small instances by enumerating per-machine GPU splits,
giving tests (and users) a ground-truth lower bound to compare the
mechanism against.

This mirrors the paper's own justification ("the solution to the above
induces sharing incentive in the case where all apps start at the same
time, and resources are apportioned offline").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.fairness import FairnessEstimator
from repro.workload.app import App


@dataclass(frozen=True)
class OfflineSolution:
    """Result of the exact offline max-min fairness program."""

    allocation: dict[str, dict[int, int]]
    rhos: dict[str, float]
    max_rho: float


def solve_offline_max_min(
    apps: Sequence[App],
    machine_free_gpus: Mapping[int, int],
    estimator: FairnessEstimator,
    now: float = 0.0,
    max_states: int = 500_000,
) -> OfflineSolution:
    """Exact minimiser of the maximum rho over all GPU assignments.

    Enumerates every split of each machine's free GPUs across apps
    (lexicographically minimising the sorted rho vector, so the
    solution is leximin — the natural strengthening of min-max the
    paper's max-min policy implies).  Exponential; guarded by
    ``max_states`` and intended for validation-sized instances.
    """
    app_list = list(apps)
    if not app_list:
        raise ValueError("need at least one app")
    machines = sorted(m for m, c in machine_free_gpus.items() if c > 0)
    snapshots = {app.app_id: estimator.snapshot(app) for app in app_list}

    def splits(count: int, ways: int):
        if ways == 1:
            for take in range(count + 1):
                yield (take,)
            return
        for take in range(count + 1):
            for rest in splits(count - take, ways - 1):
                yield (take,) + rest

    options = [list(splits(machine_free_gpus[m], len(app_list))) for m in machines]
    total_states = 1
    for opts in options:
        total_states *= len(opts)
        if total_states > max_states:
            raise ValueError(
                f"instance too large for exact offline solve ({total_states} states)"
            )

    best_key = None
    best_allocation: dict[str, dict[int, int]] = {}
    best_rhos: dict[str, float] = {}
    for combo in itertools.product(*options):
        allocation: dict[str, dict[int, int]] = {app.app_id: {} for app in app_list}
        for machine_index, split in enumerate(combo):
            machine_id = machines[machine_index]
            for app_index, take in enumerate(split):
                if take > 0:
                    allocation[app_list[app_index].app_id][machine_id] = take
        rhos = {}
        for app in app_list:
            counts = dict(app.allocation().per_machine_counts())
            for machine_id, take in allocation[app.app_id].items():
                counts[machine_id] = counts.get(machine_id, 0) + take
            rhos[app.app_id] = estimator.rho_from_snapshot(
                snapshots[app.app_id], now, counts
            )
        # Leximin: compare the descending-sorted rho vector.
        key = tuple(sorted(rhos.values(), reverse=True))
        if best_key is None or key < best_key:
            best_key = key
            best_allocation = allocation
            best_rhos = rhos
    finite = [r for r in best_rhos.values() if not math.isinf(r)]
    max_rho = max(best_rhos.values()) if best_rhos else math.inf
    return OfflineSolution(
        allocation={a: b for a, b in best_allocation.items() if b},
        rhos=best_rhos,
        max_rho=max_rho if finite or math.isinf(max_rho) else max(finite),
    )
