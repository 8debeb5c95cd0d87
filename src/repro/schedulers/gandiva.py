"""Gandiva baseline: introspective placement-score packing (Section 8).

"We model Gandiva by having all apps report the placement score for the
resources offered, and running the same greedy placement algorithm at
the end of each lease to maximize the placement scores for all apps."

The social objective is the *sum* of per-app packing quality — each
job's GPUs weighted by the 4-level placement score of their spread —
maximised with the shared greedy utility allocator.  No fairness terms
at all, which is why Gandiva places well (Figure 7) but lands far from
ideal on max finish-time fairness (Figure 5a).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import (
    check_chunk_size,
    concretise,
    greedy_utility_assign,
)
from repro.core.fairness import AppValuationState
from repro.schedulers.base import CarvingScheduler


def _packing_utility(state: AppValuationState):
    """The app's placement-score utility of a bundle on top of its holdings.

    Pure while the round runs (the state is refreshed before the greedy
    starts), as :func:`greedy_utility_assign` needs; each value comes
    from the state's cross-round packing cache.
    """
    base_key = state.base_key

    def utility(bundle: dict[int, int]) -> float:
        merged = dict(base_key)
        for machine_id, count in bundle.items():
            merged[machine_id] = merged.get(machine_id, 0) + count
        return state.packing_of(tuple(sorted(merged.items())))

    return utility


class GandivaScheduler(CarvingScheduler):
    """Greedy aggregate placement-score maximisation."""

    name = "gandiva"

    def __init__(self, chunk_size: int = 4) -> None:
        super().__init__()
        self.chunk_size = check_chunk_size(chunk_size)

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        apps = self.apps_with_demand()
        if not apps:
            return {}
        counts = {m: len(g) for m, g in pool.items()}
        utilities = {}
        for app in apps:
            state = self.states[app.app_id]
            state.refresh()
            utilities[app.app_id] = _packing_utility(state)
        caps = {app.app_id: app.unmet_demand() for app in apps}
        assignment = greedy_utility_assign(
            counts, utilities, caps, chunk_size=self.chunk_size
        )
        return concretise(assignment, pool)
