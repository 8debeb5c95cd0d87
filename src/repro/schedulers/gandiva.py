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

from typing import Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import (
    check_chunk_size,
    concretise,
    greedy_utility_assign,
    group_pool,
)
from repro.core.fairness import job_tuples_of, packing_utility
from repro.schedulers.base import InterAppScheduler


class GandivaScheduler(InterAppScheduler):
    """Greedy aggregate placement-score maximisation."""

    name = "gandiva"

    def __init__(self, chunk_size: int = 4) -> None:
        super().__init__()
        self.chunk_size = check_chunk_size(chunk_size)
        self._rack_of: dict[int, int] = {}
        self._speed_of: dict[int, float] = {}
        self._family_speed_fn = None

    def on_bind(self) -> None:
        assert self.sim is not None
        self._rack_of = {
            machine.machine_id: machine.rack_id
            for machine in self.sim.cluster.machines
        }
        self._speed_of = self.sim.cluster.machine_speeds()
        # Per-family machine speeds under a throughput matrix (None =
        # scalar): packing quality then weighs each job's GPUs by how
        # fast *that job's* family runs on them.
        self._family_speed_fn = self.sim.family_speed_index

    def assign(self, now: float, pool: Sequence[Gpu]) -> dict[str, list[Gpu]]:
        apps = self.apps_with_demand()
        if not apps:
            return {}
        pool_by_machine = group_pool(pool)
        counts = {m: len(g) for m, g in pool_by_machine.items()}
        # Snapshot each app's job descriptors and current holdings once:
        # the greedy allocator evaluates many bundles per round, and
        # needs each utility to be a pure function of the bundle.
        snapshots = {
            app.app_id: (
                job_tuples_of(app.jobs),
                dict(app.allocation().per_machine_counts()),
            )
            for app in apps
        }

        def utility_for(app_id: str):
            tuples, base_counts = snapshots[app_id]

            def utility(bundle: dict[int, int]) -> float:
                merged = dict(base_counts)
                for machine_id, count in bundle.items():
                    merged[machine_id] = merged.get(machine_id, 0) + count
                return packing_utility(
                    tuples,
                    merged,
                    self._rack_of,
                    speed_of=self._speed_of,
                    family_speed_of=self._family_speed_fn,
                )

            return utility

        utilities = {app.app_id: utility_for(app.app_id) for app in apps}
        caps = {app.app_id: app.unmet_demand() for app in apps}
        assignment = greedy_utility_assign(
            counts, utilities, caps, chunk_size=self.chunk_size
        )
        return concretise(assignment, pool_by_machine)
