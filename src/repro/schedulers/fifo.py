"""First-in-first-out baseline.

Not in the paper's comparison set, but the simplest sane policy — used
by tests and as an ablation anchor: arrival order, placement-aware fill
(an app keeps drawing from machines it already occupies).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import drainable, take_packed
from repro.schedulers.base import InterAppScheduler


class FifoScheduler(InterAppScheduler):
    """Earliest-arrival app first, each filled to its demand."""

    name = "fifo"

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        pool_by_machine = drainable(pool)
        result: dict[str, list[Gpu]] = {}
        ranked = sorted(
            self.apps_with_demand(), key=lambda app: (app.arrival_time, app.app_id)
        )
        for app in ranked:
            if not pool_by_machine:
                break
            want = app.unmet_demand()
            preferred = app.allocation().machine_ids
            # Each app drains the machines fastest *for its own model
            # family* first (= the scalar speed order on scalar runs).
            taken = take_packed(
                pool_by_machine,
                want,
                preferred_machines=preferred,
                speed_of=self.machine_speeds_for(app),
            )
            if taken:
                result[app.app_id] = taken
        return result
