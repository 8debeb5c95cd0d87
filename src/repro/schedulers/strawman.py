"""The Section 4 online strawman: everything to the worst-rho app.

"Each app can send updated values of rho to the ARBITER just before a
reallocation.  The ARBITER can then use these updated values to
reallocate resources to the app with the worst rho."

The paper rejects this design for two reasons — placement-insensitive
single-app allocation and gameable self-reported rho — and Themis'
auction exists to fix both.  The ablation benchmark runs this policy to
quantify that argument.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import drainable, take_packed
from repro.schedulers.base import CarvingScheduler


class StrawmanScheduler(CarvingScheduler):
    """Greedy max-min on finish-time fairness, one app at a time."""

    name = "strawman"

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        apps = self.apps_with_demand()
        if not apps:
            return {}
        pool_by_machine = drainable(pool)
        # The strawman reallocates to *the* app with the worst rho —
        # exactly one winner per round; whatever it cannot absorb stays
        # where it is until the next round.
        states = self.states
        worst = min(
            apps,
            key=lambda app: (-states[app.app_id].current_rho(now), app.app_id),
        )
        taken = take_packed(
            pool_by_machine,
            worst.unmet_demand(),
            worst.allocation().machine_ids,
            speed_of=self.machine_speeds_for(worst),
        )
        if not taken:
            return {}
        return {worst.app_id: taken}
