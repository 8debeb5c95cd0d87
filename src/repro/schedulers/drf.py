"""DRF-style instantaneous resource fairness baseline (Section 2.2).

With GPUs as the single resource, Dominant Resource Fairness reduces to
max-min fairness on GPU shares: water-fill one GPU at a time to the app
with the smallest current holding (relative to its demand).  On a mixed
fleet the dominant share is *speed-weighted* — holding one K80 is a
smaller share of the cluster's compute than holding one V100 — which
reduces to plain GPU counts when every GPU has speed 1.0.  This is the
"established scheme" whose failure modes — indifference to task length
and to placement — motivate the paper; the ablation benchmarks measure
them directly.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import drainable, take_packed
from repro.schedulers.base import InterAppScheduler
from repro.workload.perf import app_effective_compute


class DrfScheduler(InterAppScheduler):
    """Max-min water-filling on speed-weighted GPU shares (single-resource DRF).

    Under a throughput matrix the dominant share is *family*-weighted:
    an app holding GPUs its model runs slowly on has a smaller share of
    useful compute than one holding the same silicon it runs fast on —
    which reduces to the scalar speed weighting (and then to plain
    counts) when every row equals the generation speeds.
    """

    name = "drf"

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        pool_by_machine = drainable(pool)
        apps = self.apps_with_demand()
        if not apps:
            return {}
        model = self.perf_model()
        speed_maps = {app.app_id: self.machine_speeds_for(app) for app in apps}
        families = {app.app_id: self.family_of(app) for app in apps}
        # One unit per app for the whole round: the family row for
        # single-family apps, the scalar speeds otherwise — holdings and
        # per-grant increments must never mix the two, or the max-min
        # ordering compares incommensurable shares mid-round.
        holdings = {
            app.app_id: (
                app_effective_compute(app, model)
                if families[app.app_id] is not None
                else app.allocation().effective_size
            )
            for app in apps
        }
        demand_left = {app.app_id: app.unmet_demand() for app in apps}
        machines_of = {app.app_id: set(app.allocation().machine_ids) for app in apps}
        result: dict[str, list[Gpu]] = {app.app_id: [] for app in apps}
        while pool_by_machine:
            candidates = [a for a in sorted(holdings) if demand_left[a] > 0]
            if not candidates:
                break
            # Max-min: smallest dominant share (= effective compute held) first.
            chosen = min(candidates, key=lambda a: (holdings[a], a))
            taken = take_packed(
                pool_by_machine,
                1,
                sorted(machines_of[chosen]),
                speed_of=speed_maps[chosen],
            )
            if not taken:
                break
            gpu = taken[0]
            result[chosen].append(gpu)
            family = families[chosen]
            if family is None:
                holdings[chosen] += gpu.speed
            else:
                holdings[chosen] += model.speedup(family, gpu.gpu_type)
            demand_left[chosen] -= 1
            machines_of[chosen].add(gpu.machine_id)
        return {a: gpus for a, gpus in result.items() if gpus}
