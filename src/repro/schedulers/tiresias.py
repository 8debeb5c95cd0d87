"""Tiresias baseline: least attained service (Section 8's emulation).

"We model Tiresias using bids by having all apps report their total GPU
service.  The ARBITER assigns resources to apps that have the least GPU
service.  This model represents a version of Least Acquired Service
(LAS) used by Tiresias."

Tiresias is deliberately placement-*unaware* ("Tiresias's inefficacy
arises from its focus on simple resource fairness which ignores
placement sensitivity"): GPUs are taken round-robin across machines,
modelling a scheduler that treats the cluster as a flat GPU pool.  On
mixed fleets the LAS metric itself is generation-aware — attained
service accrues in speed-weighted effective GPU-minutes (see
:meth:`repro.workload.job.Job.advance_to`), so a K80-hour counts for
less than a V100-hour — while the *fill* stays deliberately blind to
both placement and speed, true to the emulation.  It stays blind under
a per-family throughput matrix too: attained service measures *device*
compute consumed, not model progress, so Tiresias is the control
baseline that ignores rate inversions entirely.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import drainable
from repro.schedulers.base import InterAppScheduler


def take_scattered(pool_by_machine: dict[int, list[Gpu]], count: int) -> list[Gpu]:
    """Take ``count`` GPUs round-robin across machines (placement-blind).

    Mutates ``pool_by_machine``.  Deterministic: machines are visited
    in id order, one GPU per visit.
    """
    taken: list[Gpu] = []
    while count > 0 and pool_by_machine:
        for machine_id in sorted(pool_by_machine):
            gpus = pool_by_machine[machine_id]
            taken.append(gpus.pop(0))
            if not gpus:
                del pool_by_machine[machine_id]
            count -= 1
            if count <= 0:
                break
    return taken


class TiresiasScheduler(InterAppScheduler):
    """Least-attained-service ordering, placement-blind fill."""

    name = "tiresias"

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        pool_by_machine = drainable(pool)
        result: dict[str, list[Gpu]] = {}
        ranked = sorted(
            self.apps_with_demand(),
            key=lambda app: (app.attained_service(), app.app_id),
        )
        for app in ranked:
            if not pool_by_machine:
                break
            taken = take_scattered(pool_by_machine, app.unmet_demand())
            if taken:
                result[app.app_id] = taken
        return result
