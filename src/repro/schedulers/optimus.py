"""Optimus baseline (Peng et al., EuroSys 2018 — Section 9 related work).

Optimus is the fourth ML-cluster scheduler the paper names ("Cluster
scheduling for ML workloads has been targeted by ... SLAQ, Gandiva,
Tiresias and Optimus").  It allocates GPUs greedily by *marginal gain*:
each additional GPU goes to the job whose estimated remaining
completion time drops the most, using a fitted throughput-scaling
model.  Like SLAQ and Tiresias it reasons about throughput, not
placement, so its scaling estimates assume perfect linear speedup and
its grants are concretised placement-blind.

Included as an extension beyond the paper's comparison set; the
ablation benchmarks exercise it.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.topology import Gpu, ordered_sum
from repro.core.assignment import greedy_utility_assign, group_pool
from repro.schedulers.base import InterAppScheduler
from repro.schedulers.tiresias import take_scattered
from repro.workload.app import App
from repro.workload.perf import app_effective_compute, app_family


class OptimusScheduler(InterAppScheduler):
    """Greedy marginal completion-time-reduction allocation."""

    name = "optimus"

    def __init__(self, chunk_size: int = 4) -> None:
        super().__init__()
        self.chunk_size = chunk_size

    @staticmethod
    def _job_snapshot(app: App) -> list[tuple[float, int]]:
        """(remaining_work, cap) rows, shortest remaining first."""
        rows = [
            (job.remaining_work, job.max_parallelism, job.job_id)
            for job in app.active_jobs()
        ]
        rows.sort(key=lambda row: (row[0], row[2]))
        return [(row[0], row[1]) for row in rows]

    @staticmethod
    def _estimated_completion(
        snapshot: Sequence[tuple[float, int]], gpus: float
    ) -> float:
        """Sum of per-job completion estimates with ``gpus`` split greedily.

        ``gpus`` is measured in *effective* compute units (speed-weighted
        GPU count, = plain count on a homogeneous cluster).  Optimus'
        linear-scaling assumption: a job with ``g`` effective GPUs takes
        ``remaining / g``; jobs beyond the GPU supply dominate the sum
        via a large (but finite) waiting proxy so marginal gains remain
        comparable.
        """
        total = 0.0
        available = gpus
        for remaining, cap in snapshot:
            take = min(cap, available)
            available -= take
            if take > 0:
                total += remaining / take
            else:
                # Unserved job: serial time plus a queueing penalty, so
                # the first GPU a job receives has positive marginal
                # value while the utility stays finite.
                total += 2.0 * remaining
        return total

    def _time_reduction(
        self, snapshot: Sequence[tuple[float, int]], held: float, extra: float
    ) -> float:
        base = self._estimated_completion(snapshot, held)
        improved = self._estimated_completion(snapshot, held + extra)
        return max(0.0, base - improved)

    def assign(self, now: float, pool: Sequence[Gpu]) -> dict[str, list[Gpu]]:
        apps = self.apps_with_demand()
        if not apps:
            return {}
        pool_by_machine = group_pool(pool)
        counts = {m: len(g) for m, g in pool_by_machine.items()}
        model = self.perf_model()
        # Effective units are family-relative under a throughput matrix:
        # each app prices an offered machine by its own row.  One unit
        # per app — mixed-family apps fall back to scalar speeds for
        # *both* held compute and bundle increments, so the marginal
        # comparison never mixes incommensurable units.
        speed_maps = {app.app_id: self.machine_speeds_for(app) for app in apps}
        families = {app.app_id: app_family(app) for app in apps}

        def bundle_effective(app_id: str, bundle: dict[int, int]) -> float:
            speed_of = speed_maps[app_id]
            return ordered_sum(c * speed_of.get(m, 1.0) for m, c in bundle.items())

        snapshots = {app.app_id: self._job_snapshot(app) for app in apps}
        held = {
            app.app_id: (
                app_effective_compute(app, model)
                if families[app.app_id] is not None
                else app.allocation().effective_size
            )
            for app in apps
        }
        utilities = {
            app.app_id: (
                lambda bundle, app_id=app.app_id: self._time_reduction(
                    snapshots[app_id], held[app_id], bundle_effective(app_id, bundle)
                )
            )
            for app in apps
        }
        caps = {app.app_id: app.unmet_demand() for app in apps}
        assignment = greedy_utility_assign(
            counts, utilities, caps, chunk_size=self.chunk_size
        )
        result: dict[str, list[Gpu]] = {}
        for app_id in sorted(assignment, key=lambda a: (-sum(assignment[a].values()), a)):
            want = sum(assignment[app_id].values())
            taken = take_scattered(pool_by_machine, want)
            if taken:
                result[app_id] = taken
        return result
