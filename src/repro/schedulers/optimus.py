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

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.schedulers.base import InterAppScheduler
from repro.schedulers.slaq import EffectiveUtility, assign_by_effective_utility
from repro.workload.app import App


class OptimusScheduler(InterAppScheduler):
    """Greedy marginal completion-time-reduction allocation."""

    name = "optimus"

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

    @classmethod
    def _time_reduction(cls, snapshot: Sequence[tuple[float, int]]) -> EffectiveUtility:
        """Completion-time reduction of ``extra`` compute on top of ``held``.

        A round probes one app with one ``held`` many times, so the
        estimate at ``held`` is computed once per value, not per probe.
        """
        bases: dict[float, float] = {}

        def reduction(held: float, extra: float) -> float:
            base = bases.get(held)
            if base is None:
                base = bases[held] = cls._estimated_completion(snapshot, held)
            return max(0.0, base - cls._estimated_completion(snapshot, held + extra))

        return reduction

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        return assign_by_effective_utility(
            self, pool, lambda app: self._time_reduction(self._job_snapshot(app))
        )
