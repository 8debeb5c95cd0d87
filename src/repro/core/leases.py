"""GPU leases (Section 3).

"Each GPU in a THEMIS-managed cluster has a lease associated with it.
The lease dictates how long an app can assume ownership of the GPU ...
When a lease expires, the resource is made available for allocation."

The manager tracks which app (and job) holds each GPU and until when.
Expired leases are *not* auto-revoked: the GPU enters the next auction's
pool and, if re-won by the same job, the lease renews seamlessly with
no checkpoint cost — matching the prototype's behaviour where only an
actual ownership change forces a checkpoint/restore cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cluster.topology import Gpu


@dataclass
class Lease:
    """Ownership of one GPU by one app (and the job using it)."""

    gpu: Gpu
    app_id: str
    job_id: str
    start: float
    expiry: float

    def is_expired(self, now: float) -> bool:
        """True once the lease has run out at time ``now``."""
        return now >= self.expiry - 1e-9

    def remaining(self, now: float) -> float:
        """Minutes of lease left (0 when expired)."""
        return max(0.0, self.expiry - now)


class LeaseManager:
    """Tracks the lease on every GPU of one cluster.

    The manager is built over the cluster's GPUs.  Their *complement*
    — the unleased GPUs — is maintained alongside the leases, so
    :meth:`pool_for_auction` and :meth:`free_gpus` read the free dict
    instead of rescanning every GPU in the cluster each round;
    :meth:`unleased_gpus` and :meth:`expired_gpus` remain the full
    rescans tests audit it with.
    """

    def __init__(self, gpus: Iterable[Gpu]) -> None:
        self._leases: dict[int, Lease] = {}
        #: Unleased GPUs, kept in step by every grant and release.
        self._free: dict[int, Gpu] = {gpu.gpu_id: gpu for gpu in gpus}
        #: Forced-revocation tally by reason ("failure", "preemption",
        #: ...) — ordinary releases/renewals do not count.
        self.revocations: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def grant(self, gpu: Gpu, app_id: str, job_id: str, now: float, duration: float) -> Lease:
        """Grant (or renew) the lease on ``gpu`` for ``duration`` minutes.

        Granting over an existing lease is allowed — it is exactly the
        renewal / ownership-transfer path after an auction.
        """
        if duration <= 0:
            raise ValueError(f"lease duration must be > 0, got {duration}")
        lease = Lease(gpu=gpu, app_id=app_id, job_id=job_id, start=now, expiry=now + duration)
        self._leases[gpu.gpu_id] = lease
        self._free.pop(gpu.gpu_id, None)
        return lease

    def release(self, gpu: Gpu) -> Optional[Lease]:
        """Drop the lease on ``gpu`` (no-op when unleased)."""
        lease = self._leases.pop(gpu.gpu_id, None)
        if lease is not None:
            self._free[gpu.gpu_id] = gpu
        return lease

    def release_all(self, gpus: Iterable[Gpu]) -> None:
        """Drop leases on several GPUs."""
        for gpu in gpus:
            self.release(gpu)

    def revoke(self, gpu: Gpu, reason: str = "forced") -> Optional[Lease]:
        """Forcibly drop the lease on ``gpu``, recording ``reason``.

        Same state change as :meth:`release`, but counted in
        :attr:`revocations` — a revocation is an ownership loss the
        holder did not choose (machine failure, preemption), which the
        control plane treats as a transient worker loss rather than a
        job failure.  No-op (and uncounted) when ``gpu`` is unleased.
        """
        lease = self.release(gpu)
        if lease is not None:
            self.revocations[reason] = self.revocations.get(reason, 0) + 1
        return lease

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lease_of(self, gpu: Gpu) -> Optional[Lease]:
        """The active lease on ``gpu``, if any."""
        return self._leases.get(gpu.gpu_id)

    def holder(self, gpu: Gpu) -> Optional[str]:
        """The app currently holding ``gpu``, if any."""
        lease = self._leases.get(gpu.gpu_id)
        return lease.app_id if lease else None

    def is_leased(self, gpu: Gpu) -> bool:
        """True when ``gpu`` currently has a lease (expired or not)."""
        return gpu.gpu_id in self._leases

    def leases_of_app(self, app_id: str) -> list[Lease]:
        """All leases held by one app, in gpu_id order."""
        return [
            self._leases[gpu_id]
            for gpu_id in sorted(self._leases)
            if self._leases[gpu_id].app_id == app_id
        ]

    def expired_gpus(self, now: float) -> list[Gpu]:
        """GPUs whose lease has expired by ``now``, in gpu_id order."""
        return [
            lease.gpu
            for gpu_id, lease in sorted(self._leases.items())
            if lease.is_expired(now)
        ]

    def unleased_gpus(self, all_gpus: Iterable[Gpu]) -> list[Gpu]:
        """GPUs from ``all_gpus`` that carry no lease at all (a rescan)."""
        return [gpu for gpu in all_gpus if gpu.gpu_id not in self._leases]

    def free_gpus(self) -> Iterable[Gpu]:
        """Unleased GPUs, served from the free dict.

        Same set as :meth:`unleased_gpus`, but O(free) instead of
        O(cluster) — the per-round metrics sampler's hot path.
        Iteration order is unspecified; callers needing determinism
        must aggregate order-independently (or sort).
        """
        return self._free.values()

    def next_expiry(self, now: float) -> Optional[float]:
        """Earliest future lease expiry strictly after ``now`` (None when idle)."""
        future = [lease.expiry for lease in self._leases.values() if lease.expiry > now + 1e-9]
        return min(future) if future else None

    def pool_for_auction(self, now: float) -> list[Gpu]:
        """The auction pool: unleased GPUs plus GPUs with expired leases.

        Assembled from the free dict and the leases, sorted by gpu_id.
        """
        pool = list(self._free.values())
        pool.extend(
            lease.gpu for lease in self._leases.values() if lease.is_expired(now)
        )
        return sorted(pool, key=lambda gpu: gpu.gpu_id)

    @property
    def active_lease_count(self) -> int:
        """Number of GPUs currently under lease."""
        return len(self._leases)

    def utilisation(self, total_gpus: int) -> float:
        """Fraction of the cluster under lease."""
        if total_gpus <= 0:
            raise ValueError(f"total_gpus must be > 0, got {total_gpus}")
        return len(self._leases) / total_gpus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeaseManager(active={len(self._leases)})"
