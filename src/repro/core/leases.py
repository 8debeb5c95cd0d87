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

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from repro.cluster.topology import Gpu


def _expiry_key(lease: "Lease") -> tuple[float, int]:
    """The lease's place in the expiry order: the instant from which
    :meth:`Lease.is_expired` holds (the same float it compares), then
    its gpu_id, which is unique among leases."""
    return lease.expiry - 1e-9, lease.gpu.gpu_id


#: Sort key within one machine's GPUs: NVLink slot, then id.
_slot_order = attrgetter("slot_id", "gpu_id")


@dataclass
class Lease:
    """Ownership of one GPU by one app (and the job using it).

    ``expiry`` is fixed once granted — the manager's expiry order is
    keyed on it; a renewal is a new grant.
    """

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

    Besides the leases themselves the manager keeps two indexes, both
    updated by every grant and release:

    * the **free index** — for every machine of the cluster, in
      ascending machine id, the tuple of its unleased GPUs sorted by
      ``(slot_id, gpu_id)``: the per-machine offer vector R of Themis
      section 5, with the GPUs behind each count;
    * the **expiry order** — every lease keyed by the instant
      :meth:`Lease.is_expired` turns true and its gpu_id, sorted, so
      the expired leases are a prefix found by one bisection.

    A round therefore costs one pass over the machines plus the expired
    leases (:meth:`pool_for_auction`), not a pass over every free GPU or
    every lease.  :meth:`unleased_gpus` and :meth:`expired_gpus` remain
    the full rescans the tests audit both indexes with.
    """

    def __init__(self, gpus: Iterable[Gpu]) -> None:
        self._leases: dict[int, Lease] = {}
        grouped: dict[int, list[Gpu]] = {}
        for gpu in sorted(gpus, key=attrgetter("machine_id", "slot_id", "gpu_id")):
            grouped.setdefault(gpu.machine_id, []).append(gpu)
        #: machine id -> its unleased GPUs in slot order; every machine
        #: keeps its key (possibly with an empty tuple), so the dict
        #: stays in ascending machine id.
        self._free: dict[int, tuple[Gpu, ...]] = {m: tuple(g) for m, g in grouped.items()}
        #: Read-only view of :attr:`_free` handed to callers.
        self.free_by_machine: Mapping[int, tuple[Gpu, ...]] = MappingProxyType(self._free)
        #: ``_expiry_key(lease)`` of every lease, ascending.
        self._by_expiry: list[tuple[float, int]] = []
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
        old = self._leases.get(gpu.gpu_id)
        if old is None:
            free = self._free[gpu.machine_id]
            at = free.index(gpu)
            self._free[gpu.machine_id] = free[:at] + free[at + 1 :]
        else:
            self._drop_expiry(old)
        self._leases[gpu.gpu_id] = lease
        insort(self._by_expiry, _expiry_key(lease))
        return lease

    def release(self, gpu: Gpu) -> Optional[Lease]:
        """Drop the lease on ``gpu`` (no-op when unleased)."""
        lease = self._leases.pop(gpu.gpu_id, None)
        if lease is not None:
            self._drop_expiry(lease)
            free = self._free[gpu.machine_id]
            at = bisect_left(free, _slot_order(gpu), key=_slot_order)
            self._free[gpu.machine_id] = free[:at] + (gpu,) + free[at:]
        return lease

    def _drop_expiry(self, lease: Lease) -> None:
        """Remove ``lease`` from the expiry order (its key is unique)."""
        del self._by_expiry[bisect_left(self._by_expiry, _expiry_key(lease))]

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

    def expired_leases(self, now: float) -> list[Lease]:
        """Leases that have run out by ``now``, in gpu_id order.

        The expiry order's prefix up to ``now``, found by one bisection,
        so the cost is in the expired leases, not in every lease.
        """
        cut = bisect_right(self._by_expiry, (now, math.inf))
        leases = self._leases
        return [leases[gpu_id] for gpu_id in sorted(key[1] for key in self._by_expiry[:cut])]

    def pool_for_auction(self, now: float) -> dict[int, tuple[Gpu, ...]]:
        """The auction pool grouped by machine: unleased plus expired GPUs.

        Machine id -> that machine's pooled GPUs sorted by
        ``(slot_id, gpu_id)``, in ascending machine id, machines with
        nothing pooled left out.  The free index's tuples are shared,
        not copied: callers that drain the pool copy what they mutate.
        """
        expired: dict[int, list[Gpu]] = {}
        for lease in self.expired_leases(now):
            expired.setdefault(lease.gpu.machine_id, []).append(lease.gpu)
        return {
            machine_id: (
                tuple(sorted(free + tuple(expired[machine_id]), key=_slot_order))
                if machine_id in expired
                else free
            )
            for machine_id, free in self._free.items()
            if free or machine_id in expired
        }

    def utilisation(self, total_gpus: int) -> float:
        """Fraction of the cluster under lease."""
        if total_gpus <= 0:
            raise ValueError(f"total_gpus must be > 0, got {total_gpus}")
        return len(self._leases) / total_gpus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeaseManager(active={len(self._leases)})"
