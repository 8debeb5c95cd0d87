"""Locality levels, placement scores and the slowdown factor ``S``.

Section 8.1 defines a 4-level placement score: *slot locality* (all GPUs
on one NVLink island), *machine locality* (one machine, over PCIe),
*rack locality* and *no locality* (cross-rack).  Section 5.2 models the
placement sensitivity ``S`` of a job as the slowdown observed when its
GPUs span successive networking boundaries, with ``S -> 1`` for
close-to-ideal placement and job running time ``serial / (G * S)``.

This module implements both: the level classification of a set of GPUs,
the paper's placement *score* metric (Figure 7) and the *slowdown*
lookup given a per-model :class:`SensitivityProfile`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.cluster.topology import Gpu


class LocalityLevel(enum.IntEnum):
    """Worst networking boundary spanned by an allocation (lower = tighter)."""

    SLOT = 0
    MACHINE = 1
    RACK = 2
    CLUSTER = 3


#: The 4-level placement score of Section 8.1: 1.0 means GPUs are tightly
#: packed (all NVLink), lower scores mean the allocation is spread out.
PLACEMENT_SCORES: dict[LocalityLevel, float] = {
    LocalityLevel.SLOT: 1.0,
    LocalityLevel.MACHINE: 0.75,
    LocalityLevel.RACK: 0.5,
    LocalityLevel.CLUSTER: 0.25,
}


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-model slowdown at each locality level (Section 5.2).

    "We typically have three values for S, one each reflecting the case
    where GPUs span different slots in a machine; span multiple machines
    in a rack; and span racks."  Slot-local placement is ideal (S = 1).
    """

    machine: float
    rack: float
    cluster: float

    def __post_init__(self) -> None:
        values = (self.machine, self.rack, self.cluster)
        if not all(0.0 < v <= 1.0 for v in values):
            raise ValueError(f"slowdowns must be in (0, 1], got {values}")
        if not self.machine >= self.rack >= self.cluster:
            raise ValueError(
                "slowdowns must be monotonically non-increasing with spread: "
                f"machine={self.machine} rack={self.rack} cluster={self.cluster}"
            )

    @cached_property
    def by_level(self) -> tuple[float, ...]:
        """:meth:`at` for every level, indexed by :class:`LocalityLevel`."""
        return tuple(map(self.at, LocalityLevel))

    def at(self, level: LocalityLevel) -> float:
        """Slowdown factor for GPUs spanning at most ``level``."""
        if level == LocalityLevel.SLOT:
            return 1.0
        if level == LocalityLevel.MACHINE:
            return self.machine
        if level == LocalityLevel.RACK:
            return self.rack
        return self.cluster


def placement_level(gpus: Iterable[Gpu]) -> LocalityLevel:
    """Classify an allocation by the worst boundary it spans.

    An empty allocation and a single GPU are both slot-local by
    definition.  The classification only inspects the GPUs themselves
    (their machine/rack/slot coordinates), so it needs no cluster handle.
    """
    gpus = list(gpus)
    if len(gpus) <= 1:
        return LocalityLevel.SLOT
    racks = {gpu.rack_id for gpu in gpus}
    if len(racks) > 1:
        return LocalityLevel.CLUSTER
    machines = {gpu.machine_id for gpu in gpus}
    if len(machines) > 1:
        return LocalityLevel.RACK
    slots = {(gpu.machine_id, gpu.slot_id) for gpu in gpus}
    if len(slots) > 1:
        return LocalityLevel.MACHINE
    return LocalityLevel.SLOT


def placement_score(gpus: Iterable[Gpu]) -> float:
    """The paper's 4-level placement score for an allocation (Figure 7).

    Returns 0.0 for an empty allocation (no placement to score).
    """
    gpus = list(gpus)
    if not gpus:
        return 0.0
    return PLACEMENT_SCORES[placement_level(gpus)]


def slowdown(profile: SensitivityProfile, gpus: Iterable[Gpu]) -> float:
    """Slowdown factor ``S`` for ``gpus`` under a model's sensitivity profile.

    Follows Section 5.2: with ideal placement the job scales linearly in
    the number of GPUs; otherwise throughput is multiplied by
    ``S(level) <= 1`` where the level is the worst boundary spanned.
    Returns 1.0 for empty or single-GPU allocations (no communication).
    """
    gpus = list(gpus)
    if len(gpus) <= 1:
        return 1.0
    return profile.at(placement_level(gpus))
