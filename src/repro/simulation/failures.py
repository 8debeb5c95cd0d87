"""Machine-failure injection (Section 6's declared future work).

"THEMIS may pack apps into GPUs that share a failure domain ... a
machine failure would mean the job loses all its resources, stalls in
its progress, and has to be rescheduled immediately ... We leave a
systematic study of the effect of failures on scheduling for future
work."

This module is that extension: a :class:`MachineFailure` takes a
machine down at a given time and (optionally) repairs it later.  On
failure every lease on the machine is revoked, the affected jobs lose
those GPUs (paying the checkpoint/restart penalty when rescheduled),
and a scheduling round fires immediately — after which the finish-time
fairness dynamics take over: the stalled app's rho deteriorates, so it
wins GPUs back in upcoming auctions, possibly displacing other apps
exactly as Section 6 anticipates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.simulator import ClusterSimulator


@dataclass(frozen=True)
class MachineFailure:
    """One machine outage: down at ``at``, repaired after ``duration``.

    ``duration=math.inf`` models a permanent loss.
    """

    machine_id: int
    at: float
    duration: float = math.inf

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ValueError(f"repair duration must be > 0, got {self.duration}")

    @property
    def repair_at(self) -> float:
        """Absolute repair time (``inf`` for permanent failures)."""
        return self.at + self.duration


class FailureInjector:
    """Schedules failures/repairs onto a simulator and tracks outages."""

    def __init__(self, failures: Sequence[MachineFailure]) -> None:
        self.failures = tuple(sorted(failures, key=lambda f: (f.at, f.machine_id)))
        self.down_machines: set[int] = set()
        self.events_applied = 0

    def install(self, sim: "ClusterSimulator") -> None:
        """Register all failure and repair events with the simulator."""
        for failure in self.failures:
            if failure.machine_id not in {
                m.machine_id for m in sim.cluster.machines
            }:
                raise ValueError(
                    f"failure names unknown machine {failure.machine_id}"
                )
            sim.engine.schedule(
                failure.at,
                self._make_failure_callback(sim, failure),
                label=f"fail:m{failure.machine_id}",
            )
            if not math.isinf(failure.repair_at):
                sim.engine.schedule(
                    failure.repair_at,
                    self._make_repair_callback(sim, failure),
                    label=f"repair:m{failure.machine_id}",
                )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _make_failure_callback(self, sim: "ClusterSimulator", failure: MachineFailure):
        def _fail(engine, event) -> None:
            self.events_applied += 1
            self.down_machines.add(failure.machine_id)
            gpus = sim.cluster.gpus_on_machine(failure.machine_id)
            sim.mark_gpus_down(gpus)

        return _fail

    def _make_repair_callback(self, sim: "ClusterSimulator", failure: MachineFailure):
        def _repair(engine, event) -> None:
            self.events_applied += 1
            self.down_machines.discard(failure.machine_id)
            gpus = sim.cluster.gpus_on_machine(failure.machine_id)
            sim.mark_gpus_up(gpus)

        return _repair

