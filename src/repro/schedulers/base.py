"""Inter-app scheduler interface.

A scheduler receives the pool of available GPUs whenever leases expire
or jobs complete, and returns who gets what.  The simulator handles the
mechanics (leases, preemption overhead, job events); the scheduler is
pure policy.  This is the seam at which Themis and every baseline plug
into the same market harness, as the paper's evaluation does.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.cluster.topology import Gpu
from repro.core.fairness import AppValuationState, FairnessEstimator
from repro.workload.app import App
from repro.workload.perf import app_family

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.simulator import ClusterSimulator


class InterAppScheduler(abc.ABC):
    """Base class for all cross-app scheduling policies."""

    #: Human-readable policy name used in reports and figures.
    name: str = "base"

    def __init__(self) -> None:
        self.sim: Optional["ClusterSimulator"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, simulator: "ClusterSimulator") -> None:
        """Attach to a simulator before the run starts."""
        self.sim = simulator
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses to build per-run state (estimators, RNGs)."""

    def on_app_arrival(self, now: float, app: App) -> None:
        """Called when an app becomes active."""

    def on_app_finish(self, now: float, app: App) -> None:
        """Called when an app completes."""

    # ------------------------------------------------------------------
    # The policy decision
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def assign(
        self, now: float, pool: Mapping[int, Sequence[Gpu]]
    ) -> dict[str, list[Gpu]]:
        """Decide ownership of the pooled GPUs.

        ``pool`` is grouped by machine: machine id -> its pooled GPUs
        sorted by ``(slot_id, gpu_id)``, in ascending machine id
        (:meth:`~repro.core.leases.LeaseManager.pool_for_auction`).  It
        is read-only: a policy that drains it works on
        :func:`~repro.core.assignment.drainable`'s copy.

        Returns a mapping app_id -> GPUs drawn from ``pool``.  GPUs left
        out of the mapping stay with their incumbent holder (lease
        renewal) or remain free.  Assignments must be disjoint and must
        not exceed the pool; the simulator enforces both.
        """

    # ------------------------------------------------------------------
    # Common helpers
    # ------------------------------------------------------------------
    def active_apps(self) -> dict[str, App]:
        """The currently active apps, keyed by id."""
        if self.sim is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a simulator")
        return self.sim.active_apps

    def apps_with_demand(self) -> list[App]:
        """Active apps that can still use more GPUs, in id order."""
        return [
            app
            for app_id, app in sorted(self.active_apps().items())
            if app.unmet_demand() > 0
        ]

    def perf_model(self):
        """The bound run's performance model (scalar when unbound)."""
        if self.sim is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a simulator")
        return self.sim.perf_model

    def machine_speeds_for(self, app: App) -> Mapping[int, float]:
        """Machine speeds as seen by one app's model family (read-only).

        Under the scalar model (or for mixed-family apps) this is the
        scalar speed map; under a throughput matrix each app sees its
        own family's row, so baseline fills drain the machines that are
        fast *for that app* first.  The returned mapping is the perf
        model's shared one (:meth:`ThroughputMatrixModel.machine_speeds_for`) — it
        is called once per app per round on baseline hot paths, so
        callers must treat it as read-only.
        """
        return self.perf_model().machine_speeds_for(
            self.sim.cluster, self.family_of(app)
        )

    def family_of(self, app: App) -> Optional[str]:
        """The app's model family where the run's perf model reads one.

        ``None`` for mixed-family apps and under a scalar model — which
        ignores the family, so the walk over the app's jobs that finds
        it is skipped.
        """
        return None if self.perf_model().is_scalar else app_family(app)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class CarvingScheduler(InterAppScheduler):
    """A policy that prices bundles by carving them across an app's jobs.

    Keeps one cross-round :class:`~repro.core.fairness.AppValuationState`
    per active app in :attr:`states` — created on arrival, dropped on
    finish — over one estimator wired to the run's profiler, so a
    bundle is carved once per (job order, shape) and every carve shows
    in ``estimator.carve_count`` and the ``carve`` phase.  Themis' AGENTs
    wrap these states; :attr:`packing` fixes their kernel (Gandiva's
    packing utility instead of the rho kernels).
    """

    #: Build the states with Gandiva's packing-utility kernel.
    packing = False

    def __init__(self) -> None:
        super().__init__()
        self.estimator: Optional[FairnessEstimator] = None
        self.states: dict[str, AppValuationState] = {}

    def on_bind(self) -> None:
        assert self.sim is not None
        self.estimator = FairnessEstimator(
            self.sim.cluster,
            semantics=self.sim.config.semantics,
            perf_model=self.sim.perf_model,
        )
        self.estimator.profiler = self.sim.profiler
        self.states = {}

    def on_app_arrival(self, now: float, app: App) -> None:
        assert self.estimator is not None
        self.states[app.app_id] = AppValuationState(
            app, self.estimator, packing=self.packing
        )

    def on_app_finish(self, now: float, app: App) -> None:
        self.states.pop(app.app_id, None)
