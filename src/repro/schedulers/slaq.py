"""SLAQ baseline: quality-driven scheduling (Section 8's emulation).

"We model SLAQ using bids by having all apps report their decrease in
loss value given the resource allocation.  The ARBITER assigns
resources to apps so as to maximize the aggregate decrease in loss."

The utility of a bundle is the predicted total loss reduction over the
next lease window.  SLAQ is placement-unaware (it never profiled
communication), so its predictions assume perfect linear scaling
(S = 1) and it draws concrete GPUs placement-blind — which is why it
lands at the bottom of the placement-score CDF (Figure 7) and demotes
old, slowly-converging jobs (poor fairness, Figure 5).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.cluster.topology import Gpu, ordered_sum
from repro.core.assignment import AdditiveWelfare, UtilityBid, drainable
from repro.core.auction import OfferCounts, greedy_solve
from repro.schedulers.base import InterAppScheduler
from repro.schedulers.tiresias import take_scattered
from repro.workload.app import App
from repro.workload.perf import app_effective_compute


#: An app's utility of ``(held, extra)`` compute, both in its own
#: effective units (see :func:`assign_by_effective_utility`).
EffectiveUtility = Callable[[float, float], float]


def assign_by_effective_utility(
    scheduler: InterAppScheduler,
    pool: Mapping[int, Sequence[Gpu]],
    utility_of: Callable[[App], EffectiveUtility],
) -> dict[str, list[Gpu]]:
    """Greedy marginal-utility split of the pool, drawn placement-blind.

    The allocation SLAQ and Optimus share: both price a bundle by the
    throughput it adds and never by where its GPUs sit, so each policy
    supplies only ``utility_of(app)`` — its utility of the app's held
    compute plus a bundle's, with the greedy scoring one machine per
    speed and step bound (:class:`_BundleUtility`) — and the bundles are
    concretised round-robin, largest grant first.

    Compute is measured in family-relative *effective* units: under a
    throughput matrix each app prices an offered machine by its own
    row, since work rate per GPU depends on the app's model family.
    One unit per app — mixed-family apps fall back to scalar speeds for
    *both* held compute and bundle increments, so the marginal
    comparison never mixes incommensurable units.
    """
    apps = scheduler.apps_with_demand()
    if not apps:
        return {}
    counts = OfferCounts.of_pool(pool)
    model = scheduler.perf_model()
    cluster = scheduler.sim.cluster
    bids = {}
    for app in apps:
        family = scheduler.family_of(app)
        held = (
            app_effective_compute(app, model)
            if family is not None
            else app.allocation().effective_size
        )
        utility = _BundleUtility(utility_of(app), held, model.machine_speeds_for(cluster, family))
        bids[app.app_id] = UtilityBid(utility, app.unmet_demand())
    assignment, _, _ = greedy_solve(counts, bids, AdditiveWelfare)
    # Placement-blind concretisation: neither policy reasons about
    # which machines the GPUs came from.
    pool_by_machine = drainable(pool)
    result: dict[str, list[Gpu]] = {}
    for app_id in sorted(assignment, key=lambda a: (-sum(assignment[a].values()), a)):
        want = sum(assignment[app_id].values())
        taken = take_scattered(pool_by_machine, want)
        if taken:
            result[app_id] = taken
    return result


class _BundleUtility:
    """``utility`` of a per-machine count bundle on top of ``held``.

    Neither policy looks past a bundle's effective compute, ``extra =
    ordered_sum(count * speed)`` in the bundle's order: the value is
    ``utility(held, extra)``.  One instance per app per round:
    ``utility`` must be pure over its lifetime.

    Machine classes (its ``row``, :class:`~repro.core.assignment.UtilityBid`): a
    machine the bundle lacks is summed *last*, so the bundle plus
    ``step`` GPUs there computes ``extra(bundle) + step * speed`` — the
    same float for every machine of one speed.  Its class is ``(speed,
    min(free, cap))``, the bound fixing the greedy's step set, and the
    row's probe adds the one term to the bundle's sum.  A machine in
    the bundle is its own class: a step there changes its term in place.
    """

    __slots__ = ("utility", "held", "speed_of")

    def __init__(
        self, utility: EffectiveUtility, held: float, speed_of: Mapping[int, float]
    ) -> None:
        self.utility = utility
        self.held = held
        self.speed_of = speed_of

    def __call__(self, bundle: Mapping[int, int]) -> float:
        speed_of = self.speed_of
        return self.utility(
            self.held, ordered_sum(c * speed_of.get(m, 1.0) for m, c in bundle.items())
        )

    def row(self, bundle: Mapping[int, int], remaining: Mapping[int, int], cap: float):
        speed_of = self.speed_of
        extra = ordered_sum(c * speed_of.get(m, 1.0) for m, c in bundle.items())

        def probe(machine_id: int, machine_class: tuple, step: int) -> float:
            return self.utility(self.held, extra + step * machine_class[0])

        own: list[int] = []
        classes: dict[tuple, list[int]] = {}
        for machine_id, free in remaining.items():
            if machine_id in bundle:
                own.append(machine_id)
                continue
            machine_class = (speed_of.get(machine_id, 1.0), free if free < cap else cap)
            members = classes.get(machine_class)
            if members is None:
                classes[machine_class] = [machine_id]
            else:
                members.append(machine_id)
        return own, classes, probe


class SlaqScheduler(InterAppScheduler):
    """Maximise aggregate loss reduction over the next lease window."""

    name = "slaq"

    @staticmethod
    def _job_snapshot(app: App) -> list[tuple]:
        """Frozen per-job facts needed to predict loss reduction.

        Shortest-remaining-work jobs first, mirroring the intra-app
        split: (remaining, cap, curve, iterations_done, iters_per_work,
        job_id, loss now).  The loss now is the same for every probe of
        the round, so it is read off the curve once here.
        """
        rows = []
        for job in app.active_jobs():
            curve = job.spec.loss_curve
            if curve is None:
                continue
            iters_done = job.iterations_done
            rows.append(
                (
                    job.remaining_work,
                    job.max_parallelism,
                    curve,
                    iters_done,
                    job.spec.total_iterations / job.spec.serial_work,
                    job.job_id,
                    curve.loss_at(iters_done),
                )
            )
        rows.sort(key=lambda row: (row[0], row[5]))
        return rows

    def _loss_reduction(
        self, snapshot: list[tuple], held_gpus: float, window: float, extra_gpus: float
    ) -> float:
        """Predicted loss decrease of an app over one lease window.

        Jobs split the app's hypothetical GPU total (existing + bundle,
        both in speed-weighted *effective* units) up to their
        parallelism caps, progress at the placement-blind rate ``G``
        work-units/minute, and each contributes its loss delta after
        that much extra work.
        """
        total_gpus = held_gpus + extra_gpus
        reduction = 0.0
        for remaining, cap, curve, iters_done, iters_per_work, _job_id, loss_now in snapshot:
            if total_gpus <= 0:
                break
            take = min(cap, total_gpus)
            total_gpus -= take
            extra_work = min(remaining, take * window)
            loss_then = curve.loss_at(iters_done + extra_work * iters_per_work)
            reduction += loss_now - loss_then
        return reduction

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        def loss_reduction(app: App) -> EffectiveUtility:
            snapshot = self._job_snapshot(app)
            window = self.sim.config.lease_minutes
            return lambda held, extra: self._loss_reduction(
                snapshot, held, window, extra
            )

        return assign_by_effective_utility(self, pool, loss_reduction)
