"""An ML application: a set of related hyper-parameter exploration jobs.

Section 2.1: an app is "a collection of one or more ML model training
jobs", submitted together, sharing an arrival time, and finished when
the best model has been identified.  The reproduction supports both
completion semantics the paper's text admits:

* ``ALL_JOBS`` — trace-replay mode (the default for the macro
  experiments): each job's work embeds its clairvoyant kill point, the
  app completes when every job has consumed its work.  This matches the
  simulator the paper describes in Section 8.1.
* ``FIRST_WINNER`` — target-accuracy mode: the app completes when its
  first job reaches its own work target (the winner); remaining jobs are
  killed.  This matches the ``min_j`` in Section 5.2's estimator and is
  used together with the live HyperBand / HyperDrive schedulers.

The app also owns the default *intra-app* GPU distribution: the paper's
AGENT hands an app-level allocation to the app scheduler, which splits
it among constituent jobs "in a placement sensitive manner" with stable
assignments (Section 5.2, step 4).
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Sequence

from repro.cluster.allocation import Allocation
from repro.cluster.placement import LocalityLevel, placement_level
from repro.cluster.topology import CapacityLike, Gpu, as_capacity, ordered_sum
from repro.workload.job import Job, JobState


class AppState(enum.Enum):
    """Lifecycle of an app."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


class CompletionSemantics(enum.Enum):
    """When does an app count as finished (see module docstring)."""

    ALL_JOBS = "all_jobs"
    FIRST_WINNER = "first_winner"


class App:
    """Runtime state of one ML application."""

    def __init__(
        self,
        app_id: str,
        arrival_time: float,
        jobs: Sequence[Job],
        semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS,
    ) -> None:
        if not jobs:
            raise ValueError(f"app {app_id!r} must contain at least one job")
        self.app_id = app_id
        self.arrival_time = float(arrival_time)
        self.jobs: tuple[Job, ...] = tuple(jobs)
        self.semantics = semantics
        self.state = AppState.PENDING
        self.finished_at: Optional[float] = None
        #: Optional intra-app hyper-parameter scheduler (HyperBand /
        #: HyperDrive); when set, the simulator consults it for kills
        #: at every scheduling round.
        self.tuner = None
        self._jobs_by_id = {job.job_id: job for job in self.jobs}
        if len(self._jobs_by_id) != len(self.jobs):
            raise ValueError(f"app {app_id!r} has duplicate job ids")
        #: Dirty-tracking epoch: bumped whenever a constituent job's
        #: discrete state changes (allocation installs, finish, kill) or
        #: an external writer calls :meth:`invalidate`.  The aggregate
        #: queries below and the cross-round valuation pipeline
        #: (:class:`~repro.core.fairness.AppValuationState`) memoise on
        #: it instead of rescanning the job list every call.
        self._epoch = 0
        self._alloc_cache: Optional[tuple[int, Allocation]] = None
        self._active_cache: Optional[tuple[int, tuple[Job, ...]]] = None
        self._demand_cache: Optional[tuple[int, int, int, int]] = None
        self._ideal_caps: tuple[int, ...] = ()
        self._ideal_cache: dict = {}
        for job in self.jobs:
            job.on_mutate = self.invalidate

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic counter of discrete state changes (see :meth:`invalidate`)."""
        return self._epoch

    def invalidate(self) -> None:
        """Bump the dirty-tracking epoch, dropping every memoised aggregate.

        Fired automatically by job mutators (``set_allocation`` /
        ``finish`` / ``kill``); callers that mutate job state through
        any other channel (e.g. a tuner rewriting ``parallelism_limit``)
        must invoke it themselves — that is the dirty-tracking contract
        the simulator honours after every tuner step.
        """
        self._epoch += 1

    # ------------------------------------------------------------------
    # Job views
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        """Look a constituent job up by id."""
        return self._jobs_by_id[job_id]

    def active_jobs(self) -> list[Job]:
        """Jobs still able to consume GPUs, in submission order.

        A fresh list over a tuple memoised on the epoch: a job stops
        being active only through ``finish`` / ``kill``, which bump it.
        """
        cached = self._active_cache
        if cached is None or cached[0] != self._epoch:
            active = tuple(job for job in self.jobs if job.is_active)
            cached = self._active_cache = (self._epoch, active)
        return list(cached[1])

    @property
    def num_jobs(self) -> int:
        """Total number of constituent jobs."""
        return len(self.jobs)

    # ------------------------------------------------------------------
    # Aggregates used by schedulers
    # ------------------------------------------------------------------
    def allocation(self) -> Allocation:
        """Union of all constituent jobs' current GPU allocations.

        Memoised on the dirty-tracking :attr:`epoch` — the result is an
        immutable :class:`Allocation`, so sharing it across callers
        within one epoch is safe.
        """
        cached = self._alloc_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        gpus: list[Gpu] = []
        for job in self.jobs:
            if job.allocation:
                gpus.extend(job.allocation.gpus)
        combined = Allocation(gpus)
        self._alloc_cache = (self._epoch, combined)
        return combined

    def demand(self) -> int:
        """Total GPUs the app could use right now (sum of job caps)."""
        return self.demand_pair()[0]

    def unmet_demand(self) -> int:
        """GPUs the app wants beyond what it currently holds (the
        arbiter asks every app, every round: one read of the memo)."""
        cached = self._demand_cache
        if cached is None or cached[0] != self._epoch:
            cached = self._count_demand()
        return cached[3]

    def demand_pair(self) -> tuple[int, int]:
        """(total demand, held-toward-demand) memoised on the epoch.

        Held counts each active job's GPUs up to its cap, so it is 0
        exactly when the app holds no GPU.
        """
        cached = self._demand_cache
        if cached is None or cached[0] != self._epoch:
            cached = self._count_demand()
        return cached[1], cached[2]

    def _count_demand(self) -> tuple[int, int, int, int]:
        """Recount and memoise ``(epoch, demand, held, unmet)``."""
        demand = 0
        held = 0
        for job in self.jobs:
            if job.is_active:
                cap = job.max_parallelism
                demand += cap
                size = job.allocation.size
                held += size if size < cap else cap
        self._demand_cache = (self._epoch, demand, held, max(0, demand - held))
        return self._demand_cache

    def total_work(self) -> float:
        """Sum of serial work across all jobs (the paper's W vector, aggregated)."""
        return ordered_sum(job.spec.serial_work for job in self.jobs)

    def remaining_work(self) -> float:
        """Serial work left across active jobs."""
        return ordered_sum(job.remaining_work for job in self.active_jobs())

    def gpu_time(self) -> float:
        """Total GPU-minutes consumed by all jobs so far (efficiency metric)."""
        return ordered_sum(job.gpu_time for job in self.jobs)

    def gpu_time_by_type(self) -> dict[str, float]:
        """GPU-minutes per GPU-generation name, aggregated over jobs."""
        totals: dict[str, float] = {}
        for job in self.jobs:
            for type_name, minutes in job.gpu_time_by_type.items():
                totals[type_name] = totals.get(type_name, 0.0) + minutes
        return dict(sorted(totals.items()))

    def attained_service(self) -> float:
        """Total attained GPU service (Tiresias' LAS metric)."""
        return ordered_sum(job.attained_service for job in self.jobs)

    def elapsed(self, now: float) -> float:
        """Wall-clock minutes since arrival."""
        return max(0.0, now - self.arrival_time)

    def mean_placement_score(self) -> float:
        """Time-weighted placement score over jobs that ever held GPUs."""
        scored = [job for job in self.jobs if job.allocated_time > 0.0]
        if not scored:
            return 0.0
        total_time = ordered_sum(job.allocated_time for job in scored)
        return ordered_sum(job.score_integral for job in scored) / total_time

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """Check the configured completion semantics against job states."""
        if self.semantics is CompletionSemantics.ALL_JOBS:
            return all(not job.is_active for job in self.jobs)
        return any(job.state == JobState.FINISHED for job in self.jobs)

    def ideal_running_time(self, capacity: CapacityLike) -> float:
        """T_id: running time alone on the whole cluster, ideal placement.

        ``capacity`` is a plain GPU count (the homogeneous model), a
        :class:`~repro.cluster.topology.ClusterCapacity`, or a
        per-family :class:`~repro.workload.perf.PerfCapacity`; running
        alone on a mixed fleet means running on the GPUs fastest *for
        each job's model family*, so each job's ideal rate is the summed
        family speedup of its top ``max_parallelism`` GPUs.  For
        ``FIRST_WINNER`` this is the paper's ``min_j W_j / G_ideal_j``
        (Section 5.2, step 5).  For ``ALL_JOBS`` the app finishes with
        its last job, and running alone it is limited both by its
        largest job and by total work over cluster capacity — under a
        matrix, the capacity with each GPU priced at its *best* speedup
        across the app's families (a mixed-family app alone would give
        each family the GPUs it runs fastest on), hence the max of the
        two lower bounds.

        Memoised per capacity on the tuple of job caps, the one input
        that can move between calls (work and families are run
        constants): an allocation install bumps the epoch but keeps the
        cached value.
        """
        caps = tuple([job.max_parallelism for job in self.jobs])
        if caps != self._ideal_caps:
            self._ideal_cache.clear()
            self._ideal_caps = caps
        cached = self._ideal_cache.get(capacity)
        if cached is not None:
            return cached
        cap = as_capacity(capacity)
        # ``fastest`` clamps to the GPUs the view has.
        per_job = [
            job.spec.serial_work / cap.view(job.family).fastest(job.max_parallelism)
            for job in self.jobs
        ]
        if self.semantics is CompletionSemantics.FIRST_WINNER:
            result = min(per_job)
        else:
            bound_job = max(per_job)
            total = cap.best_total(job.family for job in self.jobs)
            bound_capacity = self.total_work() / total
            result = max(bound_job, bound_capacity)
        self._ideal_cache[capacity] = result
        return result

    def finish_time_fairness(self, now: float, capacity: CapacityLike) -> float:
        """Realised rho for a finished app, estimated rho otherwise.

        For finished apps this is the evaluation metric of Figure 5a:
        actual shared running time over ideal running time.
        """
        t_id = self.ideal_running_time(capacity)
        if self.state is AppState.FINISHED and self.finished_at is not None:
            return (self.finished_at - self.arrival_time) / t_id
        return self.elapsed(now) / t_id if t_id > 0 else math.inf

    # ------------------------------------------------------------------
    # Intra-app GPU distribution (Section 5.2, step 4)
    # ------------------------------------------------------------------
    def distribute(
        self, granted: Allocation
    ) -> tuple[dict[str, Allocation], list[Gpu]]:
        """Split an app-level allocation among active jobs, stably.

        The distribution keeps existing job->GPU bindings whenever the
        GPU is still granted (minimising checkpoint churn), caps each
        job at its ``max_parallelism`` and hands each remaining GPU to
        the best claim among jobs whose placement-adjusted rate ``G * S``
        it raises (see :meth:`_JobFill.probe`).  A GPU that would *slow*
        every job down (e.g. a cross-rack straggler joining an NVLink
        pair of a placement-sensitive model) is declined — a rational
        app scheduler never accepts an allocation that hurts it, which
        is precisely the placement sensitivity the paper's bids express.

        Returns the delta ``(changes, declined)``: ``changes`` maps each
        active job whose allocation changes to its new one, in
        submission order (every other job keeps ``job.allocation``);
        ``declined`` lists, in gpu_id order, the granted GPUs no job
        takes, which the caller releases.

        Jobs that kept GPUs are probed for every pool GPU.  A GPU-less
        job's fill state is built only when it is probed: the GPU-less
        jobs are scanned in job-id order, and the scan stops at the
        first claim without a type mismatch — every GPU-less claim is
        ``(mismatch, 2, 0, job_id)``, so each later one loses that tie
        on job id.
        """
        granted_ids = granted.gpu_ids
        kept_by_job: list[tuple[Job, list[Gpu], bool]] = []
        headroom: list[tuple[Job, list[Gpu], int]] = []
        taken: set[int] = set()
        for job in self.active_jobs():
            cap = job.max_parallelism
            kept = [gpu for gpu in job.allocation if gpu.gpu_id in granted_ids][:cap]
            taken.update(gpu.gpu_id for gpu in kept)
            kept_by_job.append((job, kept, len(kept) == job.allocation.size))
            if len(kept) < cap:
                headroom.append((job, kept, cap))
        # Group the pool (in gpu_id order) by machine so gangs pick up
        # co-located GPUs; machines with the most *effective* compute
        # (count x speed — machines are internally homogeneous) first,
        # so faster generations go before slower ones of equal size.
        by_machine: dict[int, list[Gpu]] = {}
        for gpu in granted:
            if gpu.gpu_id not in taken:
                by_machine.setdefault(gpu.machine_id, []).append(gpu)
        if by_machine and headroom:
            self._fill(by_machine, headroom, taken)
        changes = {
            job.job_id: Allocation(gpus)
            for job, gpus, whole in kept_by_job
            if not whole or len(gpus) != len(job.allocation)
        }
        declined = [gpu for gpu in granted if gpu.gpu_id not in taken] if by_machine else []
        return changes, declined

    @staticmethod
    def _fill(
        by_machine: dict[int, list[Gpu]],
        headroom: list[tuple[Job, list[Gpu], int]],
        taken: set[int],
    ) -> None:
        """Hand the pool's GPUs to the jobs with headroom (see :meth:`distribute`).

        Appends each taken GPU to its job's list in ``headroom`` and its
        id to ``taken``.
        """
        machine_order = sorted(
            by_machine,
            key=lambda m: (-len(by_machine[m]) * by_machine[m][0].speed, m),
        )
        fills = [_JobFill(*entry) for entry in headroom if entry[1]]
        # GPU-less jobs in job-id order; each entry becomes its
        # ``_JobFill`` the first time it is probed.
        idle: list = sorted(
            (entry for entry in headroom if not entry[1]), key=lambda e: e[0].job_id
        )
        for machine_id in machine_order:
            for gpu in by_machine[machine_id]:
                if not fills and not idle:
                    return
                best_key = best = None
                for fill in fills:
                    key = fill.probe(gpu)
                    if key is not None and (best_key is None or key < best_key):
                        best_key, best = key, fill
                for index, fill in enumerate(idle):
                    if type(fill) is tuple:
                        fill = idle[index] = _JobFill(*fill)
                    key = fill.probe(gpu)
                    if key is None:
                        continue
                    if best_key is None or key < best_key:
                        best_key, best = key, fill
                    if not key[0]:
                        break
                if best is None:
                    continue
                taken.add(gpu.gpu_id)
                if not best.gpus:
                    idle.remove(best)
                    if not best.absorb(gpu):
                        fills.append(best)
                elif best.absorb(gpu):
                    fills.remove(best)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"App({self.app_id}, {self.state.value}, jobs={self.num_jobs}, "
            f"arrived={self.arrival_time:.1f})"
        )


class _JobFill:
    """One job's running fill state while :meth:`App.distribute` hands out GPUs.

    Keeps what ``job.rate_of(gpus + [gpu], cap=job.max_parallelism)``
    reads — the left-to-right effective sum, the rate, the racks /
    machines / ``(machine, slot)`` pairs spanned — so a probe is O(1)
    and bit-identical to that call: the set stays below the cap, so
    nothing is truncated and the new sum is ``eff + w``, the float
    ``ordered_sum`` yields; one more GPU moves the placement level to
    the worse of the current level and the boundary that GPU crosses.
    """

    def __init__(self, job: Job, gpus: list[Gpu], cap: int) -> None:
        self.job_id = job.job_id
        self.gpus = gpus  # the job's assignment list, appended to in place
        self.cap = cap
        self.speed_of = job.speed_of()
        self.slowdowns = job.model_profile.sensitivity.by_level
        self.affinity = job.spec.gpu_type
        self.eff = ordered_sum(map(self.speed_of, gpus))
        self.level = placement_level(gpus)
        self.rate = self.eff * self.slowdowns[self.level] if gpus else 0.0
        self.racks = {gpu.rack_id for gpu in gpus}
        self.machines = {gpu.machine_id for gpu in gpus}
        self.slots = {(gpu.machine_id, gpu.slot_id) for gpu in gpus}

    def probe(self, gpu: Gpu) -> Optional[tuple]:
        """The job's claim on one more GPU; ``None`` (a decline) unless its rate rises.

        Claims order by GPU-type affinity match, then machine-local,
        rack-local, the emptiest job — which reassembles whole-machine
        gangs from machine-grouped grants instead of interleaving slot
        pairs — and the job id.
        """
        eff = self.eff + self.speed_of(gpu)
        if not self.gpus:
            level, locality = LocalityLevel.SLOT, 2
        elif gpu.rack_id not in self.racks:
            level, locality = LocalityLevel.CLUSTER, 2
        elif gpu.machine_id not in self.machines:
            level, locality = max(self.level, LocalityLevel.RACK), 1
        elif (gpu.machine_id, gpu.slot_id) not in self.slots:
            level, locality = max(self.level, LocalityLevel.MACHINE), 0
        else:
            level, locality = self.level, 0
        rate = eff * self.slowdowns[level]
        if rate - self.rate <= 1e-12:
            return None
        self._next = (eff, rate, level)
        mismatch = self.affinity is not None and gpu.gpu_type.name != self.affinity
        return (mismatch, locality, len(self.gpus), self.job_id)

    def absorb(self, gpu: Gpu) -> bool:
        """Take the GPU just probed; True when the job reached its cap."""
        self.eff, self.rate, self.level = self._next
        self.gpus.append(gpu)
        self.racks.add(gpu.rack_id)
        self.machines.add(gpu.machine_id)
        self.slots.add((gpu.machine_id, gpu.slot_id))
        return len(self.gpus) >= self.cap
