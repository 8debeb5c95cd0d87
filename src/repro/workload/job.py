"""Runtime state of one ML training job.

A job is the paper's unit of gang-scheduled work: a set of synchronous
SGD tasks that collectively need ``max_parallelism`` GPUs at most.  We
measure work in *serial GPU-minutes* (Section 5.2 measures it in
GPU-hours): with ``G`` GPUs placed with slowdown ``S`` the paper's
running time ``serial / (G * S)`` is equivalent to a progress rate of
``G * S`` work-units per minute.

The job tracks everything the schedulers and metrics need:

* remaining work and completion estimates,
* attained GPU service (Tiresias' LAS metric and the GPU-time metric of
  Figures 4b/9b — GPU-time accrues during checkpoint/restore overhead
  too, which is how short leases cost efficiency),
* a time-weighted placement-score integral (Figure 7),
* loss-curve position (SLAQ's and HyperDrive's signal).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.placement import slowdown
from repro.cluster.topology import Gpu
from repro.hyperparam.curves import LossCurve
from repro.workload.models import ModelProfile, effective_gpus, get_model
from repro.workload.perf import DEFAULT_PERF_MODEL


class JobState(enum.Enum):
    """Lifecycle of a job."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    KILLED = "killed"


#: The states in which a job can still consume GPUs.  A module-level
#: tuple: ``Job.is_active`` runs about a million times per replay, and
#: this test is the cheapest spelling (a frozenset pays the enum's
#: Python-level ``__hash__``; an inline tuple rebuilds itself per call).
_ACTIVE_STATES = (JobState.PENDING, JobState.RUNNING)


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a job, as read from a trace.

    ``serial_work`` is the total serial GPU-minutes to the job's end
    point — either convergence to target or the clairvoyant kill point
    the trace embeds (Section 8.1's simulator assumes clairvoyance of
    the number of iterations each exploration runs).
    """

    job_id: str
    model: str
    serial_work: float
    max_parallelism: int
    total_iterations: int = 1000
    loss_curve: Optional[LossCurve] = None
    #: Optional GPU-generation affinity (a :class:`~repro.cluster.topology.GpuType`
    #: name).  A soft preference: the intra-app distributor steers
    #: matching GPUs to this job first, but any GPU still works (at its
    #: own speed).
    gpu_type: Optional[str] = None

    def __post_init__(self) -> None:
        if self.serial_work <= 0:
            raise ValueError(f"serial_work must be > 0, got {self.serial_work}")
        if self.max_parallelism <= 0:
            raise ValueError(f"max_parallelism must be > 0, got {self.max_parallelism}")
        if self.total_iterations <= 0:
            raise ValueError(f"total_iterations must be > 0, got {self.total_iterations}")


@dataclass
class Job:
    """Mutable runtime state; progress is integrated between events.

    The simulator is the only writer: it calls :meth:`advance_to` before
    every state change and :meth:`set_allocation` whenever the GPU set
    changes.  All other components read.
    """

    spec: JobSpec
    state: JobState = JobState.PENDING
    remaining_work: float = field(default=0.0)
    allocation: Allocation = field(default_factory=Allocation)
    last_update: float = 0.0
    overhead_remaining: float = 0.0
    gpu_time: float = 0.0
    attained_service: float = 0.0
    score_integral: float = 0.0
    allocated_time: float = 0.0
    #: GPU-minutes accrued per GPU-generation name (device time, like
    #: :attr:`gpu_time`, split by type for the heterogeneity reports).
    gpu_time_by_type: dict = field(default_factory=dict)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Optional tighter parallelism cap set by the app scheduler
    #: (HyperDrive's priority mechanism); ``None`` means the spec cap.
    parallelism_limit: Optional[int] = None
    #: Dirty-tracking hook, wired by the owning :class:`~repro.workload.app.App`:
    #: fired whenever the job's *discrete* state changes (allocation set,
    #: finish, kill) so epoch-cached app aggregates and cross-round
    #: valuation snapshots invalidate automatically.  Continuous progress
    #: (:meth:`advance_to`) deliberately does not fire it — a job that can
    #: progress holds GPUs, and a valuation state re-reads the remaining
    #: work of an app holding GPUs at every refresh (README: the
    #: valuation contract).
    on_mutate: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    #: The performance model governing this job's progress rate.  Wired
    #: by the simulator at setup (all jobs of a run share one model);
    #: ``None`` means the scalar default.  The rate weighs each GPU by
    #: the job's *family* row of the
    #: :class:`~repro.workload.perf.ThroughputMatrixModel`, or by the
    #: generation's scalar speed when the family has no row.
    perf_model: Optional[object] = field(default=None, repr=False, compare=False)
    #: The held allocation's accrual constants, bound once per allocation
    #: object: ``(allocation, held, effective_size, score,
    #: type_count_items, rate)`` — see :meth:`_accrual`.
    _accrual_memo: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.remaining_work == 0.0:
            self.remaining_work = self.spec.serial_work

    # ------------------------------------------------------------------
    # Static lookups
    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        """The job's trace identifier."""
        return self.spec.job_id

    @property
    def model_profile(self) -> ModelProfile:
        """The model profile describing this job's placement sensitivity."""
        return get_model(self.spec.model)

    @property
    def family(self) -> str:
        """The job's architecture family (the throughput-matrix row key)."""
        return get_model(self.spec.model).family

    @property
    def max_parallelism(self) -> int:
        """Upper bound on GPUs the job can use (the paper's G_ideal).

        The app scheduler may lower it at runtime via
        :attr:`parallelism_limit` (HyperDrive demotes "promising" jobs).
        """
        if self.parallelism_limit is None:
            return self.spec.max_parallelism
        return max(1, min(self.spec.max_parallelism, self.parallelism_limit))

    @property
    def is_active(self) -> bool:
        """True while the job can still consume GPUs."""
        return self.state in _ACTIVE_STATES

    # ------------------------------------------------------------------
    # Progress model
    # ------------------------------------------------------------------
    def rate(self) -> float:
        """Work units consumed per minute with the current allocation.

        The paper's placement-sensitive scaling generalised to mixed
        GPU generations: ``E * S(placement)`` where ``E`` is the
        speed-weighted count of the fastest ``max_parallelism`` GPUs
        held (``= G`` on a homogeneous cluster).  Under a throughput
        matrix the per-GPU weights come from the job's *family* row, so
        two jobs holding the same GPUs can progress at different rates.
        """
        return self._accrual()[5]

    def _accrual(self) -> tuple:
        """``(allocation, held, effective_size, score, type_count_items, rate)``.

        Every field is a pure function of the (immutable) allocation,
        the spec cap (:meth:`rate_of` never reads
        :attr:`parallelism_limit`) and the run-constant perf model, so
        the tuple is rebuilt only when :attr:`allocation` is a different
        object; :meth:`advance_to` reads it every simulated event the
        job holds GPUs.
        """
        allocation = self.allocation
        memo = self._accrual_memo
        if memo is not None and memo[0] is allocation:
            return memo
        held = allocation.size
        if held:
            memo = (
                allocation,
                held,
                allocation.effective_size,
                allocation.score(),
                allocation.type_count_items(),
                self.rate_of(allocation.gpus),
            )
        else:
            memo = (allocation, 0, 0.0, 0.0, (), 0.0)
        self._accrual_memo = memo
        return memo

    def speed_of(self) -> Callable[[Gpu], float]:
        """The per-GPU throughput factor this job sees, as a lookup
        (:meth:`~repro.workload.perf.ThroughputMatrixModel.gpu_speed_of`):
        the one spelling :meth:`rate_of` and the intra-app distributor's
        fill state share.
        """
        return (self.perf_model or DEFAULT_PERF_MODEL).gpu_speed_of(self.family)

    def rate_of(self, gpus, cap: Optional[int] = None) -> float:
        """Progress rate of a hypothetical GPU set (pure, unmemoised).

        The single rate kernel shared by :meth:`rate` (``cap=None`` —
        the spec's parallelism) and the migration policy's candidate
        scoring (the runtime :attr:`max_parallelism`); the intra-app
        distributor keeps the same sum running per job (see
        :meth:`speed_of`), so all three agree on what the perf model
        says.
        """
        gpus = list(gpus)
        if not gpus:
            return 0.0
        if cap is None:
            cap = self.spec.max_parallelism
        effective = effective_gpus(gpus, cap=cap, speed_of=self.speed_of())
        if effective <= 0.0:
            return 0.0
        return effective * slowdown(self.model_profile.sensitivity, gpus)

    def advance_to(self, now: float) -> None:
        """Integrate progress, GPU-time and score from ``last_update`` to ``now``.

        Checkpoint/restore overhead is consumed first: during overhead
        the job holds (and bills) its GPUs but makes no progress, which
        is how lease churn shows up in the GPU-time efficiency metric.
        """
        last = self.last_update
        if now < last - 1e-9:
            raise ValueError(
                f"job {self.job_id}: time moved backwards "
                f"({last:.4f} -> {now:.4f})"
            )
        dt = now - last
        self.last_update = now
        if dt <= 0.0 or self.state not in _ACTIVE_STATES:
            return
        _allocation, held, effective_size, score, type_items, rate = self._accrual()
        if held > 0:
            self.gpu_time += held * dt
            # Attained service is measured in *effective* compute so the
            # LAS baseline (Tiresias) ranks a K80-hour below a V100-hour;
            # identical to held * dt on homogeneous clusters.
            self.attained_service += effective_size * dt
            self.score_integral += score * dt
            self.allocated_time += dt
            by_type = self.gpu_time_by_type
            for type_name, count in type_items:
                by_type[type_name] = by_type.get(type_name, 0.0) + count * dt
        productive = dt
        if self.overhead_remaining > 0.0:
            consumed = min(self.overhead_remaining, productive)
            self.overhead_remaining -= consumed
            productive -= consumed
        if productive > 0.0 and held > 0:
            self.remaining_work = max(0.0, self.remaining_work - rate * productive)

    def set_allocation(self, now: float, allocation: Allocation, overhead: float = 0.0) -> None:
        """Replace the GPU set; caller must have advanced the job to ``now``.

        ``overhead`` minutes of checkpoint/restore penalty are charged
        only when the GPU set actually changes, so a lease renewed to
        the same job is seamless (Section 5's lease semantics).
        """
        if abs(now - self.last_update) > 1e-9:
            raise ValueError(
                f"job {self.job_id}: set_allocation at t={now} but job advanced to "
                f"t={self.last_update}; call advance_to(now) first"
            )
        if allocation == self.allocation:
            return
        self.allocation = allocation
        if overhead > 0.0:
            self.overhead_remaining = overhead
        if allocation.size > 0 and self.state == JobState.PENDING:
            self.state = JobState.RUNNING
            if self.started_at is None:
                self.started_at = now
        if self.on_mutate is not None:
            self.on_mutate()

    def eta(self, now: float) -> float:
        """Absolute completion time under the current allocation.

        ``inf`` when the job holds no GPUs — which is what makes a
        starved app's finish-time fairness metric unbounded (Section 5.1).
        """
        if self.remaining_work <= 0.0:
            return now
        rate = self.rate()
        if rate <= 0.0:
            return math.inf
        return now + self.overhead_remaining + self.remaining_work / rate

    def finish(self, now: float) -> None:
        """Mark the job finished (all work consumed)."""
        if self.remaining_work > 1e-6:
            raise ValueError(
                f"job {self.job_id} finished with {self.remaining_work:.4f} work left"
            )
        self.remaining_work = 0.0
        self.state = JobState.FINISHED
        self.finished_at = now
        self.allocation = Allocation()
        if self.on_mutate is not None:
            self.on_mutate()

    def kill(self, now: float) -> None:
        """Terminate the job early (hyper-parameter exploration pruning)."""
        if not self.is_active:
            raise ValueError(f"job {self.job_id} is already {self.state.value}")
        self.state = JobState.KILLED
        self.finished_at = now
        self.allocation = Allocation()
        if self.on_mutate is not None:
            self.on_mutate()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def work_done(self) -> float:
        """Serial GPU-minutes of work completed so far."""
        return self.spec.serial_work - self.remaining_work

    @property
    def fraction_done(self) -> float:
        """Completed fraction of the job's total work, in [0, 1]."""
        return self.work_done / self.spec.serial_work

    @property
    def iterations_done(self) -> float:
        """Iterations completed (work maps linearly onto iterations)."""
        return self.spec.total_iterations * self.fraction_done

    def current_loss(self) -> float:
        """Training loss at the current iteration (SLAQ / HyperDrive signal)."""
        curve = self.spec.loss_curve
        if curve is None:
            raise ValueError(f"job {self.job_id} has no loss curve attached")
        return curve.loss_at(self.iterations_done)

    def mean_placement_score(self) -> float:
        """Time-weighted average placement score while holding GPUs (Figure 7)."""
        if self.allocated_time <= 0.0:
            return 0.0
        return self.score_integral / self.allocated_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id}, {self.state.value}, model={self.spec.model}, "
            f"left={self.remaining_work:.1f}/{self.spec.serial_work:.1f}, "
            f"gpus={self.allocation.size})"
        )
