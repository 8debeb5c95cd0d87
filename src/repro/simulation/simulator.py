"""Cluster simulator: replays a trace under an inter-app scheduler.

This is the reproduction's equivalent of the paper's event-based
simulator (Section 8.1).  The mechanics mirror the Themis runtime:

* every GPU grant carries a **lease**; expired leases put the GPU into
  the next auction pool but the incumbent keeps running until the GPU
  is actually reassigned, so a renewal to the same job is seamless,
* **scheduling rounds** fire whenever GPUs become available (arrivals
  onto a non-full cluster, job/app completions, lease expiries), and
  the installed :class:`InterAppScheduler` decides who gets the pool,
* allocation changes charge a **checkpoint/restore overhead** during
  which the job holds (and bills) its GPUs without progress — the
  35-60 s cost measured in Section 8.3.2, and the reason very short
  leases hurt efficiency (Figure 4c),
* per-app **timelines**, contention samples and utilisation integrals
  are recorded for the evaluation figures.

The scheduler interface is duck-typed: anything with ``assign(now,
pool) -> dict[app_id, list[Gpu]]`` plus optional arrival/finish hooks
works, ``pool`` being the round's GPUs grouped by machine
(:meth:`~repro.core.leases.LeaseManager.pool_for_auction`); see
:mod:`repro.schedulers.base`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Optional, Sequence, Union

from repro.cluster.allocation import Allocation
from repro.cluster.topology import Cluster, Gpu, ordered_sum
from repro.core.leases import Lease, LeaseManager
from repro.obs import Observability, ObsConfig
from repro.obs.metrics import fragmentation_index, percentile_nearest_rank
from repro.obs.reservoir import ReservoirSeries
from repro.simulation.engine import Event, EventKind, SimulationEngine, SimulationError
from repro.workload.app import App, AppState, CompletionSemantics
from repro.workload.job import Job
from repro.workload.perf import DEFAULT_PERF_MODEL, ThroughputMatrixModel
from repro.workload.trace import Trace

#: Work below this threshold counts as finished (floating-point dust).
_WORK_EPSILON = 1e-6


def _same_gpus(a: Mapping[int, Sequence[Gpu]], b: Mapping[int, Sequence[Gpu]]) -> bool:
    """Whether two pools grouped by machine hold the same GPUs."""
    return {gpu.gpu_id for gpus in a.values() for gpu in gpus} == {
        gpu.gpu_id for gpus in b.values() for gpu in gpus
    }


@dataclass(frozen=True)
class SimulationConfig:
    """Runtime knobs shared by all schedulers under comparison."""

    lease_minutes: float = 20.0
    restart_overhead_minutes: float = 0.5
    semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS
    max_minutes: Optional[float] = None
    record_timeline: bool = False
    #: Cap on the retained entries of every per-round record (contention,
    #: timeline, fragmentation, starvation, ``per_round`` solver stats);
    #: ``None`` keeps every sample — unbounded on long traces.
    downsample: Optional[int] = None
    #: Speed-aware job migration (off by default): after each round,
    #: jobs whose whole gang could run strictly faster on currently-free
    #: GPUs — as judged by the run's performance model, so a throughput
    #: matrix makes the decision family-relative — are traded to the
    #: faster (possibly smaller) gang, repaying the restart overhead.
    migration: bool = False
    #: Minimum candidate-rate over current-rate ratio a migration must
    #: clear; > 1 so the overhead repayment cannot be gamed by noise.
    migration_min_gain: float = 1.25

    def __post_init__(self) -> None:
        if self.lease_minutes <= 0:
            raise ValueError(f"lease_minutes must be > 0, got {self.lease_minutes}")
        if self.restart_overhead_minutes < 0:
            raise ValueError("restart_overhead_minutes must be >= 0")
        if self.downsample is not None and self.downsample < 2:
            raise ValueError(f"downsample must be >= 2, got {self.downsample}")
        if self.migration_min_gain < 1.0:
            raise ValueError(
                f"migration_min_gain must be >= 1.0, got {self.migration_min_gain}"
            )

    def to_json(self) -> dict:
        """Plain-JSON dict (enums by value) for the result cache."""
        data = asdict(self)
        data["semantics"] = self.semantics.value
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "SimulationConfig":
        """Inverse of :meth:`to_json`, tolerant of schema growth.

        Unknown keys (written by a newer build) are ignored and missing
        new fields take their defaults, so old cache entries and result
        payloads deserialise instead of raising on every schema change.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        if "semantics" in kwargs:
            kwargs["semantics"] = CompletionSemantics(kwargs["semantics"])
        return cls(**kwargs)


@dataclass(frozen=True)
class AppStats:
    """Final per-app measurements extracted after a run."""

    app_id: str
    arrival: float
    finished_at: Optional[float]
    completion_time: Optional[float]
    ideal_time: float
    rho: float
    gpu_time: float
    attained_service: float
    mean_placement_score: float
    num_jobs: int
    total_work: float
    #: GPU-minutes split by GPU-generation name (heterogeneity reports).
    gpu_time_by_type: dict = field(default_factory=dict)
    #: Longest stretch of scheduling rounds the app sat with unmet
    #: demand and zero GPUs (the starvation metric's per-app maximum).
    starved_rounds_max: int = 0

    def to_json(self) -> dict:
        """Plain-JSON dict; all fields are scalars or plain dicts already."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "AppStats":
        """Inverse of :meth:`to_json`, tolerant of schema growth.

        Unknown keys are ignored and missing new fields (e.g. payloads
        written before ``gpu_time_by_type`` existed) take their
        defaults, so schema growth does not invalidate old caches.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


@dataclass
class SimulationResult:
    """Everything a run produced, ready for the metrics layer."""

    scheduler_name: str
    cluster_name: str
    cluster_gpus: int
    config: SimulationConfig
    apps: list[App]
    app_stats: list[AppStats]
    makespan: float
    completed: bool
    peak_contention: float
    contention_samples: list[tuple[float, float]]
    timeline: list[tuple[float, str, int]]
    num_rounds: int
    events_processed: int
    total_gpu_time: float
    #: Cluster composition and consumption per GPU-generation name;
    #: single-entry ("default") on homogeneous clusters.
    cluster_gpus_by_type: dict = field(default_factory=dict)
    gpu_time_by_type: dict = field(default_factory=dict)
    #: Gang swaps performed by the speed-aware migration policy
    #: (always 0 with ``SimulationConfig.migration`` off).
    num_migrations: int = 0
    #: Per-round ``(now, fragmentation)`` samples: free-GPU dispersion
    #: across machines (1 - Herfindahl index of per-machine free
    #: counts); machines are single-generation, so this doubles as the
    #: cross-generation dispersion.  Recorded for every scheduler.
    fragmentation_samples: list = field(default_factory=list)
    #: Per-round ``(now, p99_rounds_waiting)`` samples: nearest-rank
    #: p99 over active apps' rounds-since-last-allocation (apps with
    #: unmet demand and zero GPUs).  Recorded for every scheduler.
    starvation_samples: list = field(default_factory=list)
    #: Per-phase ``{name: {"seconds", "self_seconds", "calls"}}`` wall
    #: breakdown (payloads older than the self-time column lack that
    #: key); empty unless the run was profiled (``--profile``).
    profile: dict = field(default_factory=dict)
    #: Instrumentation: ``placement`` (the install path's granted vs.
    #: installed counters, every scheduler) and, for schedulers with an
    #: arbiter, the serialised ``RoundStats`` (solver moves, pair
    #: scores, moves the payment re-solves resumed past, valuation
    #: probes, the payments' ledger):
    #: ``"rounds", "multi_bidder_rounds", "totals", "per_round"``.
    #: Only ``per_round`` is downsample-thinned.
    round_stats: dict = field(default_factory=dict)

    def stats_by_app(self) -> dict[str, AppStats]:
        """Index the per-app stats by app id."""
        return {stats.app_id: stats for stats in self.app_stats}

    def rhos(self, finished_only: bool = True) -> list[float]:
        """Finish-time fairness values across apps (Figure 5a/5b input)."""
        values = []
        for stats in self.app_stats:
            if finished_only and stats.finished_at is None:
                continue
            values.append(stats.rho)
        return values

    def completion_times(self) -> list[float]:
        """App completion times for finished apps (Figure 6 input)."""
        return [
            stats.completion_time
            for stats in self.app_stats
            if stats.completion_time is not None
        ]

    def placement_scores(self) -> list[float]:
        """Mean placement scores per app (Figure 7 input)."""
        return [
            stats.mean_placement_score
            for stats in self.app_stats
            if stats.mean_placement_score > 0.0
        ]

    def to_json(self) -> dict:
        """JSON-safe dict carrying everything the metrics layer reads.

        The live :class:`~repro.workload.app.App` objects are runtime
        state, not measurements — they are intentionally excluded, and
        :meth:`from_json` restores ``apps=[]``.  Every metric function
        (rhos, JCTs, placement scores, utilisation, timelines) works off
        ``app_stats`` and the scalar/series fields, all of which
        round-trip losslessly.
        """
        return {
            "scheduler_name": self.scheduler_name,
            "cluster_name": self.cluster_name,
            "cluster_gpus": self.cluster_gpus,
            "config": self.config.to_json(),
            "app_stats": [stats.to_json() for stats in self.app_stats],
            "makespan": self.makespan,
            "completed": self.completed,
            "peak_contention": self.peak_contention,
            "contention_samples": [list(pair) for pair in self.contention_samples],
            "timeline": [list(record) for record in self.timeline],
            "num_rounds": self.num_rounds,
            "events_processed": self.events_processed,
            "total_gpu_time": self.total_gpu_time,
            "cluster_gpus_by_type": dict(self.cluster_gpus_by_type),
            "gpu_time_by_type": dict(self.gpu_time_by_type),
            "num_migrations": self.num_migrations,
            "fragmentation_samples": [
                list(pair) for pair in self.fragmentation_samples
            ],
            "starvation_samples": [list(pair) for pair in self.starvation_samples],
            "profile": dict(self.profile),
            "round_stats": dict(self.round_stats),
        }

    def digest(self) -> str:
        """sha256 of the byte-stable result JSON, instrumentation excluded.

        ``round_stats`` (solver work counters) and ``profile``
        (wall-clock timings) are observability, not results; everything
        else must match byte for byte between two replays of one trace.
        This is what ``tests/golden_sim.json`` pins per replay cell.
        """
        payload = self.to_json()
        del payload["round_stats"], payload["profile"]
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, data: Mapping) -> "SimulationResult":
        """Rebuild a result from :meth:`to_json` output (``apps`` empty).

        Missing new keys default (old payloads stay loadable) and
        unknown keys are ignored, mirroring the dataclass round-trips.
        """
        return cls(
            scheduler_name=data["scheduler_name"],
            cluster_name=data["cluster_name"],
            cluster_gpus=data["cluster_gpus"],
            config=SimulationConfig.from_json(data["config"]),
            apps=[],
            app_stats=[AppStats.from_json(s) for s in data["app_stats"]],
            makespan=data["makespan"],
            completed=data["completed"],
            peak_contention=data["peak_contention"],
            contention_samples=[tuple(pair) for pair in data["contention_samples"]],
            timeline=[tuple(record) for record in data["timeline"]],
            num_rounds=data["num_rounds"],
            events_processed=data["events_processed"],
            total_gpu_time=data["total_gpu_time"],
            cluster_gpus_by_type=dict(data.get("cluster_gpus_by_type", {})),
            gpu_time_by_type=dict(data.get("gpu_time_by_type", {})),
            num_migrations=data.get("num_migrations", 0),
            fragmentation_samples=[
                tuple(pair) for pair in data.get("fragmentation_samples", [])
            ],
            starvation_samples=[
                tuple(pair) for pair in data.get("starvation_samples", [])
            ],
            profile=dict(data.get("profile", {})),
            round_stats=dict(data.get("round_stats", {})),
        )


class ClusterSimulator:
    """Drives one scheduler over one trace on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Union[Trace, Sequence[App]],
        scheduler,
        config: Optional[SimulationConfig] = None,
        perf_model: Optional[ThroughputMatrixModel] = None,
        obs: Union[Observability, ObsConfig, None] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or SimulationConfig()
        self.scheduler = scheduler
        if obs is None:
            obs = Observability()
        elif isinstance(obs, ObsConfig):
            obs = obs.build()
        #: Live observability bundle; schedulers read it at bind time
        #: to wire the tracer/profiler into the arbiter and auction.
        self.obs = obs
        self.tracer = obs.tracer
        self.profiler = obs.profiler
        if perf_model is None:
            # A trace that carries a measured throughput matrix brings
            # its own model; explicit arguments override it.
            perf_model = getattr(workload, "perf_model", None)
            if callable(perf_model):
                perf_model = perf_model()
        self.perf_model: ThroughputMatrixModel = (
            perf_model if perf_model is not None else DEFAULT_PERF_MODEL
        )
        #: Per-family (or shared scalar) fastest-N capacity views —
        #: what T_id and the final rho report divide by.
        self.capacity = self.perf_model.capacity_for(cluster)
        if isinstance(workload, Trace):
            self.apps = workload.instantiate(self.config.semantics)
        else:
            self.apps = list(workload)
        if not self.apps:
            raise ValueError("workload contains no apps")
        for app in self.apps:
            for job in app.jobs:
                job.perf_model = self.perf_model
        self.num_migrations = 0
        self._apps_by_id = {app.app_id: app for app in self.apps}
        self.engine = SimulationEngine()
        self.leases = LeaseManager(self.cluster.gpus)
        self.active_apps: dict[str, App] = {}
        #: Active jobs currently holding GPUs — the only jobs whose state
        #: can drift between events, so the advance loop visits just
        #: these.  (A zero-GPU job integrates to a no-op: progress,
        #: GPU-time and overhead consumption are all linear in held
        #: time, so deferring its ``advance_to`` is exact.)  Every path
        #: that changes an allocation calls :meth:`_track_held_job` and
        #: every finish or kill pops the job, so no entry is inactive;
        #: the per-round audit (``tests/helpers.py::audit_freshness``)
        #: checks it.
        self._held_jobs: dict[str, Job] = {}
        self._job_events: dict[str, Event] = {}
        self._job_owner: dict[str, App] = {}
        self._auction_pending = False
        #: ``(now, pool)`` of the last round run, for the same-instant
        #: guard.
        self._last_round: tuple[float, Mapping[int, Sequence[Gpu]]] | None = None
        self._down_gpu_ids: set[int] = set()
        #: Expiry timestamps with a pending LEASE_EXPIRY event; K leases
        #: expiring at one instant schedule one event, not K.
        self._expiry_times_scheduled: set[float] = set()
        self.num_rounds = 0
        self.peak_contention = 0.0
        #: Per-round records, each thinned to ``downsample`` entries.
        cap = self.config.downsample
        self.contention_samples = ReservoirSeries(cap)
        self.timeline = ReservoirSeries(cap)
        self._frag_series = ReservoirSeries(cap)
        self._starv_series = ReservoirSeries(cap)
        #: Rounds since each active app last held a GPU while wanting
        #: one; pruned on app completion, so O(active apps) memory.
        self._rounds_since_alloc: dict[str, int] = {}
        self._starved_rounds_max: dict[str, int] = {}
        #: Per active app, ``(epoch, granted gpu ids, declined GPUs)`` of
        #: its last install that changed no job (see
        #: :meth:`_install_app_allocation`); pruned on app completion.
        self._noop_installs: dict[str, tuple[int, frozenset, list[Gpu]]] = {}
        #: What the install path did with the GPUs the scheduler handed
        #: out (``round_stats["placement"]``): GPUs new to their app,
        #: those of them a job took, and installs that were offered new
        #: GPUs and took none.
        self.placement_counts = {
            "gpus_granted": 0,
            "gpus_installed": 0,
            "installs_fully_declined": 0,
        }
        for app in self.apps:
            for job in app.jobs:
                # Events, the held-jobs index and this map are keyed by
                # bare job id; a shared id never finishes its second job.
                if job.job_id in self._job_owner:
                    raise ValueError(
                        f"job id {job.job_id!r} appears in apps "
                        f"{self._job_owner[job.job_id].app_id!r} and {app.app_id!r}"
                    )
                self._job_owner[job.job_id] = app
        bind = getattr(scheduler, "bind", None)
        if callable(bind):
            bind(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the whole trace and collect results."""
        if self.tracer.enabled:
            self.tracer.set_header(
                scheduler=getattr(
                    self.scheduler, "name", type(self.scheduler).__name__
                ),
                cluster=self.cluster.name,
                gpus=self.cluster.num_gpus,
                apps=len(self.apps),
            )
        for app in self.apps:
            self.engine.schedule(
                app.arrival_time,
                self._make_arrival_callback(app),
                kind=EventKind.APP_ARRIVAL,
                label=f"arrive:{app.app_id}",
            )
        self.engine.run(until=self.config.max_minutes)
        return self._collect()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _make_arrival_callback(self, app: App):
        def _arrive(engine: SimulationEngine, event: Event) -> None:
            app.state = AppState.RUNNING
            self.active_apps[app.app_id] = app
            for job in app.jobs:
                job.last_update = engine.now
            hook = getattr(self.scheduler, "on_app_arrival", None)
            if callable(hook):
                hook(engine.now, app)
            self._request_round()

        return _arrive

    def _request_round(self) -> None:
        """Schedule a scheduling round at the current instant (deduped)."""
        if self._auction_pending:
            return
        self._auction_pending = True
        self.engine.schedule(
            self.engine.now, self._round_callback, kind=EventKind.AUCTION, label="round"
        )

    def _round_callback(self, engine: SimulationEngine, event: Event) -> None:
        self._auction_pending = False
        self._run_round(engine.now)

    def _lease_expiry_callback(self, engine: SimulationEngine, event: Event) -> None:
        self._expiry_times_scheduled.discard(event.time)
        self._request_round()

    def _make_job_finish_callback(self, job: Job):
        def _finish(engine: SimulationEngine, event: Event) -> None:
            self._job_events.pop(job.job_id, None)
            if not job.is_active:
                return
            job.advance_to(engine.now)
            if job.remaining_work > _WORK_EPSILON:
                # Stale completion estimate (allocation changed under us);
                # reschedule from fresh state.
                self._reschedule_job_finish(job)
                return
            self._complete_job(engine.now, job)

        return _finish

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def _run_round(self, now: float) -> None:
        profiler = self.profiler
        with profiler.phase("advance"):
            self._advance_active_jobs(now)
        self._process_tuners(now)
        leases = self.leases
        pool = leases.pool_for_auction(now)
        if self._down_gpu_ids:
            pool = self._in_service(pool)
        renewable: list[Lease] = []
        for lease in leases.expired_leases(now):
            if lease.app_id in self.active_apps:
                renewable.append(lease)
            else:
                self._release_orphaned_lease(lease)
        last = self._last_round
        # Nothing to offer, or the identical round at the same instant
        # (a livelock guard): no round runs, but contention is sampled.
        if not pool or (last is not None and last[0] == now and _same_gpus(last[1], pool)):
            with profiler.phase("metrics"):
                demand = sum(app.demand() for app in self.active_apps.values())
                self._sample_contention(now, demand)
            return
        self._last_round = (now, pool)
        self.num_rounds += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.round = self.num_rounds
            tracer.emit(
                "round_start",
                now,
                round=self.num_rounds,
                pool_gpus=sum(map(len, pool.values())),
                active_apps=len(self.active_apps),
            )
            for lease in renewable:
                tracer.emit("lease_expire", now, gpu=lease.gpu.gpu_id, app=lease.app_id)
        with profiler.phase("assign"):
            assignment = self.scheduler.assign(now, pool)
        with profiler.phase("placement"):
            self._apply_assignment(now, pool, renewable, assignment)
        if self.config.migration:
            with profiler.phase("migration"):
                self._migration_pass(now)
        with profiler.phase("metrics"):
            self._record_round_metrics(now)

    def _release_orphaned_lease(self, lease: Lease) -> None:
        """Free an expired lease whose holder vanished mid-round.

        A finished app's leases should already have been released; this
        is a belt-and-braces sweep over the round's expired leases (an
        unleased GPU has no holder, and an unexpired lease is not in the
        pool).  The GPU stays pooled either way, now with no incumbent.
        """
        self.leases.release(lease.gpu)
        self._emit_lease_revokes(self.engine.now, lease.app_id, (lease.gpu,), "orphaned")

    def _in_service(self, grouped: Mapping[int, Sequence[Gpu]]) -> dict[int, Sequence[Gpu]]:
        """``grouped`` (machine id -> GPUs) without down GPUs or empty machines.

        Order is kept; only the machines holding a down GPU are filtered.
        """
        kept: dict[int, Sequence[Gpu]] = {m: gpus for m, gpus in grouped.items() if gpus}
        down = self._down_gpu_ids
        for machine_id in {self.cluster.gpu(gpu_id).machine_id for gpu_id in down}:
            gpus = kept.get(machine_id)
            if gpus is None:
                continue
            up = [gpu for gpu in gpus if gpu.gpu_id not in down]
            if up:
                kept[machine_id] = up
            else:
                del kept[machine_id]
        return kept

    def _advance_active_jobs(self, now: float) -> None:
        # Only jobs holding GPUs accrue anything between events;
        # zero-GPU jobs are advanced lazily right before their next
        # state change, which integrates to the identical result.
        for job in self._held_jobs.values():
            job.advance_to(now)

    def _track_held_job(self, job: Job) -> None:
        """Keep :attr:`_held_jobs` in sync after an allocation change."""
        if job.allocation.size > 0 and job.is_active:
            self._held_jobs[job.job_id] = job
        else:
            self._held_jobs.pop(job.job_id, None)

    def _process_tuners(self, now: float) -> None:
        """Let intra-app schedulers kill hyper-parameter losers."""
        for app in list(self.active_apps.values()):
            tuner = app.tuner
            if tuner is None:
                continue
            victims = tuner.step(now)
            # Tuners rewrite job state (parallelism limits, kills)
            # outside the Job mutators — the dirty-tracking contract
            # makes the simulator invalidate on their behalf.
            app.invalidate()
            for job in victims:
                if not job.is_active:
                    continue
                released = list(job.allocation.gpus)
                job.kill(now)
                self._held_jobs.pop(job.job_id, None)
                self.leases.release_all(released)
                self._emit_job_state(now, app, job, "killed")
                self._emit_lease_revokes(now, app.app_id, released, "tuner_kill")
                event = self._job_events.pop(job.job_id, None)
                if event is not None:
                    self.engine.cancel(event)
            if app.is_complete():
                self._complete_app(now, app)

    def _sample_contention(self, now: float, demand: int) -> None:
        """Record the round's demand over the GPUs in service."""
        # Honest contention during failure injection: demand is served
        # by the GPUs actually in service, not the nameplate cluster.
        in_service = self.cluster.num_gpus - len(self._down_gpu_ids)
        if in_service > 0:
            ratio = demand / in_service
        else:
            ratio = math.inf if demand > 0 else 0.0
        self.peak_contention = max(self.peak_contention, ratio)
        self.contention_samples.append((now, ratio))

    def _record_round_metrics(self, now: float) -> None:
        """Per-round contention, fragmentation and starvation samples.

        Recorded for every scheduler, in one pass over the active apps.
        Contention: total demand over the GPUs in service (installs move
        no job cap, so the demand is the round's).  Fragmentation:
        :func:`~repro.obs.metrics.fragmentation_index` of
        :meth:`_free_counts`.  Starvation: each active app's
        rounds-since-last-allocation (counted while it has unmet demand
        and zero GPUs); the series records the nearest-rank p99 across
        currently-waiting apps.  All are O(machines + active apps).
        """
        demand = 0
        waiting: list[int] = []
        since = self._rounds_since_alloc
        worst = self._starved_rounds_max
        for app_id, app in self.active_apps.items():
            wanted, held = app.demand_pair()
            demand += wanted
            if held or not wanted:
                since[app_id] = 0
                continue
            rounds = since.get(app_id, 0) + 1
            since[app_id] = rounds
            if rounds > worst.get(app_id, 0):
                worst[app_id] = rounds
            waiting.append(rounds)
        self._sample_contention(now, demand)
        self._frag_series.append((now, fragmentation_index(self._free_counts())))
        self._starv_series.append(
            (now, float(percentile_nearest_rank(waiting, 0.99)))
        )

    def _free_counts(self) -> list[int]:
        """Free in-service GPUs per machine, in machine-id order.

        Read off the lease manager's free index (a machine with none
        free counts 0, which leaves the fragmentation sum unchanged);
        expired-but-leased GPUs are not free, their incumbents still run.
        """
        free: Mapping[int, Sequence[Gpu]] = self.leases.free_by_machine
        if self._down_gpu_ids:
            free = self._in_service(free)
        return list(map(len, free.values()))

    def _apply_assignment(
        self,
        now: float,
        pool: Mapping[int, Sequence[Gpu]],
        renewable: Sequence[Lease],
        assignment: dict[str, list[Gpu]],
    ) -> None:
        """Validate one round's grants and install them.

        Only the pool's expired leases have an incumbent (``renewable``,
        every holder active): a pooled GPU the scheduler left out goes
        back to that incumbent, one without a lease stays free.  Each
        affected app's GPUs are rebuilt as an :class:`Allocation`, which
        orders them by gpu_id, so grants install in gpu_id order in
        whatever order ``assign`` returned them.

        A grant must be one of the GPUs pooled on its machine.  An app
        keeps what it holds minus its GPUs in ``renewable``: a held GPU
        carries its app's lease (:meth:`mark_gpus_down` revokes the
        holding with the lease), so it is pooled exactly when that
        lease has expired.
        """
        expired_of: dict[str, set[int]] = {}
        for lease in renewable:
            expired_of.setdefault(lease.app_id, set()).add(lease.gpu.gpu_id)
        affected = set(expired_of)
        new_owner: dict[int, str] = {}
        granted_by_app: dict[str, list[Gpu]] = {}
        for app_id, gpus in assignment.items():
            if app_id not in self.active_apps:
                raise SimulationError(f"scheduler assigned GPUs to unknown app {app_id!r}")
            if not gpus:
                continue
            for gpu in gpus:
                gpu_id = gpu.gpu_id
                for pooled in pool.get(gpu.machine_id, ()):
                    if pooled.gpu_id == gpu_id:
                        break
                else:
                    raise SimulationError(
                        f"scheduler assigned GPU {gpu_id} outside the pool"
                    )
                if gpu_id in new_owner:
                    raise SimulationError(f"scheduler assigned GPU {gpu_id} to two apps")
                new_owner[gpu_id] = app_id
            granted_by_app[app_id] = list(gpus)
            affected.add(app_id)

        tracer = self.tracer
        if tracer.enabled:
            for app_id in sorted(assignment):
                gpus = assignment[app_id]
                if gpus:
                    tracer.emit(
                        "auction_win",
                        now,
                        round=self.num_rounds,
                        app=app_id,
                        gpus=len(gpus),
                        gpu_ids=sorted(gpu.gpu_id for gpu in gpus),
                    )

        # Unassigned expired GPUs stay with their incumbent (lease
        # renewal) — work conservation.  Those and the ones it re-won
        # are the incumbent's renewals.
        renewing: dict[str, list[Lease]] = {}
        for lease in renewable:
            owner = new_owner.get(lease.gpu.gpu_id)
            if owner is None:
                granted_by_app.setdefault(lease.app_id, []).append(lease.gpu)
            elif owner != lease.app_id:
                continue
            renewing.setdefault(lease.app_id, []).append(lease)

        for app_id in sorted(affected):
            app = self.active_apps.get(app_id)
            if app is None:
                continue
            held = app.allocation().gpus
            expired = expired_of.get(app_id)
            retained = (
                [gpu for gpu in held if gpu.gpu_id not in expired] if expired else list(held)
            )
            granted = granted_by_app.get(app_id, [])
            self._install_app_allocation(
                now, app, Allocation(retained + granted), renewing.get(app_id, ())
            )

    def _install_app_allocation(
        self, now: float, app: App, granted: Allocation, renewing: Sequence[Lease]
    ) -> None:
        """Install what an app holds after a round, touching only what changed.

        ``granted`` is every GPU the app may hold from now on (its
        unpooled GPUs plus the round's grants and renewals), and
        ``renewing`` the round's expired leases of this app whose GPU is
        in it.  :meth:`App.distribute` reports the jobs whose allocation
        changes and the GPUs no job takes.  Each changed job is advanced,
        re-allocated (repaying the restart overhead when it gets GPUs),
        leased on every GPU it now holds and re-timed.  A job that keeps
        its GPUs renews just its leases in ``renewing``; its others are
        unexpired.  Jobs are visited in submission order, so leases,
        events and trace records come out as a pass over every job would
        make them.  Declined GPUs go back to the free pool.

        An install that left the app's epoch unchanged (no job changed)
        is remembered with its ``(epoch, granted ids)``: the same offer
        at the same epoch skips ``distribute`` — nothing changes, and the
        declined GPUs are ``granted - held`` again.
        """
        app_id = app.app_id
        epoch = app.epoch
        granted_ids = granted.gpu_ids
        held_ids = app.allocation().gpu_ids
        noop = self._noop_installs.get(app_id)
        if noop is not None and noop[0] == epoch and noop[1] == granted_ids:
            changes: dict[str, Allocation] = {}
            declined = noop[2]
        else:
            changes, declined = app.distribute(granted)
        renewals: dict[str, list[Gpu]] = {}
        for lease in renewing:
            if lease.job_id not in changes:
                renewals.setdefault(lease.job_id, []).append(lease.gpu)
        visit = [*changes, *renewals]
        if renewals and len(visit) > 1:
            wanted = set(visit)
            visit = [job.job_id for job in app.active_jobs() if job.job_id in wanted]
        for job_id in visit:
            job = app.job(job_id)
            target = changes.get(job_id)
            if target is None:
                for gpu in renewals[job_id]:
                    self._grant_lease(now, app_id, job_id, gpu)
                continue
            overhead = (
                self.config.restart_overhead_minutes if target.size > 0 else 0.0
            )
            job.advance_to(now)
            job.set_allocation(now, target, overhead=overhead)
            self._track_held_job(job)
            self._emit_job_state(now, app, job, "running")
            self._refresh_leases(now, app, job, target)
            self._reschedule_job_finish(job)
        # GPUs the app cannot use (beyond demand) go back to the free pool.
        for gpu in declined:
            self.leases.release(gpu)
        if app.epoch == epoch:
            self._noop_installs[app_id] = (epoch, granted_ids, declined)
        fresh = len(granted_ids - held_ids)
        if fresh:
            installed = fresh - sum(1 for gpu in declined if gpu.gpu_id not in held_ids)
            counts = self.placement_counts
            counts["gpus_granted"] += fresh
            counts["gpus_installed"] += installed
            if not installed:
                counts["installs_fully_declined"] += 1
        if self.config.record_timeline:
            self.timeline.append((now, app_id, app.allocation().size))

    def _emit_job_state(self, now: float, app: App, job: Job, state: str) -> None:
        """Trace one job allocation/state change (no-op untraced).

        Emitted at every discrete point a job's held-GPU count changes
        (``set_allocation`` / ``finish`` / ``kill`` sites), so a trace
        consumer can integrate per-job GPU time exactly — allocations
        are piecewise-constant between these events.
        """
        if self.tracer.enabled:
            self.tracer.emit(
                "job_state_change",
                now,
                app=app.app_id,
                job=job.job_id,
                state=state,
                gpus=job.allocation.size,
            )

    def _emit_lease_revokes(
        self, now: float, app_id: str, gpus: Sequence[Gpu], reason: str
    ) -> None:
        """Trace lease revocations for released GPUs (no-op untraced)."""
        if self.tracer.enabled:
            for gpu in gpus:
                self.tracer.emit(
                    "lease_revoke", now, gpu=gpu.gpu_id, app=app_id, reason=reason
                )

    def _refresh_leases(self, now: float, app: App, job: Job, target: Allocation) -> None:
        """Grant / renew leases so every held GPU has an unexpired lease."""
        for gpu in target:
            lease = self.leases.lease_of(gpu)
            if lease is None or lease.app_id != app.app_id or lease.is_expired(now):
                self._grant_lease(now, app.app_id, job.job_id, gpu)
            else:
                lease.job_id = job.job_id

    def _grant_lease(self, now: float, app_id: str, job_id: str, gpu: Gpu) -> None:
        """Lease ``gpu`` to the job for one lease term from ``now``."""
        new_lease = self.leases.grant(gpu, app_id, job_id, now, self.config.lease_minutes)
        if self.tracer.enabled:
            self.tracer.emit(
                "lease_grant",
                now,
                app=app_id,
                job=job_id,
                gpu=gpu.gpu_id,
                expiry=new_lease.expiry,
            )
        # One expiry event per distinct timestamp: a round that grants K
        # leases (same ``now``, same duration) used to schedule K
        # identical wake-ups.
        if new_lease.expiry not in self._expiry_times_scheduled:
            self._expiry_times_scheduled.add(new_lease.expiry)
            self.engine.schedule(
                new_lease.expiry,
                self._lease_expiry_callback,
                kind=EventKind.LEASE_EXPIRY,
                label=f"lease:{new_lease.expiry:.3f}",
            )

    def _reschedule_job_finish(self, job: Job) -> None:
        old = self._job_events.pop(job.job_id, None)
        if old is not None:
            self.engine.cancel(old)
        if not job.is_active:
            return
        eta = job.eta(self.engine.now)
        if math.isinf(eta):
            return
        event = self.engine.schedule(
            eta,
            self._make_job_finish_callback(job),
            kind=EventKind.JOB_FINISH,
            label=f"finish:{job.job_id}",
        )
        self._job_events[job.job_id] = event

    # ------------------------------------------------------------------
    # Failure injection (Section 6 extension)
    # ------------------------------------------------------------------
    def mark_gpus_down(self, gpus: Sequence[Gpu]) -> None:
        """Take GPUs out of service, revoking leases and job holdings.

        Affected jobs stall (their allocation shrinks) and repay the
        checkpoint/restart overhead when rescheduled; a scheduling
        round fires immediately so the freed demand can be served.
        """
        now = self.engine.now
        down_ids = {gpu.gpu_id for gpu in gpus}
        self._down_gpu_ids.update(down_ids)
        affected_apps: set[str] = set()
        for gpu in gpus:
            lease = self.leases.lease_of(gpu)
            if lease is not None:
                affected_apps.add(lease.app_id)
                self.leases.revoke(gpu, reason="failure")
                self._emit_lease_revokes(now, lease.app_id, (gpu,), "failure")
        for app_id in sorted(affected_apps):
            app = self.active_apps.get(app_id)
            if app is None:
                continue
            for job in app.active_jobs():
                if not any(g.gpu_id in down_ids for g in job.allocation):
                    continue
                job.advance_to(now)
                survivors = Allocation(
                    g for g in job.allocation if g.gpu_id not in down_ids
                )
                job.set_allocation(now, survivors, overhead=0.0)
                self._track_held_job(job)
                self._emit_job_state(now, app, job, "running")
                self._reschedule_job_finish(job)
            if self.config.record_timeline:
                self.timeline.append((now, app.app_id, app.allocation().size))
        self._request_round()

    def mark_gpus_up(self, gpus: Sequence[Gpu]) -> None:
        """Return repaired GPUs to service and trigger a round."""
        self._down_gpu_ids.difference_update(gpu.gpu_id for gpu in gpus)
        self._request_round()

    # ------------------------------------------------------------------
    # Speed-aware migration (ROADMAP heterogeneity follow-on)
    # ------------------------------------------------------------------
    def _best_free_gang(self, job: Job, free: Mapping[int, Sequence[Gpu]]):
        """Best whole-gang replacement drawable from the free pool.

        ``free`` maps machine id -> its free in-service GPUs (no empty
        machines).  Machines are drained fastest-for-this-family first
        (count x family speedup, lower machine id on ties); after each
        machine's GPUs join the candidate, the prefix is scored with the
        job's own rate kernel — so a slow or cross-rack machine that
        would *drag* the gang is naturally excluded by taking the best
        prefix.  Returns ``(gpus, rate)``; ``(None, 0.0)`` when the pool
        is empty.
        """
        if not free:
            return None, 0.0
        speed_of = self.perf_model.machine_speeds_for(self.cluster, job.family)
        order = sorted(free, key=lambda m: (-len(free[m]) * speed_of.get(m, 1.0), m))
        cap = job.max_parallelism
        taken: list[Gpu] = []
        best_gpus: Optional[list[Gpu]] = None
        best_rate = 0.0
        for machine_id in order:
            for gpu in sorted(free[machine_id], key=lambda g: g.gpu_id):
                if len(taken) >= cap:
                    break
                taken.append(gpu)
            rate = job.rate_of(taken, cap=cap)
            if rate > best_rate:
                best_rate = rate
                best_gpus = list(taken)
            if len(taken) >= cap:
                break
        return best_gpus, best_rate

    def _migration_pass(self, now: float) -> None:
        """Trade slow gangs for faster free ones (post-assignment sweep).

        For each GPU-holding job, in job-id order: if the free pool
        offers a whole replacement gang whose rate exceeds the current
        one by at least ``migration_min_gain`` *and* whose projected
        finish (restart overhead included) beats staying put — a nearly
        finished job never trades minutes of checkpoint stall for a
        faster gang it barely uses — swap the job onto it,
        releasing the old gang back to the free pool (where a later job
        in the same sweep may claim it), granting fresh leases on the
        new one, and repaying the checkpoint/restore overhead.  The
        perf model prices both sides, so under a throughput matrix a
        job trades *toward its own family's* fast generation — possibly
        onto a smaller gang, when fewer fast GPUs out-run more slow
        ones.

        :meth:`_best_free_gang` reads only the free pool, the job's
        model (its family row and sensitivity) and its cap, so its
        answer is memoised per ``(model, cap)`` until a migration
        changes the pool.
        """
        # Expired-but-leased GPUs are not free: their incumbents keep
        # running until a round reassigns them.
        free = self._in_service(self.leases.free_by_machine)
        if not free:
            return
        overhead = self.config.restart_overhead_minutes
        min_gain = self.config.migration_min_gain
        migrated = False
        gangs: dict[tuple[str, int], tuple[Optional[list[Gpu]], float]] = {}
        for job_id in sorted(self._held_jobs):
            job = self._held_jobs.get(job_id)
            if job is None or not job.is_active or job.allocation.size == 0:
                continue
            current_rate = job.rate()
            if current_rate <= 0.0:
                continue
            gang_key = (job.spec.model, job.max_parallelism)
            gang = gangs.get(gang_key)
            if gang is None:
                gang = gangs[gang_key] = self._best_free_gang(job, free)
            candidate, candidate_rate = gang
            if candidate is None or candidate_rate < current_rate * min_gain:
                continue
            # The rate gain must also *repay the overhead*: a nearly
            # finished job gains nothing from a faster gang if the
            # checkpoint/restore stall exceeds the minutes saved.
            remaining = job.remaining_work
            time_now = job.overhead_remaining + remaining / current_rate
            time_after = overhead + remaining / candidate_rate
            if time_after >= time_now:
                continue
            app = self._job_owner[job.job_id]
            released = list(job.allocation.gpus)
            job.advance_to(now)
            target = Allocation(candidate)
            job.set_allocation(now, target, overhead=overhead)
            self._track_held_job(job)
            self.leases.release_all(released)
            if self.tracer.enabled:
                self.tracer.emit(
                    "migration",
                    now,
                    app=app.app_id,
                    job=job.job_id,
                    from_gpus=sorted(g.gpu_id for g in released),
                    to_gpus=sorted(g.gpu_id for g in candidate),
                    gain=candidate_rate / current_rate,
                )
                self._emit_lease_revokes(now, app.app_id, released, "migration")
                self._emit_job_state(now, app, job, "running")
            self._refresh_leases(now, app, job, target)
            self._reschedule_job_finish(job)
            free = self._in_service(self.leases.free_by_machine)
            gangs.clear()
            self.num_migrations += 1
            migrated = True
            if self.config.record_timeline:
                self.timeline.append((now, app.app_id, app.allocation().size))
        if migrated:
            # Freed slow gangs are back in the pool; let a follow-up
            # round at this instant offer them to whoever wants them.
            self._request_round()

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _complete_job(self, now: float, job: Job) -> None:
        released = list(job.allocation.gpus)
        job.finish(now)
        self._held_jobs.pop(job.job_id, None)
        self.leases.release_all(released)
        app = self._job_owner[job.job_id]
        self._emit_job_state(now, app, job, "finished")
        self._emit_lease_revokes(now, app.app_id, released, "job_finished")
        if app.is_complete():
            self._complete_app(now, app)
        self._request_round()

    def _complete_app(self, now: float, app: App) -> None:
        # FIRST_WINNER semantics: the winner ends the app; kill the rest.
        for job in app.active_jobs():
            job.advance_to(now)
            released = list(job.allocation.gpus)
            job.kill(now)
            self._held_jobs.pop(job.job_id, None)
            self.leases.release_all(released)
            self._emit_job_state(now, app, job, "killed")
            self._emit_lease_revokes(now, app.app_id, released, "app_finished")
            event = self._job_events.pop(job.job_id, None)
            if event is not None:
                self.engine.cancel(event)
        app.state = AppState.FINISHED
        app.finished_at = now
        self.active_apps.pop(app.app_id, None)
        self._rounds_since_alloc.pop(app.app_id, None)
        self._noop_installs.pop(app.app_id, None)
        if self.config.record_timeline:
            self.timeline.append((now, app.app_id, 0))
        hook = getattr(self.scheduler, "on_app_finish", None)
        if callable(hook):
            hook(now, app)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _collect(self) -> SimulationResult:
        now = self.engine.now
        capacity = self.capacity
        stats: list[AppStats] = []
        gpu_time_by_type: dict[str, float] = {}
        for app in self.apps:
            ideal = app.ideal_running_time(capacity)
            finished = app.finished_at
            completion = None if finished is None else finished - app.arrival_time
            rho = app.finish_time_fairness(now, capacity)
            per_type = app.gpu_time_by_type()
            for type_name, minutes in per_type.items():
                gpu_time_by_type[type_name] = (
                    gpu_time_by_type.get(type_name, 0.0) + minutes
                )
            stats.append(
                AppStats(
                    app_id=app.app_id,
                    arrival=app.arrival_time,
                    finished_at=finished,
                    completion_time=completion,
                    ideal_time=ideal,
                    rho=rho,
                    gpu_time=app.gpu_time(),
                    attained_service=app.attained_service(),
                    mean_placement_score=app.mean_placement_score(),
                    num_jobs=app.num_jobs,
                    total_work=app.total_work(),
                    gpu_time_by_type=per_type,
                    starved_rounds_max=self._starved_rounds_max.get(app.app_id, 0),
                )
            )
        completed = all(app.state is AppState.FINISHED for app in self.apps)
        return SimulationResult(
            scheduler_name=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            cluster_name=self.cluster.name,
            cluster_gpus=self.cluster.num_gpus,
            config=self.config,
            apps=self.apps,
            app_stats=stats,
            makespan=now,
            completed=completed,
            peak_contention=self.peak_contention,
            contention_samples=list(self.contention_samples),
            timeline=list(self.timeline),
            num_rounds=self.num_rounds,
            events_processed=self.engine.events_processed,
            total_gpu_time=ordered_sum(s.gpu_time for s in stats),
            cluster_gpus_by_type=self.cluster.gpus_by_type(),
            gpu_time_by_type=dict(sorted(gpu_time_by_type.items())),
            num_migrations=self.num_migrations,
            fragmentation_samples=list(self._frag_series),
            starvation_samples=list(self._starv_series),
            profile=self.profiler.snapshot(),
            round_stats=self._round_stats_payload(),
        )

    def _round_stats_payload(self) -> dict:
        """Serialise the install counters and the arbiter's solver instrumentation.

        Every scheduler gets ``placement`` (:attr:`placement_counts`).
        Schedulers with an arbiter (themis) also get ``rounds``,
        ``multi_bidder_rounds``, ``totals`` and ``per_round``: ``totals``
        sums every ``RoundStats`` counter (the fields that default to 0)
        and ``multi_bidder_rounds`` counts the rounds with >= 2
        participants, both over the whole history.  ``per_round`` rows
        go through the same reservoir policy as the other series so a
        week-long trace cannot bloat the result JSON.
        """
        payload: dict = {"placement": dict(self.placement_counts)}
        arbiter = getattr(self.scheduler, "arbiter", None)
        history = getattr(arbiter, "history", None)
        if not history:
            return payload
        totals = {f.name: 0 for f in fields(history[0]) if f.default == 0}
        for rs in history:
            for key in totals:
                totals[key] += getattr(rs, key)
        # Thin first, then convert only the kept rows: the reservoir keeps
        # rows by append index, so the result is the same either way.
        kept = ReservoirSeries(self.config.downsample)
        kept.extend(history)
        payload.update(
            rounds=len(history),
            multi_bidder_rounds=sum(1 for rs in history if rs.num_participants >= 2),
            totals=totals,
            per_round=[asdict(rs) for rs in kept],
        )
        return payload
