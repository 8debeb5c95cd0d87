"""``repro.service`` daemon: the crash-safe control plane around the engine.

:class:`ControlPlane` is the long-lived service object.  Its contract:

* **Durability** — every state change is one WAL append.  A transition
  record carries the job, its new state and time, and only the fields
  that move set; replay applies them over the prior record.  ``kill -9``
  at any record boundary yields a restart that replays the WAL and
  converges to the same terminal job states as an uninterrupted run
  (proven by the chaos suite).
* **Dispatch tokens** — workers start jobs only via :meth:`start` with
  the token :meth:`tick` issued.  Tokens are epoch-stamped; the epoch
  increments at every service start, so pre-crash dispatches replayed
  after recovery are rejected (``stale_epoch``), never double-started.
* **Retry/backoff** — reported execution failures consume attempts
  against the :class:`~repro.service.retry.RetryPolicy`; worker losses
  (crash recovery, revoked dispatch leases) re-dispatch with backoff
  but do *not* consume attempts, which is what makes interrupted and
  uninterrupted runs agree on terminal states.
* **Admission** — per-tenant queue-depth and per-pool concurrent-GPU
  gates run before any work reaches the scheduler.
* **Graceful degradation** — when the store becomes unavailable the
  service sheds *new* submissions with a clear error but keeps
  draining admitted work, buffering its transitions and flushing them
  once the store returns.

Execution has two planes.  With no live workers registered, the tick
runs jobs synchronously through the :class:`Executor` seam (the
single-node mode every chaos scenario drives deterministically).  Once
out-of-process workers register (``repro worker``), the daemon switches
to a *pull* protocol — :meth:`register_worker` / :meth:`claim` /
:meth:`worker_heartbeat` / :meth:`start` / :meth:`report` — with
heartbeat leases: a worker that stops heartbeating is reaped, its
in-flight jobs re-queue through the retry path *without consuming
attempts*, and the epoch/token fencing rejects any late ``start`` or
``report`` from the zombie, so every job's effects land exactly once.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.service.admission import (
    DEFAULT_POOL,
    AdmissionController,
    in_flight_gpus,
)
from repro.service.errors import (
    ServiceError,
    ServiceUnavailable,
    TokenError,
    UnknownJobError,
)
from repro.service.retry import (
    DEFAULT_RETRY_POLICY,
    FailureKind,
    RetryPolicy,
    classify_exception,
)
from repro.service.state import (
    JobRecord,
    JobState,
    force_state,
    transition,
)
from repro.service.store import DurableStore, StoreCorruption, StoreUnavailable, encode
from repro.service.tokens import DispatchToken, TokenIssuer
from repro.service.workers import (
    DEFAULT_WORKER_TTL,
    WorkerRecord,
    WorkerRegistry,
)

logger = logging.getLogger("repro.service.daemon")


# ----------------------------------------------------------------------
# Execution seam
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobOutcome:
    """What one execution of a job reported back."""

    ok: bool
    failure_kind: Optional[FailureKind] = None
    detail: str = ""
    result: Optional[dict] = None

    @classmethod
    def success(cls, result: Optional[dict] = None) -> "JobOutcome":
        return cls(ok=True, result=result)

    @classmethod
    def failure(
        cls, kind: Union[FailureKind, str], detail: str = ""
    ) -> "JobOutcome":
        return cls(ok=False, failure_kind=FailureKind(kind), detail=detail)

    def to_json(self) -> dict:
        """JSON-safe form (the worker protocol's ``report`` payload)."""
        return {
            "ok": self.ok,
            "failure_kind": (
                self.failure_kind.value if self.failure_kind else None
            ),
            "detail": self.detail,
            "result": self.result,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "JobOutcome":
        kind = payload.get("failure_kind")
        return cls(
            ok=bool(payload.get("ok", False)),
            failure_kind=FailureKind(kind) if kind else None,
            detail=str(payload.get("detail", "")),
            result=payload.get("result"),
        )


class Executor:
    """Runs one job to completion; subclasses override :meth:`execute`."""

    def execute(self, record: JobRecord) -> JobOutcome:  # pragma: no cover
        raise NotImplementedError


class NoopExecutor(Executor):
    """Finishes every job immediately (tests, smoke runs)."""

    def execute(self, record: JobRecord) -> JobOutcome:
        return JobOutcome.success()


class SpecExecutor(Executor):
    """Interprets ``record.spec`` — the default executor behind
    ``repro serve``.

    Spec kinds:

    * ``noop`` — finish immediately,
    * ``sleep`` — ``{"seconds": s}`` busy the worker, then finish,
    * ``fail`` — ``{"failure_kind": "transient"|"fatal",
      "succeed_after": n}`` fail until ``n`` attempts were consumed
      (chaos / demo knob),
    * ``sim`` — run one simulation through the same
      :func:`~repro.experiments.runner.run_scenario` the CLI uses:
      ``{"scheduler", "apps", "seed", "duration_scale", "cluster"}`` (a
      bad spec fails FATAL); the job result carries the run's headline metrics.
    """

    def execute(self, record: JobRecord) -> JobOutcome:
        kind = str(record.spec.get("kind", "noop"))
        if kind == "noop":
            return JobOutcome.success()
        if kind == "sleep":
            time.sleep(float(record.spec.get("seconds", 0.0)))
            return JobOutcome.success()
        if kind == "fail":
            succeed_after = int(record.spec.get("succeed_after", -1))
            if 0 <= succeed_after <= record.attempts:
                return JobOutcome.success()
            return JobOutcome.failure(
                record.spec.get("failure_kind", FailureKind.FATAL),
                detail="spec-directed failure",
            )
        if kind == "sim":
            return self._run_simulation(record)
        return JobOutcome.failure(
            FailureKind.FATAL, detail=f"unknown spec kind {kind!r}"
        )

    def _run_simulation(self, record: JobRecord) -> JobOutcome:
        from repro.experiments.config import preset_scenario
        from repro.experiments.runner import run_scenario
        from repro.metrics.summary import metric_values

        spec = record.spec
        try:
            scenario = preset_scenario(
                str(spec.get("cluster", "testbed")),
                num_apps=int(spec.get("apps", 4)),
                seed=int(spec.get("seed", 0)),
                duration_scale=float(spec.get("duration_scale", 0.05)),
            )
        except ValueError as error:
            return JobOutcome.failure(FailureKind.FATAL, detail=str(error))
        result = run_scenario(scenario, str(spec.get("scheduler", "themis")))
        return JobOutcome.success(
            result={
                "completed": result.completed,
                "num_apps": len(result.app_stats),
                **metric_values(result, ("max_rho", "avg_jct")),
                "total_gpu_time": result.total_gpu_time,
            }
        )


# ----------------------------------------------------------------------
# The control plane
# ----------------------------------------------------------------------
@dataclass
class TickStats:
    """What one :meth:`ControlPlane.tick` did (for logs and tests)."""

    admitted: int = 0
    dispatched: int = 0
    finished: int = 0
    failed: int = 0
    retried: int = 0
    flushed: int = 0
    compacted: bool = False
    reaped_workers: int = 0  # workers whose heartbeat lease lapsed
    requeued: int = 0  # jobs re-queued after a worker/dispatch loss
    deadlined: int = 0  # RUNNING jobs failed past their max_runtime_s


class ControlPlane:
    """The durable job service: submit/cancel/status plus the tick loop."""

    def __init__(
        self,
        store: DurableStore,
        *,
        executor: Optional[Executor] = None,
        admission: Optional[AdmissionController] = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        clock: Callable[[], float] = time.time,
        tracer: Tracer = NULL_TRACER,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        dispatch_timeout: float = 30.0,
    ) -> None:
        self.store = store
        self.executor = executor if executor is not None else SpecExecutor()
        self.admission = admission if admission is not None else AdmissionController()
        self.retry = retry
        self.clock = clock
        self.tracer = tracer
        #: Every job ever accepted, in ``order`` order (finished ones stay
        #: for ``status``); only ``job_list`` walks it.
        self.jobs: dict[str, JobRecord] = {}
        #: The non-terminal subset of ``jobs``, also in ``order`` order:
        #: what ``submit``, ``tick``, ``claim``, ``stats`` and the snapshot
        #: read, so one decision costs O(live jobs), not O(jobs ever
        #: seen).  ``submit`` and ``_recover`` add; ``_move`` removes a job
        #: the moment it turns terminal and counts it in
        #: ``_terminal_counts``.
        self._live: dict[str, JobRecord] = {}
        self._terminal_counts: Counter[str] = Counter()
        #: Jobs that turned terminal since the last successful compaction:
        #: the next one seals them into the store's archive, once — a
        #: terminal record can never change again.
        self._unsealed: list[JobRecord] = []
        self.workers = WorkerRegistry(ttl=worker_ttl)
        #: Seconds a claimed job may sit DISPATCHED before the daemon
        #: decides the worker stalled and re-queues it (fencing the
        #: worker's late ``start``).  Catches workers that heartbeat
        #: but never make progress, which the lease alone cannot.
        self.dispatch_timeout = float(dispatch_timeout)
        self.degraded = False
        #: WAL records ``(kind, fields)`` buffered while the store is down.
        self._pending: deque[tuple[str, dict]] = deque()
        self._order = 0
        #: Serialises every public entry point: HTTP handler threads
        #: (heartbeats, claims, reports) interleave with the tick loop.
        self._lock = threading.RLock()
        self.counters = {
            "starts": 0,
            "start_rejections": 0,
            "reports": 0,
            "report_rejections": 0,
            "workers_lost": 0,
            "requeued_lost": 0,
            "stalled_requeued": 0,
            "deadline_failures": 0,
        }
        now = self.clock()
        prior_epoch = self._recover(now)
        self.epoch = prior_epoch + 1
        self.issuer = TokenIssuer(self.epoch)
        # The epoch record is the first write of the new incarnation; a
        # store that is down at boot is a hard error (there is nothing
        # admitted yet to drain).
        self.store.append("epoch", epoch=self.epoch, at=now)
        self._orphan_sweep(now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, now: float) -> int:
        """Replay archive + snapshot + WAL; returns the highest epoch seen."""
        image = self.store.recover()
        epoch = 0
        # A record that parses but cannot be rebuilt corrupts its file.
        source = self.store.sealed_path
        try:
            for payload in image.sealed:
                record = JobRecord.from_json(payload)
                self.jobs[record.job_id] = record
            archived = set(self.jobs)
            source = self.store.snapshot_path
            if image.snapshot:
                epoch = int(image.snapshot.get("epoch", 0))
                for payload in image.snapshot.get("jobs", ()):
                    record = JobRecord.from_json(payload)
                    self.jobs[record.job_id] = record
                for payload in image.snapshot.get("workers", ()):
                    self.workers.restore(payload)
            source = self.store.wal_path
            for record in image.records:
                kind = record.get("kind")
                if kind == "epoch":
                    epoch = max(epoch, int(record.get("epoch", 0)))
                elif kind == "submit":
                    job = JobRecord.from_json(record["job"])
                    self.jobs[job.job_id] = job
                elif kind == "transition":
                    self._replay_transition(record)
                elif kind == "worker_register":
                    self.workers.restore(
                        {
                            "worker_id": record.get("worker", ""),
                            "name": record.get("name", ""),
                            "capacity": record.get("capacity", 1),
                            "epoch": record.get("epoch", 0),
                            "registered_at": record.get("at", 0.0),
                            "last_heartbeat": record.get("at", 0.0),
                        }
                    )
                elif kind == "worker_lost":
                    self.workers.restore_lost(
                        str(record.get("worker", "")),
                        at=float(record.get("at", 0.0)),
                        reason=str(record.get("reason", "")),
                    )
                # Unknown kinds are skipped: forward compatibility with
                # newer writers, same policy as the trace reader.
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise StoreCorruption(
                f"{source}: a record cannot be rebuilt: {error!r}"
            ) from error
        if image.dropped_tail:
            logger.warning(
                "recovered %s: dropped %d torn WAL tail line(s)",
                self.store.root, image.dropped_tail,
            )
        # The archive is in sealing order, the snapshot and WAL in
        # ``order`` order; one sort interleaves them.
        self.jobs = dict(
            sorted(self.jobs.items(), key=lambda item: item[1].order)
        )
        for job in self.jobs.values():
            if job.is_terminal:
                self._terminal_counts[job.state.value] += 1
                if job.job_id not in archived:
                    # Finished in the WAL, or held by a schema-1 snapshot:
                    # the next compaction seals it (a v1 store's migration).
                    self._unsealed.append(job)
            else:
                self._live[job.job_id] = job
        self._order = max(
            (job.order for job in self.jobs.values()), default=0
        )
        return epoch

    def _replay_transition(self, payload: Mapping) -> None:
        """Apply one transition over the job's prior record: the state
        and time, then whichever fields the record carries (all of them
        from an older writer, the ones its move set from this one)."""
        job = self.jobs.get(str(payload.get("job")))
        if job is None:
            logger.warning("WAL transition for unknown job %r", payload.get("job"))
            return
        force_state(job, payload["state"], float(payload.get("at", 0.0)))
        for key in (
            "attempts", "dispatches", "not_before", "detail",
            "token", "result", "worker", "started_at",
        ):
            if key in payload:
                setattr(job, key, payload[key])

    def _orphan_sweep(self, now: float) -> None:
        """Re-queue work that was in flight when the last epoch died.

        A DISPATCHED/RUNNING job's worker cannot survive the crash (its
        token is from a dead epoch), so the job re-enters via RETRYING
        with backoff.  No attempt is consumed: the execution never
        reported an outcome, so for retry accounting it never happened.
        Workers recovered ALIVE are marked lost for the same reason —
        their leases and tokens belong to the dead epoch; survivors
        simply re-register against the new one.
        """
        for job in self._live.values():
            if job.state in (JobState.DISPATCHED, JobState.RUNNING):
                self._requeue_lost(
                    job, now,
                    detail=f"worker lost before epoch {self.epoch}",
                )
                logger.info("orphaned job %s re-queued", job.job_id)
        for worker in self.workers.alive():
            self._lose_worker(worker, now, reason="service_restart")

    def _requeue_lost(self, job: JobRecord, now: float, detail: str) -> None:
        """Send a DISPATCHED/RUNNING job back through retry *without*
        consuming an attempt: its execution never reported an outcome,
        so for retry accounting it never happened.  Clearing the token
        is the fence — the lost worker's late ``start``/``report`` can
        no longer match the job's recorded dispatch."""
        delay = self.retry.delay(1, key=f"{job.job_id}:lost")
        self._move(
            job, JobState.RETRYING, now, detail=detail,
            token=None, worker=None, not_before=now + delay,
        )
        self.counters["requeued_lost"] += 1

    def _lose_worker(
        self, worker: WorkerRecord, now: float, reason: str
    ) -> None:
        """Mark one worker LOST, durably and in the trace."""
        self.workers.mark_lost(worker.worker_id, now, reason=reason)
        self._append(
            "worker_lost", worker=worker.worker_id, at=now, reason=reason
        )
        self.counters["workers_lost"] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "worker_lost", now, worker=worker.worker_id, reason=reason
            )

    # ------------------------------------------------------------------
    # WAL plumbing (with graceful degradation)
    # ------------------------------------------------------------------
    def _append(self, kind: str, **fields) -> None:
        if self.degraded:
            self._pending.append((kind, fields))
            return
        try:
            self.store.append(kind, **fields)
        except StoreUnavailable as error:
            logger.error("store unavailable, buffering records: %s", error)
            self.degraded = True
            self._pending.append((kind, fields))

    def _move(
        self, job: JobRecord, target: JobState, now: float, detail: str = "",
        **changes,
    ) -> None:
        """The one way a job's fields and worker binding change after
        recovery: the checked transition (an illegal move changes
        nothing), ``changes`` (moving ``worker`` releases the old claim
        and binds the new), the live index (a job that turns terminal
        leaves it for the tally and the next sealing batch) and the WAL
        record of the job, state, time and only the fields set here."""
        transition(job, target, now, detail=detail)
        if "worker" in changes:
            if job.worker is not None:
                self.workers.release(job.worker, job.job_id)
            if changes["worker"] is not None:
                self.workers.get(changes["worker"]).jobs.add(job.job_id)
        job.__dict__.update(changes)
        if job.is_terminal:
            del self._live[job.job_id]
            self._terminal_counts[job.state.value] += 1
            self._unsealed.append(job)
        if detail:
            changes["detail"] = detail
        self._append(
            "transition", job=job.job_id, state=job.state.value, at=now,
            **changes,
        )

    def _flush_pending(self) -> int:
        """Try to drain buffered records back into the store."""
        if not self._pending:
            self.degraded = False
            return 0
        flushed = 0
        while self._pending:
            kind, fields = self._pending[0]
            try:
                self.store.append(kind, **fields)
            except StoreUnavailable:
                return flushed
            self._pending.popleft()
            flushed += 1
        self.degraded = False
        logger.info("store recovered; flushed %d buffered record(s)", flushed)
        return flushed

    def _snapshot_state(self) -> tuple[dict, list[dict]]:
        """The compaction payload — the live state, and the jobs finished
        since the last compaction as the batch to seal; built only when
        compaction is due."""
        state = {
            "epoch": self.epoch,
            "jobs": [job.to_json() for job in self._live.values()],
            "workers": self.workers.to_json(),
        }
        return state, [job.to_json() for job in self._unsealed]

    # ------------------------------------------------------------------
    # Public API (shared by in-process callers, HTTP and the CLI)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: Optional[Mapping] = None,
        *,
        tenant: str = "default",
        gpus: int = 1,
        pool: str = DEFAULT_POOL,
        priority: int = 0,
        job_id: Optional[str] = None,
        max_runtime_s: Optional[float] = None,
    ) -> str:
        """Accept one job; returns its id.  Raises
        :class:`~repro.service.errors.AdmissionError` over policy,
        :class:`~repro.service.errors.ServiceUnavailable` while the
        store is down (shedding, not queueing in RAM) and the encoder's
        ``ValueError`` / ``TypeError`` for a spec the WAL cannot hold."""
        with self._lock:
            return self._submit_locked(
                spec, tenant=tenant, gpus=gpus, pool=pool,
                priority=priority, job_id=job_id, max_runtime_s=max_runtime_s,
            )

    def _submit_locked(
        self,
        spec: Optional[Mapping],
        *,
        tenant: str,
        gpus: int,
        pool: str,
        priority: int,
        job_id: Optional[str],
        max_runtime_s: Optional[float],
    ) -> str:
        if self.degraded:
            self._flush_pending()
        if self.degraded:
            raise ServiceUnavailable(
                "durable store is unavailable; new submissions are shed "
                "(running and admitted work keeps draining)",
                reason="store_unavailable",
            )
        queued = sum(
            1
            for job in self._live.values()
            if job.tenant == tenant
            and job.state in (JobState.QUEUED, JobState.ADMITTED, JobState.RETRYING)
        )
        self.admission.check_submit(tenant, queued)
        # ``_order`` moves only once the job is accepted: rejected
        # submissions must not leave id gaps.
        order = self._order + 1
        if job_id is None:
            job_id = f"job-{order:05d}"
        if job_id in self.jobs:
            raise ServiceError(
                f"job id {job_id!r} already exists", reason="duplicate_job"
            )
        now = self.clock()
        arguments = dict(
            job_id=job_id,
            tenant=tenant,
            spec=dict(spec or {}),
            gpus=int(gpus),
            pool=str(pool),
            priority=self.admission.effective_priority(tenant, priority),
            submitted_at=now,
            updated_at=now,
            order=order,
            max_runtime_s=(
                float(max_runtime_s) if max_runtime_s is not None else None
            ),
        )
        record = JobRecord(**arguments)
        # Durability before visibility: the constructor's arguments hit
        # the WAL before the job becomes claimable by a tick.  A store
        # that fails right here sheds this submission (nothing buffered
        # — the caller was told the job was not accepted).
        try:
            self.store.append("submit", job=arguments)
        except StoreUnavailable as error:
            self.degraded = True
            raise ServiceUnavailable(
                f"durable store is unavailable ({error}); submission shed",
                reason="store_unavailable",
            )
        self._order = order
        self.jobs[job_id] = record
        self._live[job_id] = record
        return job_id

    def cancel(self, job_id: str) -> JobState:
        """Cancel a job; idempotent on terminal jobs (returns the state)."""
        with self._lock:
            job = self._job(job_id)
            if job.is_terminal:
                return job.state
            # Clearing the token fences any in-flight worker's late report.
            self._move(
                job, JobState.CANCELLED, self.clock(),
                detail="cancelled by user", token=None, worker=None,
            )
            return job.state

    def status(self, job_id: str) -> dict:
        """One job's full record (JSON-safe)."""
        return self._job(job_id).to_json()

    def job_list(
        self,
        tenant: Optional[str] = None,
        state: Optional[Union[JobState, str]] = None,
    ) -> list[dict]:
        """All jobs (optionally filtered), in submission order."""
        wanted = JobState(state) if state is not None else None
        return [
            job.to_json()
            for job in self.jobs.values()
            if (tenant is None or job.tenant == tenant)
            and (wanted is None or job.state is wanted)
        ]

    def stats(self) -> dict:
        """Service-level health: epoch, degradation, per-state counts."""
        with self._lock:
            by_state = self._terminal_counts + Counter(
                job.state.value for job in self._live.values()
            )
            return {
                "epoch": self.epoch,
                "degraded": self.degraded,
                "buffered_records": len(self._pending),
                "jobs": dict(sorted(by_state.items())),
                "workers": self.workers.counts(),
                "live_workers": len(self.workers.live(self.clock())),
                "counters": dict(self.counters),
            }

    @property
    def active_jobs(self) -> int:
        """Jobs not yet in a terminal state."""
        return len(self._live)

    # ------------------------------------------------------------------
    # Worker-facing: the pull protocol
    # ------------------------------------------------------------------
    def register_worker(self, name: str = "", capacity: int = 1) -> dict:
        """Register one worker incarnation; returns its identity + lease.

        Ids are epoch-scoped (``w{epoch}-{n}``), so an identity from a
        dead epoch can never collide with a live one.  The registration
        is a WAL record: recovery restores the roster, then the orphan
        sweep marks every restored worker lost (its lease and tokens
        belong to the dead epoch), forcing a re-register.
        """
        with self._lock:
            now = self.clock()
            record = self.workers.register(
                name=name, capacity=capacity, now=now, epoch=self.epoch
            )
            self._append(
                "worker_register",
                worker=record.worker_id,
                name=record.name,
                capacity=record.capacity,
                epoch=record.epoch,
                at=now,
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    "worker_register",
                    now,
                    worker=record.worker_id,
                    capacity=record.capacity,
                )
            return {
                "worker_id": record.worker_id,
                "epoch": self.epoch,
                "ttl": self.workers.ttl,
            }

    def worker_heartbeat(self, worker_id: str) -> dict:
        """Renew a worker's lease; raises
        :class:`~repro.service.errors.UnknownWorkerError` once reaped.

        The response carries the daemon's view of the worker's claim
        set, so a worker can notice a job was revoked from under it
        (deadline, stalled-dispatch reap) and abort the local run.
        """
        with self._lock:
            now = self.clock()
            record = self.workers.heartbeat(worker_id, now)
            return {
                "worker_id": worker_id,
                "epoch": self.epoch,
                "jobs": sorted(record.jobs),
            }

    def claim(
        self, worker_id: str, max_jobs: int = 1
    ) -> list[tuple[JobRecord, DispatchToken]]:
        """Hand up to ``max_jobs`` dispatchable jobs to a live worker.

        A claim counts as a heartbeat — a worker actively pulling work
        is alive by definition.  Each grant is a full dispatch: token
        issued, DISPATCHED transition in the WAL, job bound to the
        worker's claim set (what the reaper re-queues if the lease
        lapses).
        """
        with self._lock:
            now = self.clock()
            worker = self.workers.heartbeat(worker_id, now)
            stats = TickStats()
            self._promote_retries(now, stats)
            self._admit_queued(now, stats)
            granted: list[tuple[JobRecord, DispatchToken]] = []
            budget = min(int(max_jobs), worker.free_slots)
            if budget <= 0:
                return granted
            usage = in_flight_gpus(self._live.values())
            admitted = [
                job
                for job in self._live.values()
                if job.state is JobState.ADMITTED
            ]
            for job in self._priority_order(admitted):
                if len(granted) >= budget:
                    break
                if not self.admission.may_admit(job, usage):
                    continue
                token = self._issue(job, now, worker=worker)
                key = (job.tenant, job.pool)
                usage[key] = usage.get(key, 0) + job.gpus
                granted.append((job, token))
            return granted

    def report(self, token: DispatchToken, outcome: JobOutcome) -> dict:
        """A worker reports one execution's outcome, fenced by the token.

        Exactly-once: the report lands iff the token is the job's
        *current* dispatch in the *current* epoch and the job is still
        RUNNING.  Zombies — a reaped worker, a revoked deadline, a
        recovered epoch — get a structured rejection, not a double
        effect.
        """
        with self._lock:
            now = self.clock()
            job = self.jobs.get(token.job_id)
            accepted, reason = True, "ok"
            if job is None:
                accepted, reason = False, "unknown_job"
            elif token.epoch != self.epoch:
                accepted, reason = False, "stale_epoch"
            elif job.token is None or job.token != token.to_json():
                # The job was re-queued (worker loss, revoke) or already
                # completed; this report belongs to a fenced dispatch.
                accepted, reason = False, "token_mismatch"
            elif job.state is not JobState.RUNNING:
                accepted, reason = False, "not_running"
            if self.tracer.enabled:
                self.tracer.emit(
                    "job_report",
                    now,
                    job=token.job_id,
                    accepted=accepted,
                    reason=reason,
                )
            if not accepted:
                self.counters["report_rejections"] += 1
                return {
                    "accepted": False,
                    "reason": reason,
                    "state": job.state.value if job is not None else None,
                }
            self.counters["reports"] += 1
            self._complete(now, job, outcome, TickStats())
            return {
                "accepted": True,
                "reason": "ok",
                "state": job.state.value,
            }

    # ------------------------------------------------------------------
    # Worker-facing: token redemption
    # ------------------------------------------------------------------
    def start(self, token: DispatchToken) -> JobRecord:
        """Redeem a dispatch token; the only way work may start.

        Raises :class:`TokenError` for stale-epoch, reused, mismatched
        or otherwise invalid tokens.  Emits a ``dispatch_token`` trace
        event either way.
        """
        with self._lock:
            now = self.clock()
            job = self.jobs.get(token.job_id)
            try:
                if token.epoch != self.epoch:
                    # Checked before the job's state so a zombie from a
                    # dead epoch learns the real reason, not whatever
                    # state its re-queued job happens to be in.
                    raise TokenError(
                        f"token epoch {token.epoch} != service epoch "
                        f"{self.epoch}; start from a dead incarnation "
                        "rejected",
                        reason="stale_epoch",
                    )
                if job is None:
                    raise TokenError(
                        f"token names unknown job {token.job_id!r}",
                        reason="unknown_job",
                    )
                if job.state is not JobState.DISPATCHED:
                    raise TokenError(
                        f"job {token.job_id!r} is {job.state.value}, not "
                        "dispatched; duplicate or out-of-order start rejected",
                        reason="not_dispatched",
                    )
                self.issuer.redeem(token, job.token)
            except TokenError as error:
                self.counters["start_rejections"] += 1
                self._emit_token(now, token, accepted=False, reason=error.reason)
                raise
            self.counters["starts"] += 1
            self._emit_token(now, token, accepted=True, reason="ok")
            self._move(job, JobState.RUNNING, now, started_at=now)
            return job

    def _emit_token(
        self, now: float, token: DispatchToken, accepted: bool, reason: str
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "dispatch_token",
                now,
                job=token.job_id,
                epoch=token.epoch,
                seq=token.seq,
                accepted=accepted,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> TickStats:
        """One scheduling pass: flush, reap, re-admit, dispatch.

        With no live workers the tick also executes dispatched work
        in-process (the synchronous single-node plane every chaos
        scenario drives deterministically); once workers hold live
        leases, admitted jobs wait to be claimed instead.
        """
        with self._lock:
            now = self.clock() if now is None else now
            stats = TickStats()
            if self.degraded:
                # A failed cut closed the WAL, and compaction (the other
                # cut) waits for the buffer to drain: reopen it here.
                try:
                    self.store.reopen()
                except StoreUnavailable as error:
                    logger.error("store still unavailable: %s", error)
            stats.flushed = self._flush_pending()
            self._reap_workers(now, stats)
            self._reap_stalled_dispatches(now, stats)
            self._reap_deadlines(now, stats)
            self._promote_retries(now, stats)
            self._admit_queued(now, stats)
            if not self.workers.live(now):
                self._self_execute(now, stats)
            if not self.degraded:
                # Compaction failing must degrade, not kill, the service —
                # the WAL already holds every record the snapshot would.
                committed = self.store.sealed_bytes
                try:
                    stats.compacted = self.store.maybe_compact(
                        self._snapshot_state
                    )
                except StoreUnavailable as error:
                    logger.error(
                        "store unavailable during compaction: %s", error
                    )
                    self.degraded = True
                if self.store.sealed_bytes != committed:
                    # A snapshot committed the batch (even if the WAL reset
                    # after it failed).  A compaction that failed before
                    # that keeps it: the store truncates the partial append.
                    self._unsealed.clear()
            return stats

    def _priority_order(self, records: list[JobRecord]) -> list[JobRecord]:
        return sorted(records, key=lambda job: (-job.priority, job.order))

    def _promote_retries(self, now: float, stats: TickStats) -> None:
        due = [
            job
            for job in self._live.values()
            if job.state is JobState.RETRYING and job.not_before <= now
        ]
        for job in self._priority_order(due):
            self._move(job, JobState.ADMITTED, now)
            stats.admitted += 1

    def _admit_queued(self, now: float, stats: TickStats) -> None:
        queued = [
            job for job in self._live.values() if job.state is JobState.QUEUED
        ]
        for job in self._priority_order(queued):
            self._move(job, JobState.ADMITTED, now)
            stats.admitted += 1

    def _issue(
        self,
        job: JobRecord,
        now: float,
        worker: Optional[WorkerRecord] = None,
    ) -> DispatchToken:
        """Issue a dispatch token and move an ADMITTED job to DISPATCHED.

        The single dispatch path for both planes: ``worker`` binds the
        job to a claim set; ``None`` means the daemon is dispatching to
        itself.
        """
        token = self.issuer.issue(job.job_id)
        self._move(
            job, JobState.DISPATCHED, now, token=token.to_json(),
            dispatches=job.dispatches + 1, started_at=0.0,
            worker=worker.worker_id if worker is not None else None,
        )
        return token

    def _self_execute(self, now: float, stats: TickStats) -> None:
        """The synchronous single-node plane: with no live workers the
        daemon dispatches to itself and runs jobs inline."""
        usage = in_flight_gpus(self._live.values())
        admitted = [
            job for job in self._live.values() if job.state is JobState.ADMITTED
        ]
        for job in self._priority_order(admitted):
            if not self.admission.may_admit(job, usage):
                continue  # stays ADMITTED until capacity frees up
            token = self._issue(job, now)
            key = (job.tenant, job.pool)
            usage[key] = usage.get(key, 0) + job.gpus
            stats.dispatched += 1
            self._run_one(now, job, token, stats)

    # ------------------------------------------------------------------
    # Reapers: leases, stalled claims, deadlines
    # ------------------------------------------------------------------
    def _reap_workers(self, now: float, stats: TickStats) -> None:
        """Reap workers whose lease lapsed; re-queue their in-flight jobs
        without consuming attempts (the executions never reported)."""
        for worker in self.workers.expired(now):
            claimed = sorted(worker.jobs)
            self._lose_worker(worker, now, reason="lease_expired")
            stats.reaped_workers += 1
            for job_id in claimed:
                job = self.jobs.get(job_id)
                if job is None or job.state not in (
                    JobState.DISPATCHED, JobState.RUNNING
                ):
                    continue
                self._requeue_lost(
                    job, now,
                    detail=(
                        f"worker {worker.worker_id} lost "
                        f"(lease expired after {self.workers.ttl:g}s)"
                    ),
                )
                stats.requeued += 1

    def _reap_stalled_dispatches(self, now: float, stats: TickStats) -> None:
        """Revoke claims that never started.

        A worker can heartbeat forever yet never redeem its token (hung
        between claim and start).  The lease cannot catch that, so a
        worker-held DISPATCHED job older than ``dispatch_timeout`` is
        re-queued; clearing the token fences the stalled worker's
        eventual late ``start``.
        """
        for job in self._live.values():
            if (
                job.state is JobState.DISPATCHED
                and job.worker is not None
                and now - job.updated_at > self.dispatch_timeout
            ):
                self._requeue_lost(
                    job, now,
                    detail=(
                        f"dispatch to {job.worker} stalled past "
                        f"{self.dispatch_timeout:g}s; claim revoked"
                    ),
                )
                self.counters["stalled_requeued"] += 1
                stats.requeued += 1

    def _reap_deadlines(self, now: float, stats: TickStats) -> None:
        """Fail RUNNING jobs past their ``max_runtime_s`` deadline.

        Unlike a worker loss, a deadline expiry is an execution that ran
        and used its budget, so it *does* consume an attempt against the
        retry policy (as a transient failure).  :meth:`_complete` clears
        the token, fencing the hung worker's eventual report.
        """
        # A copy: a deadline that exhausts the attempts fails the job for
        # good, which takes it out of the index mid-walk.
        for job in list(self._live.values()):
            if job.state is not JobState.RUNNING or job.max_runtime_s is None:
                continue
            # updated_at of the RUNNING transition doubles as the start
            # time for records replayed from WALs without started_at.
            started = job.started_at if job.started_at else job.updated_at
            if now - started > job.max_runtime_s:
                self.counters["deadline_failures"] += 1
                stats.deadlined += 1
                self._complete(
                    now, job,
                    JobOutcome.failure(
                        FailureKind.TRANSIENT,
                        detail=(
                            "deadline exceeded: still running past "
                            f"max_runtime_s={job.max_runtime_s:g}"
                        ),
                    ),
                    stats,
                )

    def _run_one(
        self, now: float, job: JobRecord, token: DispatchToken, stats: TickStats
    ) -> None:
        """The in-process worker: redeem the token, execute, report."""
        try:
            self.start(token)
        except TokenError as error:  # pragma: no cover - defensive
            logger.error("self-dispatch rejected: %s", error)
            return
        try:
            outcome = self.executor.execute(job)
        except Exception as error:  # noqa: BLE001 - seam boundary
            outcome = JobOutcome.failure(
                classify_exception(error), detail=f"{type(error).__name__}: {error}"
            )
        self._complete(now, job, outcome, stats)

    def _complete(
        self, now: float, job: JobRecord, outcome: JobOutcome, stats: TickStats
    ) -> None:
        """Land one execution's outcome, from the in-process worker or a
        report.  A result the WAL cannot encode fails the job FATAL.  Every
        move out clears the token (fencing the dispatch) and releases the
        worker."""
        if outcome.ok and outcome.result is not None:
            try:
                encode(outcome.result)
            except (TypeError, ValueError, RecursionError) as error:
                outcome = JobOutcome.failure(
                    FailureKind.FATAL, detail=f"{type(error).__name__}: {error}"
                )
        if outcome.ok:
            self._move(
                job, JobState.FINISHED, now,
                token=None, result=outcome.result, worker=None,
            )
            stats.finished += 1
            return
        attempts = job.attempts + 1
        kind = outcome.failure_kind or FailureKind.FATAL
        if self.retry.should_retry(kind, attempts):
            delay = self.retry.delay(attempts, key=job.job_id)
            self._move(
                job, JobState.RETRYING, now,
                detail=outcome.detail or f"{kind.value} failure",
                token=None, worker=None, attempts=attempts,
                not_before=now + delay,
            )
            stats.retried += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "job_retry",
                    now,
                    job=job.job_id,
                    attempt=job.attempts,
                    failure_kind=kind.value,
                    delay=delay,
                )
            return
        self._move(
            job, JobState.FAILED, now,
            detail=outcome.detail
            or f"{kind.value} failure, attempts exhausted",
            token=None, worker=None, attempts=attempts,
        )
        stats.failed += 1

    # ------------------------------------------------------------------
    # Lifecycle helpers
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def close(self) -> None:
        """Release the store (idempotent); the WAL stays replayable."""
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(epoch={self.epoch}, jobs={len(self.jobs)}, "
            f"degraded={self.degraded})"
        )
