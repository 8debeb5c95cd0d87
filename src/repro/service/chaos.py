"""Chaos harness: seeded, reproducible crash/corruption scenarios.

The harness drives the control plane through the failure modes the
ISSUE's recovery invariant names:

* **crash/restart** — :class:`CrashingStore` kills the service (raises
  :class:`SimulatedCrash`) immediately *before* the N-th WAL append,
  which — at record granularity — covers every ``kill -9`` point: a
  crash immediately after append K is indistinguishable from a crash
  before append K+1.  Optionally a torn partial line is left behind,
  modelling a write cut mid-record.
* **store-corruption-tail** — :func:`garble_wal_tail` truncates or
  garbles the final WAL bytes; recovery must drop exactly the torn
  tail and keep everything before it.
* **duplicate dispatch** — replaying a pre-crash token against the
  restarted service must be rejected (``stale_epoch``), and redeeming
  the same token twice in one epoch must be rejected too.
* **worker faults** — :class:`SimWorker` drives the daemon's pull
  protocol one explicit step at a time (no HTTP, no threads), so a
  fault is an *omission*: a killed worker simply never makes its next
  call (``kill -9`` erases its memory too), a stalled worker
  heartbeats without progressing, and a zombie holds its report and
  fires it after the daemon re-queued the job — which the token fence
  must reject.  :func:`drain_fleet` interleaves ticks (leases, reapers)
  with each live worker's pull cycle until the plane drains.

:func:`run_with_crashes` is the property-test workhorse: it replays
one scripted workload through a schedule of crash points (each
incarnation ``i`` dies after ``crash_points[i]`` of *its own* WAL
appends; the final incarnation runs crash-free until the service
drains) and reports terminal states plus the per-token start log so
tests can assert convergence and no-double-start.  Sweeping
``crash_points=[k]`` over every ``k`` up to the uninterrupted run's
record count covers every single ``kill -9`` position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.service.admission import AdmissionController
from repro.service.daemon import ControlPlane, Executor, JobOutcome
from repro.service.errors import TokenError, UnknownWorkerError
from repro.service.retry import RetryPolicy
from repro.service.state import JobRecord
from repro.service.store import DurableStore, StoreUnavailable


class SimulatedCrash(RuntimeError):
    """The chaos harness's ``kill -9``: unwind with no cleanup."""


class CrashingStore(DurableStore):
    """A durable store that dies immediately before one append.

    ``crash_after`` counts *lifetime* appends: the store raises
    :class:`SimulatedCrash` when asked to perform append number
    ``crash_after + 1``, so the first ``crash_after`` records land and
    the next is lost — exactly a ``kill -9`` between two records.
    ``torn_tail`` additionally leaves a partial JSON line in the WAL,
    modelling a crash mid-write.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        crash_after: Optional[int] = None,
        torn_tail: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(root, **kwargs)
        self.crash_after = crash_after
        self.torn_tail = torn_tail

    def append(self, kind: str, **fields) -> int:
        if self.crash_after is not None and self.appends >= self.crash_after:
            if self.torn_tail and self._fh is not None:
                # A torn write: half a record, no newline.
                self._fh.write(b'{"seq": 99999, "kind": "torn')
            self.close()
            raise SimulatedCrash(
                f"simulated kill -9 before append #{self.appends + 1}"
            )
        return super().append(kind, **fields)


class FlakyStore(DurableStore):
    """A store whose availability tests can toggle (degradation drills)."""

    def __init__(self, root: Union[str, Path], **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.available = True

    def append(self, kind: str, **fields) -> int:
        if not self.available:
            raise StoreUnavailable("flaky store is switched off")
        return super().append(kind, **fields)

    def maybe_compact(self, build: Callable[[], tuple]) -> bool:
        if not self.available:
            return False
        return super().maybe_compact(build)


def garble_wal_tail(
    root: Union[str, Path], *, drop_bytes: int = 0, garbage: bytes = b""
) -> None:
    """Corrupt the WAL's tail: truncate ``drop_bytes`` and/or append junk."""
    wal = Path(root) / "wal.jsonl"
    data = wal.read_bytes()
    if drop_bytes:
        data = data[: max(0, len(data) - drop_bytes)]
    wal.write_bytes(data + garbage)


# ----------------------------------------------------------------------
# Scripted, deterministic execution
# ----------------------------------------------------------------------
@dataclass
class ScriptedExecutor(Executor):
    """Outcomes scripted per job, indexed by *consumed attempts*.

    ``script`` maps ``job_id`` to the outcome sequence of its
    executions: execution ``n`` (zero-based index ``record.attempts``)
    returns ``script[job_id][n]`` (the last entry repeats).  Keying by
    consumed attempts — not by invocation count — is what makes a
    crashed-and-replayed execution deterministic: an execution whose
    outcome never reached the WAL re-runs with the same script index.

    ``executions`` logs every invocation as ``(job_id, attempts)`` so
    tests can observe at-least-once behaviour; ``started_tokens`` is
    filled by :func:`run_crash_schedule` from the daemon's start gate.
    """

    script: Mapping[str, Sequence[JobOutcome]] = field(default_factory=dict)
    default: JobOutcome = field(default_factory=JobOutcome.success)
    executions: list = field(default_factory=list)

    def execute(self, record: JobRecord) -> JobOutcome:
        self.executions.append((record.job_id, record.attempts))
        outcomes = self.script.get(record.job_id)
        if not outcomes:
            return self.default
        return outcomes[min(record.attempts, len(outcomes) - 1)]


@dataclass
class FakeClock:
    """A manually advanced clock (keeps backoff windows deterministic)."""

    now: float = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


# ----------------------------------------------------------------------
# The simulated worker fleet
# ----------------------------------------------------------------------
class SimWorker:
    """A deterministic in-process stand-in for one ``repro worker``.

    It speaks the daemon's pull protocol directly — no HTTP, no
    threads — one explicit step at a time, so fleet chaos tests are
    exact.  Claimed work moves through three local phases mirroring
    the real loop: ``pending`` (claimed, not started), ``running``
    (token redeemed), ``unreported`` (executed, outcome in hand).  A
    fault is an omission: :meth:`kill` erases all three (a ``kill -9``
    takes the worker's memory with it); a stalled worker calls
    :meth:`heartbeat` but never :meth:`step`; a zombie keeps its
    ``unreported`` entries and fires them late via :meth:`report_all`.
    """

    def __init__(
        self,
        plane: ControlPlane,
        executor: Optional[Executor] = None,
        *,
        name: str = "",
        capacity: int = 1,
    ) -> None:
        self.plane = plane
        self.executor = executor if executor is not None else ScriptedExecutor()
        self.capacity = capacity
        grant = plane.register_worker(name=name, capacity=capacity)
        self.worker_id = str(grant["worker_id"])
        self.alive = True
        self.pending: list = []  # (record, token)
        self.running: list = []  # (record, token)
        self.unreported: list = []  # (record, token, outcome)
        self.fenced: list = []  # (job_id, reason) rejections observed

    # -- protocol steps ------------------------------------------------
    def heartbeat(self) -> bool:
        """Renew the lease; False once the daemon reaped this worker."""
        try:
            self.plane.worker_heartbeat(self.worker_id)
        except UnknownWorkerError:
            return False
        return True

    def claim(self, max_jobs: Optional[int] = None) -> int:
        """Pull dispatchable work; returns how many jobs were granted."""
        try:
            grants = self.plane.claim(
                self.worker_id,
                max_jobs=max_jobs if max_jobs is not None else self.capacity,
            )
        except UnknownWorkerError:
            return 0
        self.pending.extend(grants)
        return len(grants)

    def start_all(self) -> None:
        """Redeem every pending token; fenced starts are recorded."""
        for record, token in self.pending:
            try:
                self.plane.start(token)
            except TokenError as error:
                self.fenced.append((record.job_id, error.reason))
                continue
            self.running.append((record, token))
        self.pending = []

    def execute_all(self) -> None:
        """Run every started job; outcomes wait in ``unreported``."""
        for record, token in self.running:
            outcome = self.executor.execute(record)
            self.unreported.append((record, token, outcome))
        self.running = []

    def report_all(self) -> None:
        """Deliver held outcomes; fenced reports are recorded."""
        for record, token, outcome in self.unreported:
            verdict = self.plane.report(token, outcome)
            if not verdict.get("accepted"):
                self.fenced.append((record.job_id, verdict.get("reason")))
        self.unreported = []

    def step(self) -> None:
        """One full pull cycle: claim, start, execute, report."""
        if not self.alive:
            return
        self.claim()
        self.start_all()
        self.execute_all()
        self.report_all()

    # -- faults --------------------------------------------------------
    def kill(self) -> None:
        """``kill -9``: stop participating and lose all local state."""
        self.alive = False
        self.pending = []
        self.running = []
        self.unreported = []


def drain_fleet(
    plane: ControlPlane,
    clock: FakeClock,
    workers: Sequence[SimWorker],
    *,
    step: float = 1.0,
    max_rounds: int = 500,
) -> None:
    """Interleave ticks with each live worker's pull cycle until drained.

    Each round is one tick (reapers, lease checks, retry promotion)
    followed by one :meth:`SimWorker.step` per live worker, then the
    clock advances — so killed workers age past the lease TTL while
    the survivors keep claiming.
    """
    for _ in range(max_rounds):
        plane.tick()
        for worker in workers:
            worker.step()
        if plane.active_jobs == 0:
            return
        clock.advance(step)
    raise RuntimeError(
        f"fleet did not drain within {max_rounds} rounds "
        f"({plane.active_jobs} jobs still active)"
    )


# ----------------------------------------------------------------------
# Scenario drivers
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """What one chaos schedule observed."""

    terminal_states: dict = field(default_factory=dict)
    crashes: int = 0
    epochs: int = 0
    executions: list = field(default_factory=list)
    started_tokens: list = field(default_factory=list)  # (epoch, seq, job)
    accepted_reports: list = field(default_factory=list)  # (epoch, seq, job)
    rejected_reports: list = field(default_factory=list)  # (job, reason)
    stale_rejections: int = 0

    def states_by_job(self) -> dict:
        return dict(sorted(self.terminal_states.items()))


def _drain(
    plane: ControlPlane, clock: FakeClock, *, step: float = 1.0, max_ticks: int = 500
) -> None:
    for _ in range(max_ticks):
        plane.tick()
        if plane.active_jobs == 0:
            return
        clock.advance(step)
    raise RuntimeError(
        f"service did not drain within {max_ticks} ticks "
        f"({plane.active_jobs} jobs still active)"
    )


def _record_starts(plane: ControlPlane, report: ChaosReport) -> None:
    original = plane.start

    def tracked_start(token):
        job = original(token)
        report.started_tokens.append((token.epoch, token.seq, token.job_id))
        return job

    plane.start = tracked_start  # type: ignore[method-assign]


def _record_reports(plane: ControlPlane, report: ChaosReport) -> None:
    original = plane.report

    def tracked_report(token, outcome):
        verdict = original(token, outcome)
        if verdict.get("accepted"):
            report.accepted_reports.append(
                (token.epoch, token.seq, token.job_id)
            )
        else:
            report.rejected_reports.append(
                (token.job_id, verdict.get("reason"))
            )
        return verdict

    plane.report = tracked_report  # type: ignore[method-assign]


def instrument(plane: ControlPlane) -> ChaosReport:
    """Wrap a plane's start/report gates; returns the live report."""
    report = ChaosReport(epochs=1)
    _record_starts(plane, report)
    _record_reports(plane, report)
    return report


def run_uninterrupted(
    root: Union[str, Path],
    submissions: Sequence[Mapping],
    executor: Executor,
    *,
    retry: Optional[RetryPolicy] = None,
    admission: Optional[AdmissionController] = None,
    step: float = 1.0,
) -> ChaosReport:
    """Run the scripted workload to completion with no failures."""
    clock = FakeClock()
    retry = retry if retry is not None else RetryPolicy(base_delay=0.5, jitter=0.0)
    plane = ControlPlane(
        DurableStore(root),
        executor=executor,
        retry=retry,
        admission=admission if admission is not None else AdmissionController(),
        clock=clock,
    )
    report = ChaosReport(epochs=1)
    _record_starts(plane, report)
    for submission in submissions:
        plane.submit(**submission)
    _drain(plane, clock, step=step)
    report.terminal_states = {
        job_id: job.state.value for job_id, job in plane.jobs.items()
    }
    report.executions = list(getattr(executor, "executions", ()))
    plane.close()
    return report


def run_with_crashes(
    root: Union[str, Path],
    submissions: Sequence[Mapping],
    executor_factory,
    *,
    crash_points: Sequence[int],
    torn_tail: bool = False,
    retry: Optional[RetryPolicy] = None,
    admission: Optional[AdmissionController] = None,
    step: float = 1.0,
    max_restarts: int = 50,
) -> ChaosReport:
    """Replay the workload through a schedule of ``kill -9`` points.

    Incarnation ``i`` runs on a :class:`CrashingStore` that dies after
    ``crash_points[i]`` of its own WAL appends; once the schedule is
    exhausted, the final incarnation runs crash-free until the service
    drains.  Each incarnation gets a fresh store object over the same
    directory (the on-disk state is all that survives a real ``kill
    -9``) and a fresh executor from ``executor_factory`` (worker-side
    memory dies with the process).  Submissions carry explicit
    ``job_id`` values and are replayed until the WAL has them — a
    submission lost to a crash is retried on the next incarnation.
    """
    retry = retry if retry is not None else RetryPolicy(base_delay=0.5, jitter=0.0)
    clock = FakeClock()
    report = ChaosReport()
    schedule = list(crash_points)
    for incarnation in range(max_restarts):
        if incarnation < len(schedule):
            store: DurableStore = CrashingStore(
                root, crash_after=schedule[incarnation], torn_tail=torn_tail
            )
        else:
            store = DurableStore(root)
        executor = executor_factory()
        try:
            plane = ControlPlane(
                store,
                executor=executor,
                retry=retry,
                admission=(
                    admission if admission is not None else AdmissionController()
                ),
                clock=clock,
            )
        except SimulatedCrash:
            report.crashes += 1
            continue
        report.epochs += 1
        _record_starts(plane, report)
        try:
            for submission in submissions:
                if submission["job_id"] not in plane.jobs:
                    plane.submit(**submission)
            _drain(plane, clock, step=step)
        except SimulatedCrash:
            report.crashes += 1
            report.executions.extend(executor.executions)
            continue
        report.executions.extend(executor.executions)
        report.terminal_states = {
            job_id: job.state.value for job_id, job in plane.jobs.items()
        }
        plane.close()
        return report
    raise RuntimeError(f"workload did not drain within {max_restarts} restarts")


def assert_no_double_start(report: ChaosReport) -> None:
    """Every issued token was redeemed at most once (epoch, seq) unique."""
    seen: set[tuple] = set()
    for epoch, seq, job_id in report.started_tokens:
        key = (epoch, seq)
        if key in seen:
            raise AssertionError(
                f"token (epoch={epoch}, seq={seq}) for job {job_id!r} "
                "started twice"
            )
        seen.add(key)


def assert_no_double_report(report: ChaosReport) -> None:
    """Every dispatch landed at most one accepted report."""
    seen: set[tuple] = set()
    for epoch, seq, job_id in report.accepted_reports:
        key = (epoch, seq)
        if key in seen:
            raise AssertionError(
                f"token (epoch={epoch}, seq={seq}) for job {job_id!r} "
                "reported twice"
            )
        seen.add(key)
