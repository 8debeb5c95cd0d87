"""Worker-fleet tests: leases, fenced claims, failure-driven re-dispatch.

The deterministic suite drives :class:`SimWorker` fleets against a
FakeClock plane — worker ``kill -9`` swept over every dispatched-job
phase, stalled-but-heartbeating workers, zombie double-reports — and
asserts the recovery invariant: terminal states identical to the
uninterrupted run, zero double-starts, zero double-reports, worker
losses consuming no retry attempts.  A second group exercises the real
transport: :class:`WorkerLoop` over HTTP and the per-job child process
of :class:`SubprocessExecutor`.
"""

import io
import json
import threading
import time

import pytest

from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.api import ServiceClient
from repro.service.chaos import (
    FakeClock,
    ScriptedExecutor,
    SimWorker,
    assert_no_double_report,
    assert_no_double_start,
    drain_fleet,
    instrument,
    run_uninterrupted,
)
from repro.service.daemon import ControlPlane, JobOutcome, NoopExecutor
from repro.service.errors import (
    ServiceUnavailable,
    TokenError,
    UnknownWorkerError,
)
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.state import JobRecord, JobState
from repro.service.store import DurableStore
from repro.service.worker import SubprocessExecutor, WorkerLoop, run_child

NO_JITTER = RetryPolicy(base_delay=0.5, jitter=0.0)

#: One of each terminal fate: clean success, transient-then-success,
#: fatal.  Every fleet scenario must converge to the same ending.
SUBMISSIONS = [
    {"spec": {}, "job_id": "ok"},
    {"spec": {}, "job_id": "flaky"},
    {"spec": {}, "job_id": "doomed"},
]

EXPECTED_STATES = {"ok": "finished", "flaky": "finished", "doomed": "failed"}
EXPECTED_ATTEMPTS = {"ok": 0, "flaky": 1, "doomed": 1}


def make_executor() -> ScriptedExecutor:
    return ScriptedExecutor(
        script={
            "flaky": [
                JobOutcome.failure(FailureKind.TRANSIENT, "hiccup"),
                JobOutcome.success(),
            ],
            "doomed": [JobOutcome.failure(FailureKind.FATAL, "bad job")],
        }
    )


@pytest.fixture
def make_plane():
    """``make_plane(root, clock, **kwargs)`` -> a plane over ``root``;
    every plane made is closed at teardown (closing is idempotent)."""
    planes = []

    def make(root, clock, **kwargs):
        kwargs.setdefault("executor", ScriptedExecutor())
        kwargs.setdefault("retry", NO_JITTER)
        kwargs.setdefault("worker_ttl", 3.0)
        kwargs.setdefault("dispatch_timeout", 5.0)
        planes.append(ControlPlane(DurableStore(root), clock=clock, **kwargs))
        return planes[-1]

    yield make
    for plane in planes:
        plane.close()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def test_register_claim_report_happy_path(tmp_path, make_plane):
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    plane.submit({}, job_id="j")
    worker = SimWorker(plane, ScriptedExecutor(), name="alpha")
    plane.tick()
    assert worker.claim() == 1
    assert plane.jobs["j"].state is JobState.DISPATCHED
    assert plane.jobs["j"].worker == worker.worker_id
    worker.start_all()
    assert plane.jobs["j"].state is JobState.RUNNING
    worker.execute_all()
    worker.report_all()
    assert plane.jobs["j"].state is JobState.FINISHED
    assert plane.jobs["j"].worker is None
    assert worker.fenced == []
    assert plane.counters["reports"] == 1


def test_claim_respects_the_pool_cap(tmp_path, make_plane):
    """A claim grants only what the tenant's pool cap admits: the second
    4-GPU job waits ADMITTED until the first one's GPUs come back."""
    clock = FakeClock()
    admission = AdmissionController(default=TenantPolicy(max_concurrent_gpus=4))
    plane = make_plane(tmp_path / "s", clock, admission=admission)
    worker = SimWorker(plane, ScriptedExecutor(), capacity=2)
    plane.submit({}, job_id="first", gpus=4)
    plane.submit({}, job_id="second", gpus=4)
    worker.step()  # claims, runs and reports "first" alone
    assert plane.jobs["second"].state is JobState.ADMITTED
    assert worker.claim() == 1


def test_tick_defers_to_live_workers(tmp_path, make_plane):
    """With a live lease the daemon stops self-executing: admitted jobs
    wait to be claimed instead of running inside the tick."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    SimWorker(plane, ScriptedExecutor())
    plane.submit({}, job_id="j")
    plane.tick()
    assert plane.jobs["j"].state is JobState.ADMITTED


def test_epoch_scoped_worker_ids_never_collide(tmp_path, make_plane):
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    first = plane.register_worker(name="a")["worker_id"]
    plane.close()
    restarted = make_plane(tmp_path / "s", clock)
    second = restarted.register_worker(name="a")["worker_id"]
    assert first != second
    assert first.startswith("w1-") and second.startswith("w2-")
    restarted.close()


def test_worker_roster_survives_recovery_as_lost(tmp_path, make_plane):
    """Registrations replay from the WAL; the orphan sweep then marks
    every recovered worker lost — its lease died with the epoch."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    worker_id = plane.register_worker(name="a")["worker_id"]
    plane.close()
    restarted = make_plane(tmp_path / "s", clock)
    assert restarted.stats()["workers"] == {"lost": 1}
    with pytest.raises(UnknownWorkerError):
        restarted.worker_heartbeat(worker_id)
    restarted.close()


# ----------------------------------------------------------------------
# Worker kill -9 swept over every dispatched-job phase
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["claimed", "started", "executed"])
def test_worker_death_sweep_converges(tmp_path, phase, make_plane):
    """A worker killed with its jobs claimed (DISPATCHED), started
    (RUNNING) or executed-but-unreported must leave terminal states
    identical to the uninterrupted run, with no double effects and no
    attempts consumed by the loss itself."""
    baseline = run_uninterrupted(
        tmp_path / "base", SUBMISSIONS, make_executor(), retry=NO_JITTER
    )
    assert baseline.states_by_job() == EXPECTED_STATES

    clock = FakeClock()
    plane = make_plane(tmp_path / "store", clock)
    report = instrument(plane)
    for submission in SUBMISSIONS:
        plane.submit(**submission)
    victim = SimWorker(plane, make_executor(), name="victim", capacity=3)
    plane.tick()
    assert victim.claim() == 3
    if phase in ("started", "executed"):
        victim.start_all()
    if phase == "executed":
        victim.execute_all()
    victim.kill()

    healthy = SimWorker(plane, make_executor(), name="healthy", capacity=3)
    drain_fleet(plane, clock, [victim, healthy])

    states = {job_id: job.state.value for job_id, job in plane.jobs.items()}
    assert states == EXPECTED_STATES
    attempts = {job_id: job.attempts for job_id, job in plane.jobs.items()}
    assert attempts == EXPECTED_ATTEMPTS  # the loss consumed none
    assert_no_double_start(report)
    assert_no_double_report(report)
    assert plane.counters["workers_lost"] == 1
    assert plane.counters["requeued_lost"] == 3


def test_zombie_double_report_is_fenced(tmp_path, make_plane):
    """A worker that executed a job, went silent past its lease, then
    fired the held report must be rejected — both while the re-queued
    job runs on the replacement worker (the token fences it, not the
    job's state) and after it finished there: the job completed exactly
    once, on the replacement worker."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    report = instrument(plane)
    plane.submit({}, job_id="z")
    zombie = SimWorker(plane, ScriptedExecutor(), name="zombie")
    plane.tick()
    zombie.claim()
    zombie.start_all()
    zombie.execute_all()  # outcome in hand, report withheld
    zombie.alive = False  # silent, but (unlike kill) keeps its state
    held = zombie.unreported

    clock.advance(plane.workers.ttl + 1.0)
    healthy = SimWorker(plane, ScriptedExecutor(), name="healthy")
    plane.tick()  # reaps the zombie: z waits out its retry delay
    clock.advance(1.0)
    healthy.claim()
    healthy.start_all()
    zombie.report_all()  # lands while z runs on the replacement
    assert plane.jobs["z"].state is JobState.RUNNING
    drain_fleet(plane, clock, [healthy])
    assert plane.jobs["z"].state is JobState.FINISHED
    assert plane.jobs["z"].attempts == 0

    zombie.unreported = held
    zombie.report_all()  # the late double-report
    assert zombie.fenced == [("z", "token_mismatch")] * 2
    assert [r for r in report.accepted_reports if r[2] == "z"] != []
    assert_no_double_report(report)
    assert plane.counters["report_rejections"] == 2


def test_stalled_heartbeating_worker_loses_claim(tmp_path, make_plane):
    """A worker that heartbeats but never starts its claim cannot hold
    the job forever: the dispatch timeout revokes it (no attempt
    consumed) and the stalled worker's late start is fenced."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock, dispatch_timeout=3.0)
    plane.submit({}, job_id="s")
    stalled = SimWorker(plane, ScriptedExecutor(), name="stalled")
    plane.tick()
    stalled.claim()
    for _ in range(4):  # alive by lease, no progress on the claim
        clock.advance(1.0)
        stalled.heartbeat()
        plane.tick()
    assert plane.counters["stalled_requeued"] == 1

    healthy = SimWorker(plane, ScriptedExecutor(), name="healthy")
    drain_fleet(plane, clock, [healthy])
    assert plane.jobs["s"].state is JobState.FINISHED
    assert plane.jobs["s"].attempts == 0

    stalled.start_all()  # the fenced late start
    assert len(stalled.fenced) == 1
    assert stalled.fenced[0][1] in ("not_dispatched", "token_mismatch")


def test_a_claim_is_revoked_only_past_the_dispatch_timeout(tmp_path, make_plane):
    """A claim exactly ``dispatch_timeout`` old still holds; the first
    tick past it revokes the claim."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock, dispatch_timeout=3.0)
    plane.submit({}, job_id="s")
    worker = SimWorker(plane, ScriptedExecutor(), name="slow")
    plane.tick()
    worker.claim()
    clock.advance(3.0)
    worker.heartbeat()
    plane.tick()
    assert plane.jobs["s"].state is JobState.DISPATCHED
    assert plane.counters["stalled_requeued"] == 0
    clock.advance(0.5)
    worker.heartbeat()
    plane.tick()
    assert plane.jobs["s"].state is JobState.RETRYING
    assert plane.counters["stalled_requeued"] == 1


def test_a_started_job_outlives_the_dispatch_timeout(tmp_path, make_plane):
    """The dispatch timeout fences claims that never start: a started
    job may run far longer on a live worker, and finishes at its first try."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock, dispatch_timeout=3.0)
    plane.submit({}, job_id="long")
    worker = SimWorker(plane, ScriptedExecutor(), name="busy")
    plane.tick()
    worker.claim()
    worker.start_all()
    for _ in range(10):
        clock.advance(1.0)
        worker.heartbeat()
        plane.tick()
        assert plane.jobs["long"].state is JobState.RUNNING
    worker.execute_all()
    worker.report_all()
    assert worker.fenced == []
    assert plane.jobs["long"].state is JobState.FINISHED
    assert plane.jobs["long"].attempts == 0
    assert plane.counters["stalled_requeued"] == 0


def test_fleet_matches_synchronous_tick(tmp_path, make_plane):
    """Acceptance: a 3-worker fleet drains the batch the synchronous
    single-worker tick serializes, with identical terminal states."""
    submissions = SUBMISSIONS + [
        {"spec": {}, "job_id": f"extra-{i}"} for i in range(3)
    ]
    baseline = run_uninterrupted(
        tmp_path / "sync", submissions, make_executor(), retry=NO_JITTER
    )

    clock = FakeClock()
    plane = make_plane(tmp_path / "fleet", clock)
    report = instrument(plane)
    for submission in submissions:
        plane.submit(**submission)
    workers = [
        SimWorker(plane, make_executor(), name=f"w{i}") for i in range(3)
    ]
    drain_fleet(plane, clock, workers)

    states = {job_id: job.state.value for job_id, job in plane.jobs.items()}
    assert dict(sorted(states.items())) == baseline.states_by_job()
    assert_no_double_start(report)
    assert_no_double_report(report)
    # The fleet actually shared the work: the tick never self-executed.
    assert sum(w.executor.executions != [] for w in workers) >= 2
    plane.close()


# ----------------------------------------------------------------------
# Deadlines (max_runtime_s)
# ----------------------------------------------------------------------
def test_deadline_fails_running_job_transiently(tmp_path, make_plane):
    """A RUNNING job past max_runtime_s becomes a transient failure —
    consuming an attempt — and the hung worker's late report is
    fenced; the retry then completes normally."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    plane.submit({}, job_id="d", max_runtime_s=2.0)
    worker = SimWorker(plane, ScriptedExecutor(), name="hung")
    plane.tick()
    worker.claim()
    worker.start_all()
    clock.advance(3.0)  # past the deadline, no report
    plane.tick()
    job = plane.jobs["d"]
    assert job.state is JobState.RETRYING
    assert job.attempts == 1
    assert "deadline exceeded" in job.detail
    assert plane.counters["deadline_failures"] == 1

    worker.execute_all()
    worker.report_all()  # the hung execution finally reports
    assert worker.fenced == [("d", "token_mismatch")]

    drain_fleet(plane, clock, [worker])
    assert plane.jobs["d"].state is JobState.FINISHED
    assert plane.jobs["d"].attempts == 1


def test_max_runtime_validation(tmp_path, make_plane):
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    with pytest.raises(ValueError):
        plane.submit({}, job_id="bad", max_runtime_s=0)
    job_id = plane.submit({}, job_id="fine", max_runtime_s=10.0)
    assert plane.status(job_id)["max_runtime_s"] == 10.0
    plane.close()


# ----------------------------------------------------------------------
# TokenIssuer race windows
# ----------------------------------------------------------------------
def test_concurrent_redeem_exactly_one_winner(tmp_path, make_plane):
    """Two workers racing to redeem the same token: one start wins,
    the other is rejected — never two RUNNING transitions."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    plane.submit({}, job_id="race")
    worker = SimWorker(plane, ScriptedExecutor())
    plane.tick()
    worker.claim()
    (record, token) = worker.pending[0]

    barrier = threading.Barrier(2)
    results = []

    def redeem():
        barrier.wait()
        try:
            plane.start(token)
            results.append("won")
        except TokenError as error:
            results.append(error.reason)

    threads = [threading.Thread(target=redeem) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(results) == ["not_dispatched", "won"]
    assert plane.jobs["race"].state is JobState.RUNNING
    assert plane.counters["starts"] == 1
    assert plane.counters["start_rejections"] == 1


def test_stale_epoch_redeem_after_recovery_requeue(tmp_path, make_plane):
    """A token claimed before a daemon crash must be rejected as
    stale_epoch after recovery re-queued the job — for start AND for
    report — while the job completes exactly once in the new epoch."""
    clock = FakeClock()
    plane = make_plane(tmp_path / "s", clock)
    plane.submit({}, job_id="j")
    worker = SimWorker(plane, ScriptedExecutor())
    plane.tick()
    worker.claim()
    (record, stale_token) = worker.pending[0]
    plane.close()  # the daemon dies with the claim outstanding

    restarted = make_plane(tmp_path / "s", clock)
    assert restarted.status("j")["state"] == "retrying"
    assert restarted.status("j")["attempts"] == 0
    with pytest.raises(TokenError) as excinfo:
        restarted.start(stale_token)
    assert excinfo.value.reason == "stale_epoch"
    verdict = restarted.report(stale_token, JobOutcome.success())
    assert verdict == {"accepted": False, "reason": "stale_epoch",
                       "state": "retrying"}

    replacement = SimWorker(restarted, ScriptedExecutor())
    drain_fleet(restarted, clock, [replacement])
    assert restarted.jobs["j"].state is JobState.FINISHED
    assert restarted.jobs["j"].attempts == 0
    restarted.close()


# ----------------------------------------------------------------------
# ServiceClient transport retries
# ----------------------------------------------------------------------
def _scripted_client(responses, sleeps):
    client = ServiceClient(
        "http://test",
        retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
        sleep=sleeps.append,
    )
    calls = []

    def fake_once(method, path, payload=None):
        calls.append((method, path))
        result = responses[min(len(calls) - 1, len(responses) - 1)]
        if isinstance(result, Exception):
            raise result
        return result

    client._request_once = fake_once
    return client, calls


def test_client_retries_store_unavailable_posts():
    sleeps = []
    shed = ServiceUnavailable("store down", reason="store_unavailable")
    client, calls = _scripted_client([shed, shed, {"job_id": "j"}], sleeps)
    assert client._request("POST", "/submit", {}) == {"job_id": "j"}
    assert len(calls) == 3
    assert len(sleeps) == 2


def test_client_retries_connection_refused_posts():
    sleeps = []
    refused = ServiceUnavailable("no daemon", reason="unreachable")
    refused.connect_refused = True
    client, calls = _scripted_client([refused, {"job_id": "j"}], sleeps)
    assert client._request("POST", "/submit", {}) == {"job_id": "j"}
    assert len(calls) == 2


def test_client_never_retries_ambiguous_posts():
    """An unreachable error that was NOT a connection refusal (e.g. a
    timeout) may have landed; retrying could double-submit."""
    sleeps = []
    ambiguous = ServiceUnavailable("timed out", reason="unreachable")
    client, calls = _scripted_client([ambiguous, {"job_id": "j"}], sleeps)
    with pytest.raises(ServiceUnavailable):
        client._request("POST", "/submit", {})
    assert len(calls) == 1
    assert sleeps == []


def test_client_retries_gets_on_any_unreachable():
    sleeps = []
    ambiguous = ServiceUnavailable("timed out", reason="unreachable")
    client, calls = _scripted_client([ambiguous, {"jobs": []}], sleeps)
    assert client._request("GET", "/jobs") == {"jobs": []}
    assert len(calls) == 2


def test_client_gives_up_after_max_attempts():
    sleeps = []
    shed = ServiceUnavailable("store down", reason="store_unavailable")
    client, calls = _scripted_client([shed], sleeps)
    with pytest.raises(ServiceUnavailable):
        client._request("GET", "/health")
    assert len(calls) == 4  # max_attempts


# ----------------------------------------------------------------------
# The real transport: WorkerLoop over HTTP, subprocess children
# ----------------------------------------------------------------------
@pytest.fixture()
def live_service(tmp_path, serve):
    plane = ControlPlane(
        DurableStore(tmp_path / "svc"),
        executor=ScriptedExecutor(),
        retry=NO_JITTER,
        worker_ttl=5.0,
    )
    host, port = serve(plane).endpoint
    return plane, ServiceClient(f"http://{host}:{port}", timeout=5.0)


def test_worker_loop_drains_jobs_over_http(live_service):
    plane, client = live_service
    job_ids = [client.submit({"kind": "noop"}) for _ in range(3)]
    loop = WorkerLoop(
        client,
        name="httpw",
        capacity=2,
        executor=NoopExecutor(),
        poll_interval=0.05,
        idle_exit=0.5,
        max_seconds=20.0,
    )
    executed = loop.run()
    assert executed == 3
    for job_id in job_ids:
        assert client.status(job_id)["state"] == "finished"
    health = client.health()
    assert health["counters"]["reports"] == 3
    assert health["counters"]["report_rejections"] == 0


def test_worker_loop_exits_when_reaped(live_service):
    plane, client = live_service
    loop = WorkerLoop(
        client, executor=NoopExecutor(), poll_interval=0.05, max_seconds=10.0
    )
    registered = client.register_worker(name="other")  # not the loop's id

    original_claim = client.claim

    def reap_then_claim(worker_id, max_jobs=1):
        # Simulate the daemon reaping this worker mid-loop.
        with plane._lock:
            record = plane.workers.get(worker_id)
            plane.workers.mark_lost(record.worker_id, plane.clock(), "test")
        return original_claim(worker_id, max_jobs=max_jobs)

    client.claim = reap_then_claim
    assert loop.run() == 0  # exits promptly instead of spinning


def test_subprocess_executor_runs_spec_in_child():
    outcome = SubprocessExecutor().execute(
        JobRecord(job_id="child-ok", spec={"kind": "noop"})
    )
    assert outcome.ok


def test_subprocess_executor_child_imports_the_parents_package(monkeypatch, tmp_path):
    """With no ``PYTHONPATH`` and a working directory away from the
    checkout, the child still finds the ``repro`` this process imported
    (through ``sys.path`` only, as under pytest's ``pythonpath``)."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    outcome = SubprocessExecutor().execute(
        JobRecord(job_id="child-path", spec={"kind": "noop"})
    )
    assert outcome.ok, outcome.detail


def test_subprocess_executor_reports_child_failure():
    outcome = SubprocessExecutor().execute(
        JobRecord(job_id="child-bad", spec={"kind": "fail",
                                            "failure_kind": "fatal"})
    )
    assert not outcome.ok
    assert outcome.failure_kind is FailureKind.FATAL


def test_subprocess_executor_abort_kills_child():
    started = time.monotonic()
    outcome = SubprocessExecutor().execute(
        JobRecord(job_id="child-slow", spec={"kind": "sleep", "seconds": 30}),
        should_abort=lambda: True,
    )
    assert not outcome.ok
    assert outcome.failure_kind is FailureKind.TRANSIENT
    assert "aborted" in outcome.detail
    assert time.monotonic() - started < 15.0  # killed, not waited out


def test_run_child_protocol_roundtrip():
    stdin = io.StringIO(json.dumps(
        {"job": JobRecord(job_id="c", spec={"kind": "noop"}).to_json()}
    ))
    stdout = io.StringIO()
    assert run_child(stdin=stdin, stdout=stdout) == 0
    outcome = JobOutcome.from_json(json.loads(stdout.getvalue()))
    assert outcome.ok


def test_run_child_malformed_payload_is_fatal_outcome():
    stdout = io.StringIO()
    assert run_child(stdin=io.StringIO("not json"), stdout=stdout) == 0
    outcome = JobOutcome.from_json(json.loads(stdout.getvalue()))
    assert not outcome.ok
    assert outcome.failure_kind is FailureKind.FATAL
