"""Unit tests for the ControlPlane daemon: lifecycle, tokens, degradation."""

import json
import socket

import pytest

from repro.obs.tracer import RingTracer
from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.api import MAX_BODY_BYTES
from repro.service.chaos import FakeClock, FlakyStore, ScriptedExecutor
from repro.service.daemon import ControlPlane, JobOutcome
from repro.service.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailable,
    TokenError,
    UnknownJobError,
)
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.state import JobState
from repro.service.store import DurableStore, StoreUnavailable
from repro.service.tokens import DispatchToken


NO_JITTER = RetryPolicy(base_delay=1.0, jitter=0.0)


@pytest.fixture
def make_plane(tmp_path):
    """``make_plane(**kwargs)`` -> ``(plane, clock)`` over ``tmp_path / "store"``;
    every plane made is closed at teardown (closing is idempotent)."""
    planes = []

    def make(**kwargs):
        clock = kwargs.pop("clock", FakeClock())
        kwargs.setdefault("retry", NO_JITTER)
        store = kwargs.pop("store", None) or DurableStore(tmp_path / "store")
        planes.append(ControlPlane(store, clock=clock, **kwargs))
        return planes[-1], clock

    yield make
    for plane in planes:
        plane.close()


def drain(plane, clock, max_ticks=50, step=1.0):
    for _ in range(max_ticks):
        plane.tick()
        if plane.active_jobs == 0:
            return
        clock.advance(step)
    raise AssertionError("did not drain")


def test_submit_tick_finish(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    job_id = plane.submit({"kind": "noop"}, tenant="acme", gpus=2)
    assert plane.status(job_id)["state"] == "queued"
    stats = plane.tick()
    assert stats.admitted == 1
    assert stats.dispatched == 1
    assert stats.finished == 1
    record = plane.status(job_id)
    assert record["state"] == "finished"
    assert record["dispatches"] == 1
    assert record["attempts"] == 0


def test_sim_job_result_carries_the_metric_table_values(make_plane):
    from repro.experiments.config import testbed_scenario
    from repro.experiments.runner import run_scenario
    from repro.metrics import METRICS

    plane, clock = make_plane()  # the default SpecExecutor
    spec = {"kind": "sim", "scheduler": "fifo", "apps": 2, "seed": 3, "duration_scale": 0.05}
    job_id = plane.submit(spec)
    drain(plane, clock)
    record = plane.status(job_id)
    assert record["state"] == "finished"
    direct = run_scenario(testbed_scenario(num_apps=2, seed=3, duration_scale=0.05), "fifo")
    assert record["result"] == {
        "completed": True,
        "num_apps": 2,
        "max_rho": METRICS["max_rho"](direct),
        "avg_jct": METRICS["avg_jct"](direct),
        "total_gpu_time": direct.total_gpu_time,
    }


def test_sim_job_cluster_picks_the_preset_by_kind(make_plane, monkeypatch):
    """``cluster`` goes through ``preset_scenario``: ``hetero`` runs the
    mixed-generation fleet, and a kind no preset has fails FATAL."""
    from repro.experiments import runner
    from repro.experiments.config import hetero_scenario, tiny_scenario

    ran = []
    real_run = runner.run_scenario

    def spy(scenario, scheduler, *args, **kwargs):
        ran.append(scenario)
        return real_run(tiny_scenario(), scheduler)

    monkeypatch.setattr(runner, "run_scenario", spy)
    plane, clock = make_plane()
    hetero = plane.submit(
        {"kind": "sim", "cluster": "hetero", "scheduler": "fifo", "apps": 2, "seed": 3}
    )
    bogus = plane.submit({"kind": "sim", "cluster": "bogus"})
    drain(plane, clock)
    assert ran == [hetero_scenario(num_apps=2, seed=3, duration_scale=0.05)]
    assert plane.status(hetero)["state"] == "finished"
    record = plane.status(bogus)
    assert (record["state"], record["attempts"]) == ("failed", 1)
    assert "'bogus'" in record["detail"]
    assert "['hetero', 'sim', 'testbed']" in record["detail"]


def test_transient_failure_retries_then_succeeds(make_plane):
    script = {
        "j": [
            JobOutcome.failure(FailureKind.TRANSIENT, "flaky"),
            JobOutcome.success({"answer": 42}),
        ]
    }
    executor = ScriptedExecutor(script=script)
    plane, clock = make_plane(executor=executor)
    plane.submit({}, job_id="j")
    plane.tick()
    assert plane.status("j")["state"] == "retrying"
    assert plane.status("j")["attempts"] == 1
    # Not due yet: backoff must elapse first.
    plane.tick()
    assert plane.status("j")["state"] == "retrying"
    clock.advance(2.0)
    plane.tick()
    record = plane.status("j")
    assert record["state"] == "finished"
    assert record["result"] == {"answer": 42}
    assert executor.executions == [("j", 0), ("j", 1)]


def test_fatal_failure_does_not_retry(make_plane):
    executor = ScriptedExecutor(
        script={"j": [JobOutcome.failure(FailureKind.FATAL, "bug")]}
    )
    plane, clock = make_plane(executor=executor)
    plane.submit({}, job_id="j")
    plane.tick()
    record = plane.status("j")
    assert record["state"] == "failed"
    assert record["attempts"] == 1
    assert "bug" in record["detail"]


def test_retries_exhaust_to_failed(make_plane):
    always_fail = ScriptedExecutor(
        default=JobOutcome.failure(FailureKind.TRANSIENT, "still flaky")
    )
    plane, clock = make_plane(
        executor=always_fail,
        retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
    )
    plane.submit({}, job_id="j")
    drain(plane, clock, step=10.0)
    record = plane.status("j")
    assert record["state"] == "failed"
    assert record["attempts"] == 3


def test_executor_exception_is_classified(make_plane):
    class Exploding(ScriptedExecutor):
        def execute(self, record):
            raise ValueError("deterministic bug")

    plane, clock = make_plane(executor=Exploding())
    plane.submit({}, job_id="j")
    plane.tick()
    assert plane.status("j")["state"] == "failed"  # ValueError -> fatal


def test_a_result_the_store_cannot_encode_fails_the_job(tmp_path, make_plane):
    """A circular result ends its job FATAL, run in-process or reported
    by a worker; the plane neither degrades nor buffers a record it
    could never write, keeps compacting, and a restart reads both
    failures back."""
    circular = {}
    circular["self"] = circular

    class Circular(ScriptedExecutor):
        def execute(self, record):
            return JobOutcome.success(circular)

    store = DurableStore(tmp_path / "store", compact_every=1)
    plane, clock = make_plane(store=store, executor=Circular())
    plane.submit({}, job_id="j")
    plane.tick()
    worker_id = plane.register_worker("w")["worker_id"]
    plane.submit({}, job_id="r")
    ((_, token),) = plane.claim(worker_id)
    plane.start(token)
    assert plane.report(token, JobOutcome.success(circular))["state"] == "failed"
    for n in range(3):
        plane.submit({}, job_id=f"k{n}")  # not shed
        assert plane.tick().compacted
    assert not plane.degraded and plane.stats()["buffered_records"] == 0
    plane.close()
    restarted, _ = make_plane(store=DurableStore(tmp_path / "store"))
    for job_id in ("j", "r"):
        record = restarted.status(job_id)
        assert record["state"] == "failed" and record["attempts"] == 1
        assert "Circular reference" in record["detail"]
    restarted.close()


def test_a_spec_the_store_cannot_encode_is_the_callers_error(make_plane):
    """Not a store outage: the submit raises the encoder's ValueError,
    nothing is admitted and the next submission lands."""
    circular = {}
    circular["self"] = circular
    plane, clock = make_plane(executor=ScriptedExecutor())
    with pytest.raises(ValueError, match="Circular reference"):
        plane.submit(circular)
    assert not plane.degraded and plane.job_list() == []
    assert plane.submit({}) == "job-00001"


def test_cancel_before_dispatch_and_idempotent_after_terminal(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    plane.submit({}, job_id="j")
    assert plane.cancel("j") is JobState.CANCELLED
    assert plane.cancel("j") is JobState.CANCELLED  # idempotent
    plane.tick()
    assert plane.status("j")["state"] == "cancelled"  # tick skips it
    with pytest.raises(UnknownJobError):
        plane.cancel("nope")


def test_duplicate_job_id_rejected(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    plane.submit({}, job_id="j")
    with pytest.raises(ServiceError) as excinfo:
        plane.submit({}, job_id="j")
    assert excinfo.value.reason == "duplicate_job"


def test_priority_orders_dispatch(make_plane):
    executor = ScriptedExecutor()
    admission = AdmissionController()
    admission.set_policy(TenantPolicy(tenant="gold", priority_boost=10))
    plane, clock = make_plane(executor=executor, admission=admission)
    plane.submit({}, job_id="low", tenant="plain")
    plane.submit({}, job_id="high", tenant="gold")
    plane.tick()
    assert [job_id for job_id, _ in executor.executions] == ["high", "low"]


def test_pool_concurrency_gates_dispatch_until_capacity_frees(make_plane):
    """A tenant over its pool cap keeps jobs ADMITTED, not dispatched."""
    blocker = ScriptedExecutor(
        script={"wide": [JobOutcome.failure(FailureKind.TRANSIENT, "hold")]},
    )
    admission = AdmissionController(
        default=TenantPolicy(max_concurrent_gpus=4)
    )
    plane, clock = make_plane(
        executor=blocker, admission=admission,
        retry=RetryPolicy(max_attempts=2, base_delay=100.0, jitter=0.0),
    )
    plane.submit({}, job_id="wide", gpus=4)
    plane.submit({}, job_id="blocked", gpus=4)
    plane.tick()
    # "wide" consumed the whole pool budget this tick (it fails into a
    # long backoff); "blocked" stayed ADMITTED because 4+4 > 4.
    assert plane.status("blocked")["state"] == "admitted"
    assert plane.status("blocked")["dispatches"] == 0
    plane.tick()
    # Capacity freed ("wide" is RETRYING): "blocked" dispatches now.
    assert plane.status("blocked")["state"] == "finished"


def test_queue_depth_gate_sheds_submissions(make_plane):
    admission = AdmissionController(default=TenantPolicy(max_queued_jobs=2))
    plane, clock = make_plane(
        executor=ScriptedExecutor(), admission=admission
    )
    plane.submit({}, job_id="a")
    plane.submit({}, job_id="b")
    with pytest.raises(AdmissionError):
        plane.submit({}, job_id="c")
    plane.tick()  # a and b finish -> queue depth back to 0
    plane.submit({}, job_id="c")


def test_start_requires_issued_token(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    with pytest.raises(TokenError) as excinfo:
        plane.start(DispatchToken(job_id="ghost", epoch=plane.epoch, seq=1))
    assert excinfo.value.reason == "unknown_job"


def test_start_rejects_double_redemption(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    plane.submit({}, job_id="j")
    plane.tick()  # dispatch + run + finish
    token = plane.issuer.issue("j")  # a fresh seq, but job is terminal
    with pytest.raises(TokenError) as excinfo:
        plane.start(token)
    assert excinfo.value.reason == "not_dispatched"


def test_degraded_mode_sheds_submissions_but_drains_work(tmp_path, make_plane):
    flaky = FlakyStore(tmp_path / "store")
    script = {
        "j": [
            JobOutcome.failure(FailureKind.TRANSIENT, "flaky"),
            JobOutcome.success(),
        ]
    }
    plane, clock = make_plane(
        store=flaky, executor=ScriptedExecutor(script=script)
    )
    plane.submit({}, job_id="j")
    flaky.available = False
    # Admitted work keeps draining while the store is down...
    plane.tick()
    assert plane.degraded
    assert plane.status("j")["state"] == "retrying"
    assert plane.stats()["buffered_records"] > 0
    # ...but new submissions are shed with a clear error.
    with pytest.raises(ServiceUnavailable) as excinfo:
        plane.submit({}, job_id="shed-me")
    assert excinfo.value.reason == "store_unavailable"
    assert "shed-me" not in plane.jobs
    # Store comes back: buffered records flush, job completes.
    flaky.available = True
    clock.advance(2.0)
    stats = plane.tick()
    assert stats.flushed > 0
    assert not plane.degraded
    drain(plane, clock)
    assert plane.status("j")["state"] == "finished"
    plane.close()

    # The WAL now contains everything, including the buffered window.
    replayed = ControlPlane(
        DurableStore(tmp_path / "store"), executor=ScriptedExecutor(),
        retry=NO_JITTER, clock=FakeClock(),
    )
    assert replayed.status("j")["state"] == "finished"
    replayed.close()


def test_compaction_failure_degrades_instead_of_crashing(tmp_path, make_plane):
    """StoreUnavailable out of maybe_compact must not kill the tick
    loop: the service marks itself degraded and keeps draining."""

    class CompactionBomb(DurableStore):
        def maybe_compact(self, state):
            raise StoreUnavailable("compaction refused")

    plane, clock = make_plane(
        store=CompactionBomb(tmp_path / "store"),
        executor=ScriptedExecutor(),
    )
    plane.submit({}, job_id="j")
    stats = plane.tick()
    assert plane.degraded
    assert not stats.compacted
    assert plane.status("j")["state"] == "finished"
    # Subsequent ticks keep working (and keep re-degrading) quietly.
    plane.submit({}, job_id="k")
    plane.tick()
    assert plane.status("k")["state"] == "finished"
    assert plane.degraded


def test_disk_full_mid_snapshot_leaves_no_tmp_and_recovers(tmp_path, make_plane, monkeypatch):
    """ENOSPC while the snapshot is being written: the half-written
    ``snapshot.json.tmp`` is removed, the old snapshot + WAL still
    recover to the live table, the WAL handle keeps appending, the plane
    degrades for one tick and compacts on a later one."""
    import errno
    import shutil

    from repro.service import store as store_module

    store = DurableStore(tmp_path / "store", compact_every=8)
    plane, clock = make_plane(store=store, executor=ScriptedExecutor())
    for index in range(3):
        plane.submit({}, job_id=f"old-{index}")
    assert plane.tick().compacted  # the snapshot a failed rewrite must not harm
    old_snapshot = store.snapshot_path.read_bytes()
    for index in range(2):
        plane.submit({}, job_id=f"new-{index}")

    def disk_full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(store_module.os, "fsync", disk_full)
        stats = plane.tick()  # runs new-0/new-1, then compaction hits ENOSPC
    assert plane.degraded and not stats.compacted
    assert not store.snapshot_path.with_suffix(".json.tmp").exists()
    assert store.snapshot_path.read_bytes() == old_snapshot
    assert store._since_snapshot >= store.compact_every

    def recovered_table():
        shutil.rmtree(tmp_path / "copy", ignore_errors=True)
        shutil.copytree(tmp_path / "store", tmp_path / "copy")
        replayed = ControlPlane(
            DurableStore(tmp_path / "copy"), executor=ScriptedExecutor(),
            retry=NO_JITTER, clock=FakeClock(),
        )
        table = replayed.job_list()
        replayed.close()
        return table

    assert recovered_table() == plane.job_list()

    # The WAL handle was never closed, so it still appends: the next
    # submission finds nothing buffered, clears the flag and lands.
    appends = store.appends
    plane.submit({}, job_id="late")
    assert store.appends == appends + 1

    stats = plane.tick()
    assert stats.compacted and not plane.degraded
    assert store._since_snapshot == 0
    assert plane.status("late")["state"] == "finished"
    assert recovered_table() == plane.job_list()


def test_duplicate_job_id_does_not_leak_order(make_plane):
    """A rejected duplicate submission leaves no gap in generated ids."""
    plane, clock = make_plane(executor=ScriptedExecutor())
    plane.submit({}, job_id="explicit")
    with pytest.raises(ServiceError) as excinfo:
        plane.submit({}, job_id="explicit")
    assert excinfo.value.reason == "duplicate_job"
    assert plane.submit({}) == "job-00002"


@pytest.mark.parametrize(
    "spec, kwargs",
    [
        ({}, {"gpus": 0}),
        ({}, {"max_runtime_s": -1.0}),
        ({}, {"max_runtime_s": float("nan")}),
        ([1, 2], {}),  # not something dict() can take
        ({}, {"job_id": ["unhashable"]}),
    ],
    ids=["gpus-0", "negative-deadline", "nan-deadline", "bad-spec", "unhashable-id"],
)
def test_rejected_submission_leaves_no_id_gap(make_plane, spec, kwargs):
    """The record is built and validated before the id counter moves."""
    plane, clock = make_plane(executor=ScriptedExecutor())
    assert plane.submit({}) == "job-00001"
    appends = plane.store.appends
    for _ in range(4):
        with pytest.raises((ValueError, TypeError)):
            plane.submit(spec, **kwargs)
    assert plane.store.appends == appends
    assert plane.submit({}) == "job-00002"


def test_tracer_events_for_retry_and_token(make_plane):
    tracer = RingTracer()
    script = {
        "j": [
            JobOutcome.failure(FailureKind.TRANSIENT, "flaky"),
            JobOutcome.success(),
        ]
    }
    plane, clock = make_plane(
        executor=ScriptedExecutor(script=script), tracer=tracer
    )
    plane.submit({}, job_id="j")
    drain(plane, clock, step=2.0)
    kinds = [event["kind"] for event in tracer.events]
    assert kinds.count("dispatch_token") == 2  # one per dispatch
    assert kinds.count("job_retry") == 1
    retry_event = next(e for e in tracer.events if e["kind"] == "job_retry")
    assert retry_event["job"] == "j"
    assert retry_event["attempt"] == 1
    assert retry_event["failure_kind"] == "transient"
    token_events = [e for e in tracer.events if e["kind"] == "dispatch_token"]
    assert all(e["accepted"] for e in token_events)
    assert all(e["epoch"] == plane.epoch for e in token_events)


def test_stats_and_job_list_filters(make_plane):
    plane, clock = make_plane(executor=ScriptedExecutor())
    plane.submit({}, job_id="a", tenant="x")
    plane.submit({}, job_id="b", tenant="y")
    plane.tick()
    plane.submit({}, job_id="c", tenant="x")
    assert [j["job_id"] for j in plane.job_list(tenant="x")] == ["a", "c"]
    assert [j["job_id"] for j in plane.job_list(state="queued")] == ["c"]
    stats = plane.stats()
    assert stats["jobs"] == {"finished": 2, "queued": 1}
    assert stats["epoch"] == 1


def test_compaction_through_the_daemon(tmp_path, make_plane):
    store = DurableStore(tmp_path / "store", compact_every=5)
    plane, clock = make_plane(store=store,
                              executor=ScriptedExecutor())
    for index in range(4):
        plane.submit({}, job_id=f"j{index}")
    stats = plane.tick()
    assert stats.compacted
    plane.close()
    # Recovery from snapshot + short WAL sees every terminal state.
    replayed = ControlPlane(
        DurableStore(tmp_path / "store"), executor=ScriptedExecutor(),
        retry=NO_JITTER, clock=FakeClock(),
    )
    assert all(
        replayed.status(f"j{index}")["state"] == "finished"
        for index in range(4)
    )
    replayed.close()


# ----------------------------------------------------------------------
# HTTP request bodies are bounded before they are read
# ----------------------------------------------------------------------
@pytest.fixture
def http_endpoint(make_plane, serve):
    plane, _clock = make_plane(executor=ScriptedExecutor())
    return serve(plane).endpoint


def raw_post(endpoint, content_length, body=b""):
    """Status code of one POST /submit with a hand-written length header."""
    head = f"POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: {content_length}\r\n\r\n"
    # A handler that trusted the header would sit in rfile.read() until
    # this socket closes; the timeout turns that hang into a failure.
    with socket.create_connection(endpoint, timeout=5.0) as sock:
        sock.sendall(head.encode("ascii") + body)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


@pytest.mark.parametrize("content_length", ["-1", "abc", "1e3", "+5"])
def test_http_rejects_malformed_content_length(http_endpoint, content_length):
    assert raw_post(http_endpoint, content_length) == 400


def test_http_rejects_oversized_body_without_reading_it(http_endpoint):
    assert raw_post(http_endpoint, MAX_BODY_BYTES + 1) == 413
    assert raw_post(http_endpoint, 1 << 40) == 413


@pytest.mark.parametrize(
    "body",
    [b'{"spec": {"kind"', b'{"tenant": "\xff\xfe"}', b'["spec", "noop"]'],
    ids=["truncated-json", "invalid-utf8", "json-list"],
)
def test_http_answers_400_to_a_body_that_is_not_a_json_object(http_endpoint, body):
    """The client's fault, so 400 ``bad_json`` — not 500 ``internal``."""
    assert raw_post(http_endpoint, len(body), body) == 400


def test_http_accepts_body_at_the_limit(http_endpoint):
    frame = len(json.dumps({"spec": {"pad": ""}}))
    body = json.dumps({"spec": {"pad": "x" * (MAX_BODY_BYTES - frame)}}).encode()
    assert len(body) == MAX_BODY_BYTES
    assert raw_post(http_endpoint, len(body), body) == 200
