"""Chaos-harness tests: stale tokens, duplicate dispatch, WAL garbling."""

import pytest

from repro.service.chaos import (
    CrashingStore,
    FakeClock,
    ScriptedExecutor,
    SimulatedCrash,
    garble_wal_tail,
)
from repro.service.daemon import ControlPlane, JobOutcome
from repro.service.errors import TokenError
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.store import DurableStore
from repro.service.tokens import DispatchToken

NO_JITTER = RetryPolicy(base_delay=0.5, jitter=0.0)


def make_plane(root, **kwargs):
    kwargs.setdefault("executor", ScriptedExecutor())
    kwargs.setdefault("retry", NO_JITTER)
    kwargs.setdefault("clock", FakeClock())
    store = kwargs.pop("store", None) or DurableStore(root)
    return ControlPlane(store, **kwargs)


def drained(plane, ticks=10):
    """``plane`` after ticking, a second apart, until no job is active."""
    for _ in range(ticks):
        plane.tick()
        if plane.active_jobs == 0:
            break
        plane.clock.advance(1.0)
    return plane


def test_stale_epoch_token_rejected_after_restart(tmp_path):
    """The duplicate-dispatch scenario: a pre-crash token replayed
    against the restarted service must not start the job again."""
    root = tmp_path / "store"
    # Hold the job in DISPATCHED by crashing before the RUNNING record:
    # appends are epoch, submit, admitted, dispatched -> crash on #5.
    store = CrashingStore(root, crash_after=4)
    plane = make_plane(root, store=store)
    plane.submit({}, job_id="j")
    with pytest.raises(SimulatedCrash):
        plane.tick()
    stale = DispatchToken.from_json(plane.jobs["j"].token)
    assert stale.epoch == 1

    restarted = make_plane(root)
    assert restarted.epoch == 2
    # Recovery re-queued the orphan; replaying the stale token is
    # rejected even after the job is re-dispatched in the new epoch.
    assert restarted.status("j")["state"] == "retrying"
    with pytest.raises(TokenError) as excinfo:
        restarted.start(stale)
    assert excinfo.value.reason in ("stale_epoch", "not_dispatched")
    # Drain: the job still completes exactly once, in the new epoch.
    assert drained(restarted).status("j")["state"] == "finished"
    restarted.close()


def test_stale_epoch_reason_is_explicit(tmp_path):
    """Directly against the issuer: wrong epoch -> stale_epoch."""
    plane = make_plane(tmp_path / "store")
    plane.submit({}, job_id="j")
    # Put the job into DISPATCHED manually via the tick internals: use
    # an executor that crashes so the state is left DISPATCHED? Simpler:
    # exercise the issuer directly with the job's live token shape.
    old_epoch_token = DispatchToken(job_id="j", epoch=plane.epoch + 1, seq=1)
    with pytest.raises(TokenError) as excinfo:
        plane.issuer.redeem(old_epoch_token, old_epoch_token.to_json())
    assert excinfo.value.reason == "stale_epoch"
    plane.close()


def test_duplicate_redemption_same_epoch(tmp_path):
    plane = make_plane(tmp_path / "store")
    token = plane.issuer.issue("j")
    plane.issuer.redeem(token, token.to_json())
    with pytest.raises(TokenError) as excinfo:
        plane.issuer.redeem(token, token.to_json())
    assert excinfo.value.reason == "already_redeemed"
    plane.close()


def test_crashing_store_counts_lifetime_appends(tmp_path):
    store = CrashingStore(tmp_path / "store", crash_after=2)
    store.recover()
    store.append("a")
    store.append("b")
    with pytest.raises(SimulatedCrash):
        store.append("c")
    # The first two records survived "the crash".
    survivor = DurableStore(tmp_path / "store")
    image = survivor.recover()
    assert [r["kind"] for r in image.records] == ["a", "b"]
    survivor.close()


def test_crashing_store_torn_tail_leaves_partial_line(tmp_path):
    store = CrashingStore(tmp_path / "store", crash_after=1, torn_tail=True)
    store.recover()
    store.append("a")
    with pytest.raises(SimulatedCrash):
        store.append("b")
    raw = (tmp_path / "store" / "wal.jsonl").read_text(encoding="utf-8")
    assert not raw.endswith("\n")  # torn mid-write
    survivor = DurableStore(tmp_path / "store")
    image = survivor.recover()
    assert image.dropped_tail == 1
    assert [r["kind"] for r in image.records] == ["a"]
    survivor.close()


def test_garbled_wal_tail_recovers_prefix(tmp_path):
    root = tmp_path / "store"
    plane = make_plane(root)
    plane.submit({}, job_id="j")
    plane.tick()
    assert plane.status("j")["state"] == "finished"
    plane.close()
    # Garble the tail: drop the last few bytes and append junk.
    garble_wal_tail(root, drop_bytes=5, garbage=b"\x00\xff binary junk")
    restarted = make_plane(root)
    # The final transition (finished) was the torn line; the orphan
    # sweep re-queues the job and it converges to finished again.
    assert drained(restarted).status("j")["state"] == "finished"
    restarted.close()


def test_truncated_wal_tail_only(tmp_path):
    root = tmp_path / "store"
    plane = make_plane(root)
    plane.submit({}, job_id="j")
    plane.close()
    garble_wal_tail(root, drop_bytes=3)  # truncate inside the last record
    restarted = make_plane(root)
    # The submit record was the torn line -> the job is simply unknown
    # again (the submitter never got an ack it could trust anyway)...
    # or, if only part of a later record was cut, the job replays.
    # Either way recovery must not raise and the WAL must be clean.
    restarted.close()
    final = DurableStore(root)
    assert final.recover().dropped_tail == 0
    final.close()


def test_fake_clock():
    clock = FakeClock(now=5.0)
    assert clock() == 5.0
    clock.advance(2.5)
    assert clock() == 7.5


def test_scripted_executor_repeats_last_outcome():
    executor = ScriptedExecutor(
        script={"j": [JobOutcome.failure(FailureKind.TRANSIENT, "x")]}
    )
    from repro.service.state import JobRecord

    record = JobRecord(job_id="j", attempts=5)
    outcome = executor.execute(record)
    assert not outcome.ok
    assert executor.executions == [("j", 5)]
