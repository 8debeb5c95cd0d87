"""Tracer sinks, trace-file round trips, and stream validation.

The zero-overhead contract (NullTracer leaves results byte-identical)
is pinned here at the unit level; ``tests/test_replay_gates.py`` holds
whole traced replays, up to 2048 GPUs, to the untraced digest.
"""

import json

import pytest

from repro.experiments.config import tiny_scenario
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    NullTracer,
    Observability,
    RingTracer,
    TraceError,
    filter_events,
    read_trace,
    summarize_events,
    validate_events,
)
from repro.experiments.runner import run_scenario


def _expires(n, start=0.0):
    """A valid homogeneous stream of ``lease_expire`` events."""
    return [
        {"kind": "lease_expire", "t": start + i, "gpu": i, "app": f"a{i % 3}"}
        for i in range(n)
    ]


def _run(obs=None):
    return run_scenario(tiny_scenario(num_apps=3, seed=11), obs=obs)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_ring_tracer_keeps_the_last_n_events():
    tracer = RingTracer(capacity=4)
    for event in _expires(10):
        tracer.emit(event["kind"], event["t"], gpu=event["gpu"], app=event["app"])
    assert tracer.events_written == 10
    assert [e["t"] for e in tracer.events] == [6.0, 7.0, 8.0, 9.0]


def test_ring_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingTracer(capacity=0)


def test_event_kind_filter_drops_unwanted_kinds():
    tracer = RingTracer(capacity=100, events=["auction_win"])
    tracer.emit("auction_win", 1.0, round=1, app="a0", gpus=2)
    tracer.emit("lease_expire", 2.0, gpu=0, app="a0")
    assert tracer.wants("auction_win") and not tracer.wants("lease_expire")
    assert tracer.events_written == 1
    assert [e["kind"] for e in tracer.events] == ["auction_win"]


def test_unknown_event_kind_is_rejected_up_front():
    with pytest.raises(TraceError, match="bogus"):
        RingTracer(capacity=8, events=["bogus"])
    with pytest.raises(TraceError, match="bogus"):
        filter_events([], kinds=["bogus"])


def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert tracer.enabled is False
    tracer.set_header(scheduler="themis")
    tracer.emit("auction_win", 1.0, round=1, app="a0", gpus=2)
    assert tracer.events_written == 0
    tracer.close()  # no-op, must not raise


# ----------------------------------------------------------------------
# JSONL round trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path))
    tracer.set_header(scheduler="themis", cluster="sim")
    for event in _expires(5):
        tracer.emit(event["kind"], event["t"], gpu=event["gpu"], app=event["app"])
    tracer.close()

    header, events = read_trace(str(path))
    assert header["schema"] == TRACE_SCHEMA_VERSION
    assert header["scheduler"] == "themis"
    assert events == _expires(5)
    assert validate_events(events, header) == []


def test_jsonl_writes_header_even_for_an_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    tracer = JsonlTracer(str(path))
    tracer.close()
    tracer.close()  # idempotent
    header, events = read_trace(str(path))
    assert header["schema"] == TRACE_SCHEMA_VERSION
    assert events == []


def test_jsonl_emit_after_close_raises(tmp_path):
    tracer = JsonlTracer(str(tmp_path / "t.jsonl"))
    tracer.close()
    with pytest.raises(TraceError, match="closed"):
        tracer.emit("lease_expire", 1.0, gpu=0, app="a0")


def test_read_trace_rejects_malformed_files(tmp_path):
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    with pytest.raises(TraceError, match="invalid JSON"):
        read_trace(str(garbage))

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text(json.dumps(_expires(1)[0]) + "\n")
    with pytest.raises(TraceError, match="no 'trace_header'"):
        read_trace(str(headerless))

    header = {"kind": "trace_header", "schema": TRACE_SCHEMA_VERSION}
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text(json.dumps(header) + "\n" + json.dumps(header) + "\n")
    with pytest.raises(TraceError, match="duplicate"):
        read_trace(str(doubled))


# ----------------------------------------------------------------------
# Validation / filtering / summarising
# ----------------------------------------------------------------------
def test_validate_catches_each_malformation():
    ok = _expires(3)
    assert validate_events(ok) == []

    unknown = [{"kind": "warp_drive", "t": 1.0}]
    assert any("unknown kind" in e for e in validate_events(unknown))

    missing = [{"kind": "auction_win", "t": 1.0, "app": "a0"}]  # no round/gpus
    [error] = validate_events(missing)
    assert "missing fields" in error and "gpus" in error

    bad_t = [{"kind": "lease_expire", "t": "soon", "gpu": 0, "app": "a0"}]
    assert any("non-numeric timestamp" in e for e in validate_events(bad_t))

    backwards = _expires(2, start=5.0) + _expires(1)
    assert any("time went backwards" in e for e in validate_events(backwards))

    future = {"kind": "trace_header", "schema": TRACE_SCHEMA_VERSION + 1}
    assert any(
        "unsupported schema" in e for e in validate_events([], header=future)
    )


def test_filter_events_by_kind_and_app():
    events = _expires(6) + [
        {"kind": "auction_win", "t": 10.0, "round": 3, "app": "a1", "gpus": 2}
    ]
    assert len(filter_events(events, kinds=["auction_win"])) == 1
    assert all(e["app"] == "a1" for e in filter_events(events, app="a1"))
    both = filter_events(events, kinds=["lease_expire"], app="a0")
    assert {e["kind"] for e in both} == {"lease_expire"}
    assert {e["app"] for e in both} == {"a0"}


def test_summarize_events():
    events = _expires(6) + [
        {"kind": "round_start", "t": 10.0, "round": 0, "pool_gpus": 8,
         "active_apps": 3}
    ]
    summary = summarize_events(events)
    assert summary["events"] == 7
    assert summary["by_kind"] == {"lease_expire": 6, "round_start": 1}
    assert summary["t_min"] == 0.0 and summary["t_max"] == 10.0
    assert summary["apps"] == 3
    assert summary["rounds"] == 1
    assert summarize_events([]) == {
        "events": 0, "by_kind": {}, "t_min": None, "t_max": None,
        "apps": 0, "rounds": 0,
    }


# ----------------------------------------------------------------------
# The zero-overhead contract, end to end
# ----------------------------------------------------------------------
def test_tracing_does_not_change_simulation_results():
    untraced = _run()
    tracer = RingTracer(capacity=1 << 20)
    traced = _run(obs=Observability(tracer=tracer))

    assert 0 < tracer.events_written == len(tracer.events)
    assert validate_events(tracer.events, tracer.header) == []
    assert json.dumps(untraced.to_json(), sort_keys=True) == json.dumps(
        traced.to_json(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Control-plane event kinds (trace schema v2/v3)
# ----------------------------------------------------------------------
def test_schema_v3_adds_control_plane_kinds():
    assert TRACE_SCHEMA_VERSION == 3
    events = [
        {"kind": "dispatch_token", "t": 0.0, "job": "j", "epoch": 1,
         "accepted": True},
        {"kind": "job_retry", "t": 1.0, "job": "j", "attempt": 1,
         "failure_kind": "transient", "delay": 0.5},
        {"kind": "worker_register", "t": 2.0, "worker": "w1-001",
         "capacity": 2},
        {"kind": "job_report", "t": 3.0, "job": "j", "accepted": False,
         "reason": "token_mismatch"},
        {"kind": "worker_lost", "t": 4.0, "worker": "w1-001",
         "reason": "lease_expired"},
    ]
    assert validate_events(events) == []


def test_control_plane_kinds_reject_missing_fields():
    missing = [{"kind": "job_retry", "t": 0.0, "job": "j"}]
    assert validate_events(missing)  # attempt/failure_kind/delay absent
