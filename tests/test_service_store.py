"""Unit tests for the durable WAL + snapshot + sealed-archive store."""

import json
import os

import pytest

from helpers import FaultyWal
from repro.service import store as store_module
from repro.service.chaos import FakeClock, ScriptedExecutor, SimWorker, drain_fleet
from repro.service.daemon import ControlPlane, JobOutcome, NoopExecutor
from repro.service.retry import FailureKind
from repro.service.state import JobRecord, JobState, transition
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    DurableStore,
    StoreCorruption,
    StoreUnavailable,
)


def open_store(tmp_path, **kwargs):
    store = DurableStore(tmp_path / "store", **kwargs)
    store.recover()
    return store


def test_append_and_recover_round_trip(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.append("transition", job="a", state="admitted")
    store.close()

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.snapshot is None
    assert [r["kind"] for r in image.records] == ["submit", "transition"]
    assert image.last_seq == 2
    assert image.dropped_tail == 0
    reopened.close()


def test_seq_is_monotonic_across_restarts(tmp_path):
    store = open_store(tmp_path)
    assert store.append("a") == 1
    assert store.append("b") == 2
    store.close()
    store = DurableStore(tmp_path / "store")
    store.recover()
    assert store.append("c") == 3
    store.close()


def test_append_without_recover_is_unavailable(tmp_path):
    store = DurableStore(tmp_path / "store")
    with pytest.raises(StoreUnavailable):
        store.append("submit")


def test_compaction_folds_wal_into_snapshot(tmp_path):
    store = open_store(tmp_path, compact_every=3)
    state = {"jobs": []}
    for index in range(3):
        store.append("submit", job={"job_id": f"job-{index}"})
        state["jobs"].append({"job_id": f"job-{index}"})
    assert store.maybe_compact(lambda: (state, ()))
    # Post-compaction appends replay on top of the snapshot.
    store.append("transition", job="job-0", state="admitted")
    store.close()

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.snapshot == state
    assert [r["kind"] for r in image.records] == ["transition"]
    assert image.last_seq == 4
    reopened.close()


def test_maybe_compact_respects_threshold(tmp_path):
    store = open_store(tmp_path, compact_every=10)
    store.append("submit")
    assert not store.maybe_compact(dict)
    assert store._since_snapshot == 1
    store.close()


def test_compaction_failure_mid_rewrite_sheds_cleanly(tmp_path):
    """A compaction dying in the WAL reset, after its snapshot rename,
    leaves the store shedding: later appends raise StoreUnavailable,
    never a bare ValueError from a closed file object."""
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store._fh = FaultyWal(store._fh, failed_truncates=1)
    with pytest.raises(StoreUnavailable):
        store.compact({"jobs": ["a"]})
    with pytest.raises(StoreUnavailable):
        store.append("transition", job="a", state="admitted")


def test_crash_between_snapshot_and_wal_reset_replays_nothing_twice(tmp_path):
    """Old WAL records at/below the snapshot's last_seq are skipped."""
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.append("transition", job="a", state="admitted")
    wal_before = store.wal_path.read_text(encoding="utf-8")
    store.compact({"jobs": ["a"]})
    store.close()
    # Simulate the crash window: snapshot landed, WAL reset did not.
    store.wal_path.write_text(wal_before, encoding="utf-8")

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.snapshot == {"jobs": ["a"]}
    assert image.records == []  # all seqs <= snapshot last_seq
    reopened.close()


def test_torn_tail_is_dropped_and_repaired(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.close()
    with open(store.wal_path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 2, "kind": "torn-mid-wri')  # no newline, bad JSON

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.dropped_tail == 1
    assert [r["kind"] for r in image.records] == ["submit"]
    # The tail was repaired on disk: a fresh recovery sees a clean WAL.
    reopened.append("transition", job="a", state="admitted")
    reopened.close()
    final = DurableStore(tmp_path / "store")
    final_image = final.recover()
    assert final_image.dropped_tail == 0
    assert [r["kind"] for r in final_image.records] == ["submit", "transition"]
    final.close()


def test_multi_line_torn_tail(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.close()
    with open(store.wal_path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n{'single': 'quotes'}\n{\"unterminated")
    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.dropped_tail == 3
    assert [r["kind"] for r in image.records] == ["submit"]
    reopened.close()


def test_a_record_whose_newline_did_not_land_is_torn(tmp_path):
    """Bytes after the last newline are never a whole record, even when
    they parse: the next append would otherwise extend that line."""
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.append("transition", job="a", state="admitted")
    store.close()
    store.wal_path.write_bytes(store.wal_path.read_bytes()[:-1])

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.dropped_tail == 1
    assert [r["kind"] for r in image.records] == ["submit"]
    assert reopened.append("transition", job="a", state="admitted") == 2
    reopened.close()
    final = DurableStore(tmp_path / "store")
    assert [r["kind"] for r in final.recover().records] == ["submit", "transition"]
    final.close()


def _header():
    return (
        json.dumps({"kind": "wal_header", "schema": STORE_SCHEMA_VERSION}, sort_keys=True)
        + "\n"
    ).encode()


@pytest.mark.parametrize("wal", [b"", b'{"kind": "wal_hea'], ids=["empty", "torn-header"])
def test_a_wal_without_its_header_gets_it_back(tmp_path, wal):
    """A crash inside the compaction reset leaves a 0-byte WAL or a torn
    header: recovery reads no record, and writes the header before the
    first append."""
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.compact({"jobs": ["a"]})
    store.close()
    store.wal_path.write_bytes(wal)

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.snapshot == {"jobs": ["a"]} and image.records == []
    assert image.dropped_tail == (1 if wal else 0)
    assert reopened.wal_path.read_bytes() == _header()
    assert reopened.append("transition", job="a", state="admitted") == 2
    reopened.close()
    final = DurableStore(tmp_path / "store")
    assert [r["seq"] for r in final.recover().records] == [2]
    final.close()


def test_compaction_cuts_the_wal_back_to_its_header(tmp_path):
    store = open_store(tmp_path)
    for _ in range(3):
        store.append("submit")
    store.compact({"jobs": []})
    assert store.wal_path.read_bytes() == _header()
    store.append("submit")
    store.close()
    assert store.wal_path.read_bytes().startswith(_header())


def test_a_full_wal_recovers_every_record(tmp_path):
    """The longest WAL the default interval leaves: 1,023 records since
    the last snapshot, compaction due on the next append."""
    store = open_store(tmp_path)
    store.compact({"jobs": []})
    for n in range(1, 1024):
        store.append("submit", job={"job_id": f"job-{n:05d}"})
    assert not store.maybe_compact(dict)
    store.close()

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert [r["seq"] for r in image.records] == list(range(1, 1024))
    assert image.dropped_tail == 0 and image.last_seq == 1023
    reopened.append("submit")
    assert reopened.maybe_compact(lambda: ({"jobs": []}, ()))
    reopened.close()


def test_a_failed_append_cuts_its_partial_record(tmp_path):
    """ENOSPC after half a record landed: the store cuts the half off,
    so the record the plane buffers and re-appends once space returns
    starts a clean line, and a restart replays the live plane's table."""
    root = tmp_path / "store"
    plane = ControlPlane(DurableStore(root), executor=NoopExecutor(), clock=FakeClock())
    plane.submit({"kind": "noop"})
    plane.submit({"kind": "noop"})
    plane.store._fh = FaultyWal(plane.store._fh, failed_writes=1)
    plane.tick()  # the first transition hits the full disk
    assert plane.degraded
    plane.tick()  # space is back: the buffered records land
    assert not plane.degraded
    table = plane.job_list()
    assert {job["state"] for job in table} == {"finished"}
    plane.close()

    recovered = ControlPlane(DurableStore(root), executor=NoopExecutor(), clock=FakeClock())
    assert recovered.job_list() == table
    recovered.close()


def test_an_append_that_cannot_cut_its_partial_record_closes_the_wal(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store._fh = FaultyWal(store._fh, failed_writes=1, failed_truncates=1)
    with pytest.raises(StoreUnavailable):
        store.append("transition", job="a", state="admitted")
    with pytest.raises(StoreUnavailable):  # shed, not written after the half
        store.append("transition", job="a", state="admitted")

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()  # the half record is a torn tail
    assert image.dropped_tail == 1
    assert [r["kind"] for r in image.records] == ["submit"]
    reopened.close()


def test_an_unencodable_record_writes_nothing_and_leaves_the_store_open(tmp_path):
    store = open_store(tmp_path)
    circular = {}
    circular["self"] = circular
    size = store.wal_path.stat().st_size
    with pytest.raises(ValueError):
        store.append("submit", job=circular)
    with pytest.raises(TypeError):
        store.append("submit", job={1: "a", "b": 2})  # keys sort_keys cannot order
    assert store.wal_path.stat().st_size == size
    assert store.append("submit", job={"job_id": "a"}) == 1
    store.close()


def test_mid_wal_corruption_raises(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.append("transition", job="a", state="admitted")
    store.close()
    lines = store.wal_path.read_text(encoding="utf-8").splitlines()
    lines[1] = "garbage where a record should be"  # valid records follow
    store.wal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


def test_unreadable_snapshot_raises(tmp_path):
    store = open_store(tmp_path)
    store.append("submit")
    store.compact({"jobs": []})
    store.close()
    store.snapshot_path.write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


def test_wrong_snapshot_schema_raises(tmp_path):
    store = open_store(tmp_path)
    store.compact({"jobs": []})
    store.close()
    payload = json.loads(store.snapshot_path.read_text(encoding="utf-8"))
    payload["schema"] = 999
    store.snapshot_path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


def test_fsync_mode_appends(tmp_path):
    store = open_store(tmp_path, fsync=True)
    store.append("submit", job={"job_id": "a"})
    store.close()
    reopened = DurableStore(tmp_path / "store")
    assert len(reopened.recover().records) == 1
    reopened.close()


def test_close_is_idempotent(tmp_path):
    store = open_store(tmp_path)
    store.close()
    store.close()


# ----------------------------------------------------------------------
# The sealed archive
# ----------------------------------------------------------------------
def test_no_archive_until_something_is_sealed(tmp_path):
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.compact({"jobs": [{"job_id": "a"}]})
    store.close()
    assert not store.sealed_path.exists()
    snapshot = json.loads(store.snapshot_path.read_text(encoding="utf-8"))
    assert snapshot["schema"] == STORE_SCHEMA_VERSION == 2
    assert snapshot["sealed_bytes"] == 0


def test_sealed_records_are_written_once_and_recovered(tmp_path):
    store = open_store(tmp_path)
    store.compact({"jobs": []}, sealed=[{"job_id": "a"}, {"job_id": "b"}])
    first = store.sealed_path.read_bytes()
    store.compact({"jobs": []})  # nothing new: the archive is untouched
    store.compact({"jobs": []}, sealed=[{"job_id": "c"}])
    store.close()
    archive = store.sealed_path.read_bytes()
    assert archive.startswith(first)
    assert archive.count(b"\n") == 3

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.sealed == [{"job_id": "a"}, {"job_id": "b"}, {"job_id": "c"}]
    assert reopened.sealed_bytes == len(archive)
    reopened.close()


def test_crash_before_snapshot_rename_truncates_the_archive(tmp_path, monkeypatch):
    """The archive append landed but the snapshot rename did not: the
    old snapshot + WAL are what recovery returns, the uncommitted
    archive tail is truncated, and the next compaction appends cleanly."""
    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    store.compact({"jobs": []}, sealed=[{"job_id": "a"}])
    committed = store.sealed_path.read_bytes()
    store.append("submit", job={"job_id": "b"})
    store.append("transition", job="b", state="finished")
    real_replace = os.replace

    def flaky_replace(src, dst, *args, **kwargs):
        if str(dst).endswith("snapshot.json"):
            raise OSError("disk full")
        return real_replace(src, dst, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(store_module.os, "replace", flaky_replace)
        with pytest.raises(StoreUnavailable):
            store.compact({"jobs": []}, sealed=[{"job_id": "b"}])
    assert len(store.sealed_path.read_bytes()) > len(committed)
    store.close()  # the crash: nothing more reaches the disk

    reopened = DurableStore(tmp_path / "store")
    image = reopened.recover()
    assert image.sealed == [{"job_id": "a"}]
    assert image.snapshot == {"jobs": []}
    assert [r["kind"] for r in image.records] == ["submit", "transition"]
    assert reopened.sealed_path.read_bytes() == committed
    reopened.compact({"jobs": []}, sealed=[{"job_id": "b"}])
    reopened.close()

    final = DurableStore(tmp_path / "store")
    assert final.recover().sealed == [{"job_id": "a"}, {"job_id": "b"}]
    final.close()


def _raise_disk_full(*args, **kwargs):
    raise OSError("disk full")


def test_failed_compaction_retried_in_process_seals_once(tmp_path, monkeypatch):
    store = open_store(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(store_module.os, "replace", _raise_disk_full)
        with pytest.raises(StoreUnavailable):
            store.compact({"jobs": []}, sealed=[{"job_id": "a"}])
    store.compact({"jobs": []}, sealed=[{"job_id": "a"}])
    store.close()
    assert store.sealed_path.read_bytes().count(b"\n") == 1


def _sealed_store(tmp_path):
    store = open_store(tmp_path)
    store.compact({"jobs": []}, sealed=[{"job_id": "a"}, {"job_id": "b"}])
    store.close()
    return store


def test_archive_shorter_than_committed_raises(tmp_path):
    store = _sealed_store(tmp_path)
    data = store.sealed_path.read_bytes()
    store.sealed_path.write_bytes(data[:-5])
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()
    store.sealed_path.unlink()
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


@pytest.mark.parametrize("filler", [b"#", b"\xff", b" "], ids=["text", "not-utf8", "blank"])
def test_garbage_inside_committed_archive_raises(tmp_path, filler):
    store = _sealed_store(tmp_path)
    first, second = store.sealed_path.read_bytes().splitlines(keepends=True)
    garbage = filler * (len(first) - 1) + b"\n"
    store.sealed_path.write_bytes(garbage + second)
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


@pytest.mark.parametrize("where", ["snapshot", "wal"])
def test_unknown_schema_raises(tmp_path, where):
    store = open_store(tmp_path)
    store.compact({"jobs": []})
    store.close()
    if where == "snapshot":
        payload = json.loads(store.snapshot_path.read_text(encoding="utf-8"))
        payload["schema"] = 3
        store.snapshot_path.write_text(json.dumps(payload), encoding="utf-8")
    else:
        store.wal_path.write_text(
            json.dumps({"kind": "wal_header", "schema": 3}) + "\n",
            encoding="utf-8",
        )
    with pytest.raises(StoreCorruption):
        DurableStore(tmp_path / "store").recover()


def _job(number, state):
    return {
        "job_id": f"job-{number:05d}", "order": number, "state": state,
        "spec": {"kind": "noop"}, "tenant": "t",
    }


def test_schema_1_store_recovers_and_its_first_compaction_seals_once(tmp_path):
    """A hand-written schema-1 store (whole job table in the snapshot, no
    archive) recovers every job; the first compaction seals each of its
    terminal jobs exactly once, then the snapshot holds none."""
    root = tmp_path / "store"
    root.mkdir()
    (root / "snapshot.json").write_text(json.dumps({
        "schema": 1,
        "last_seq": 3,
        "state": {
            "epoch": 1,
            "jobs": [
                _job(1, "finished"), _job(2, "running"), _job(3, "cancelled"),
            ],
            "workers": [],
        },
    }), encoding="utf-8")
    wal = [
        {"kind": "wal_header", "schema": 1},
        {"seq": 4, "kind": "submit", "job": _job(4, "queued")},
        {"seq": 5, "kind": "transition", "job": "job-00002",
         "state": "failed", "at": 1.0},
        {"seq": 6, "kind": "submit", "job": _job(5, "queued")},
    ]
    (root / "wal.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in wal), encoding="utf-8"
    )

    clock = FakeClock(now=10.0)
    plane = ControlPlane(
        DurableStore(root, compact_every=1), executor=NoopExecutor(), clock=clock,
    )
    assert {job["job_id"]: job["state"] for job in plane.job_list()} == {
        "job-00001": "finished", "job-00002": "failed",
        "job-00003": "cancelled", "job-00004": "queued",
        "job-00005": "queued",
    }
    assert plane.tick().compacted  # runs job-4 and job-5, then compacts
    archived = [
        json.loads(line)["job_id"]
        for line in (root / "sealed.jsonl").read_bytes().splitlines()
    ]
    assert sorted(archived) == [f"job-{n:05d}" for n in range(1, 6)]
    snapshot = json.loads((root / "snapshot.json").read_text(encoding="utf-8"))
    assert snapshot["schema"] == 2 and snapshot["state"]["jobs"] == []

    plane.register_worker(name="late")
    assert plane.tick().compacted
    assert (root / "sealed.jsonl").read_bytes().count(b"\n") == 5
    table = plane.job_list()
    plane.close()

    recovered = ControlPlane(DurableStore(root), executor=NoopExecutor(), clock=clock)
    assert recovered.job_list() == table
    recovered.close()


# ----------------------------------------------------------------------
# What the plane writes and reads back
# ----------------------------------------------------------------------
def _store_with_every_file(root):
    """A closed store whose archive holds two FINISHED jobs, whose
    snapshot holds one ADMITTED job and whose WAL cancels it."""
    plane = ControlPlane(
        DurableStore(root, compact_every=1), executor=NoopExecutor(),
        clock=FakeClock(),
    )
    plane.submit({"kind": "noop"})
    plane.submit({"kind": "noop"})
    assert plane.tick().compacted  # runs both inline, then seals them
    plane.register_worker(name="w")  # a live worker: no inline run
    job_id = plane.submit({"kind": "noop"})
    assert plane.tick().compacted
    plane.cancel(job_id)
    plane.close()


def _rename_state(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert text.count(old) >= 1 and len(old) == len(new)
    path.write_text(text.replace(old, new), encoding="utf-8")


def _drop_snapshot_job_id(path):
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    [job] = snapshot["state"]["jobs"]
    del job["job_id"]
    path.write_text(json.dumps(snapshot, sort_keys=True), encoding="utf-8")


@pytest.mark.parametrize("name, corrupt", [
    ("sealed.jsonl", lambda p: _rename_state(p, '"finished"', '"finishex"')),
    ("snapshot.json", _drop_snapshot_job_id),
    ("wal.jsonl", lambda p: _rename_state(p, '"cancelled"', '"cancellex"')),
], ids=["archive-unknown-state", "snapshot-no-job-id", "wal-unknown-state"])
def test_a_record_that_parses_but_cannot_be_rebuilt_is_corruption(
    tmp_path, name, corrupt
):
    """Garbage that is valid JSON (an unknown state, a job without an id)
    is :class:`StoreCorruption` naming its file, not a bare error."""
    root = tmp_path / "store"
    _store_with_every_file(root)
    ControlPlane(DurableStore(root), executor=NoopExecutor()).close()  # intact
    corrupt(root / name)
    with pytest.raises(StoreCorruption, match=name):
        ControlPlane(DurableStore(root), executor=NoopExecutor())


#: The fields every transition record carried before records held only
#: what their move set.
_FULL_TRANSITION_FIELDS = (
    "attempts", "dispatches", "not_before", "detail",
    "token", "result", "worker", "started_at",
)


def _full_record_wal(root):
    """A WAL as the full-record writer left it: each submit holds the
    whole record and each transition every field.  One job per
    transition kind; job-00006 is still RUNNING.  Returns the jobs."""
    wal = [
        {"kind": "wal_header", "schema": STORE_SCHEMA_VERSION},
        {"seq": 1, "kind": "epoch", "epoch": 1, "at": 0.0},
        {"seq": 2, "kind": "worker_register", "worker": "w1-001",
         "name": "old", "capacity": 4, "epoch": 1, "at": 0.0},
    ]
    jobs = {}

    def move(job_id, state, at, detail="", **changes):
        job = jobs[job_id]
        transition(job, state, at, detail=detail)
        for key, value in changes.items():
            setattr(job, key, value)
        wal.append({
            "seq": len(wal), "kind": "transition", "job": job_id,
            "state": state.value, "at": at,
            **{key: getattr(job, key) for key in _FULL_TRANSITION_FIELDS},
        })

    def run(job_id, at):
        """ADMITTED -> DISPATCHED (to w1-001) -> RUNNING."""
        move(job_id, JobState.ADMITTED, at)
        move(job_id, JobState.DISPATCHED, at,
             token={"job_id": job_id, "epoch": 1, "seq": len(wal)},
             dispatches=jobs[job_id].dispatches + 1, worker="w1-001")
        move(job_id, JobState.RUNNING, at + 0.5, started_at=at + 0.5)

    for number in range(1, 7):
        job = JobRecord(f"job-{number:05d}", spec={"kind": "noop"},
                        order=number, submitted_at=1.0, updated_at=1.0)
        jobs[job.job_id] = job
        wal.append({"seq": len(wal), "kind": "submit", "job": job.to_json()})
    fenced = {"token": None, "worker": None}
    run("job-00001", 2.0)
    move("job-00001", JobState.FINISHED, 3.0, result={"n": 1}, **fenced)
    run("job-00002", 2.0)
    move("job-00002", JobState.RETRYING, 3.0, detail="hiccup",
         attempts=1, not_before=3.5, **fenced)
    run("job-00003", 2.0)
    move("job-00003", JobState.FAILED, 3.0, detail="bad job", attempts=1, **fenced)
    move("job-00004", JobState.CANCELLED, 2.0, detail="cancelled by user", **fenced)
    move("job-00005", JobState.ADMITTED, 2.0)
    move("job-00005", JobState.DISPATCHED, 2.0,
         token={"job_id": "job-00005", "epoch": 1, "seq": len(wal)},
         dispatches=1, worker="w1-001")
    move("job-00005", JobState.RETRYING, 9.0,
         detail="dispatch to w1-001 stalled past 5s; claim revoked",
         not_before=9.5, **fenced)
    run("job-00006", 9.0)
    root.mkdir()
    (root / "wal.jsonl").write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n" for record in wal),
        encoding="utf-8",
    )
    return jobs


def test_full_and_delta_transition_records_replay_alike(tmp_path):
    """A WAL holding full transition records, then the plane's own
    records of only the fields each move set, recovers every job field
    for field as the plane that wrote it holds it."""
    root = tmp_path / "store"
    written = _full_record_wal(root)
    clock = FakeClock(now=10.0)
    plane = ControlPlane(
        DurableStore(root, compact_every=10**9), executor=NoopExecutor(),
        clock=clock,
    )
    for job_id in ("job-00001", "job-00003", "job-00004"):
        assert plane.status(job_id) == written[job_id].to_json()
    assert plane.status("job-00006")["state"] == "retrying"  # orphan sweep

    worker = SimWorker(plane, ScriptedExecutor(script={
        "job-00002": [JobOutcome.success({"n": 2})],
        "job-00007": [JobOutcome.failure(FailureKind.TRANSIENT, "again"),
                      JobOutcome.success()],
    }), capacity=2)
    plane.submit({"kind": "noop"})
    plane.cancel(plane.submit({"kind": "noop"}))
    drain_fleet(plane, clock, [worker])
    plane.close()

    lines = [json.loads(line) for line in root.joinpath("wal.jsonl").open()]
    widths = {
        len(set(record) & set(_FULL_TRANSITION_FIELDS))
        for record in lines if record.get("kind") == "transition"
    }
    assert 0 in widths and len(_FULL_TRANSITION_FIELDS) in widths

    recovered = ControlPlane(DurableStore(root), executor=NoopExecutor(), clock=clock)
    assert recovered.job_list() == plane.job_list()
    assert [job["state"] for job in recovered.job_list()] == [
        "finished", "finished", "failed", "cancelled", "finished",
        "finished", "finished", "cancelled",
    ]
    recovered.close()


def test_a_transition_record_applies_over_the_snapshot(tmp_path):
    """A job compacted while dispatched (the snapshot holds its token and
    worker) and finished after: replay clears both, as the plane did."""
    root = tmp_path / "store"
    clock = FakeClock()
    plane = ControlPlane(
        DurableStore(root, compact_every=1), executor=NoopExecutor(), clock=clock,
    )
    worker = SimWorker(plane, NoopExecutor())
    job_id = plane.submit({"kind": "noop"})
    plane.tick()
    assert worker.claim() == 1 and plane.tick().compacted
    snapshot = json.loads((root / "snapshot.json").read_text(encoding="utf-8"))
    [held] = snapshot["state"]["jobs"]
    assert held["state"] == "dispatched" and held["token"] and held["worker"]
    worker.start_all()
    worker.execute_all()
    worker.report_all()
    plane.close()

    recovered = ControlPlane(DurableStore(root), executor=NoopExecutor(), clock=clock)
    assert recovered.status(job_id) == plane.status(job_id)
    assert recovered.status(job_id)["token"] is None
    recovered.close()
