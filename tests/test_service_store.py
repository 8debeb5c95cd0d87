"""Unit tests for the durable WAL + snapshot store."""

import json

import pytest

from repro.service.store import (
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
    assert store.maybe_compact(lambda: state)
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
    assert store.records_since_snapshot == 1
    store.close()


def test_compaction_failure_mid_rewrite_sheds_cleanly(tmp_path, monkeypatch):
    """A compaction dying after the WAL handle closed (mid-rewrite)
    leaves the store shedding: later appends raise StoreUnavailable,
    never a bare ValueError from a closed file object."""
    import os

    from repro.service import store as store_module

    store = open_store(tmp_path)
    store.append("submit", job={"job_id": "a"})
    real_replace = os.replace

    def flaky_replace(src, dst, *args, **kwargs):
        if str(dst).endswith("wal.jsonl"):
            raise OSError("disk full")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(store_module.os, "replace", flaky_replace)
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
