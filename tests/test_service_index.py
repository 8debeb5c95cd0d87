"""The control plane pays for live jobs, not for history.

Count-based, so nothing here can flake on a slow box:

* behind 2,000 FINISHED jobs, ``submit`` / ``tick`` / ``claim`` /
  ``stats`` read no terminal record and a tick whose compaction is not
  due encodes none;
* compaction pays for what changed: over many compactions every
  terminal job is encoded for the archive exactly once, and each
  compaction only appends to the archive;
* the index is an optimisation, not a behaviour: a scripted 300-job run
  (both execution planes, retries, fatal failures, cancels, a killed
  worker, a deadline, a restart mid-flight) appends a frozen record
  sequence that replays to the same jobs as before the index, and its
  ``snapshot.json`` and ``sealed.jsonl`` hold the bytes
  ``json.dumps(..., sort_keys=True)`` gives for what a recovery reads
  back.
"""

import hashlib
import json
from collections import Counter

import pytest

from helpers import FaultyWal
from repro.service import store as store_module
from repro.service.chaos import FakeClock, ScriptedExecutor, SimWorker
from repro.service.daemon import ControlPlane, JobOutcome, NoopExecutor
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.state import JobRecord, JobState
from repro.service.store import STORE_SCHEMA_VERSION, DurableStore

NO_JITTER = RetryPolicy(base_delay=0.5, jitter=0.0)


def noop_plane(tmp_path, clock=None, **store_kwargs):
    """A plane over ``tmp_path / "store"`` that runs every job as a no-op."""
    return ControlPlane(
        DurableStore(tmp_path / "store", **store_kwargs),
        executor=NoopExecutor(), retry=NO_JITTER, clock=clock or FakeClock(),
    )


#: sha256 over the scripted run's appended records — the behaviour
#: oracle, first frozen at e5e3387 (every entry point still scanned
#: ``jobs``).  Re-frozen when transition records started carrying only
#: the fields their move set and submit records the constructor's
#: arguments: replayed record by record, each job matches the full-record
#: log at every seq, and the snapshot and archive digests did not move.
#: The final ``snapshot.json`` / ``sealed.jsonl`` digests are from the
#: store's schema 2: the snapshot holds the one job still live at the
#: last compaction, byte-equal to its entry in the schema-1 snapshot,
#: and the archive the other 289 entries of that snapshot, once each.
#: Re-derive with ``PYTHONPATH=src python tests/test_service_index.py``.
SCRIPTED_APPENDS = 1714
SCRIPTED_WAL_SHA256 = (
    "bc8d06300b3f72b0d1a45fb8d4ed83a392cab87592caf4f9c88b1085380f83c1"
)
SCRIPTED_SNAPSHOT_SHA256 = (
    "2550b16cba13e12684f42539b6acc7ff14d4a70527aa3d17eccc3d77c7f79934"
)
SCRIPTED_SEALED_SHA256 = (
    "e3bf87e8c6d370e62483914e3f3511f63b7860fdc442a0925db87fe94fdb6dc3"
)


# ----------------------------------------------------------------------
# No entry point visits history
# ----------------------------------------------------------------------
class _Tripwire(JobRecord):
    """A record that counts every attribute read made on it."""

    reads = 0

    def __getattribute__(self, name):
        _Tripwire.reads += 1
        return object.__getattribute__(self, name)


def _plane_behind_history(tmp_path, finished=2000, live=8):
    """``finished`` FINISHED jobs (tripwired) and ``live`` jobs spread over
    QUEUED / ADMITTED / DISPATCHED / RUNNING, one worker holding a lease."""
    clock = FakeClock()
    plane = noop_plane(tmp_path, clock, compact_every=10**9)
    for start in range(0, finished, 50):
        for index in range(start, min(start + 50, finished)):
            plane.submit({"kind": "noop"}, tenant=f"t{index % 4}")
        plane.tick()  # no live worker: the daemon runs them inline
    assert plane.active_jobs == 0
    for job in plane.jobs.values():
        job.__class__ = _Tripwire

    worker = SimWorker(plane, NoopExecutor(), name="w", capacity=4)
    for index in range(live):
        plane.submit({"kind": "noop"}, tenant=f"t{index % 4}")
        if index == live // 2:
            plane.tick()  # the first half ADMITTED, the rest stay QUEUED
            worker.claim(max_jobs=2)
            worker.pending, held = worker.pending[:1], worker.pending[1:]
            worker.start_all()  # one RUNNING, one left DISPATCHED
            worker.pending = held
    assert plane.active_jobs == live
    _Tripwire.reads = 0
    return plane, clock, worker


def test_entry_points_visit_no_terminal_record(tmp_path, monkeypatch):
    plane, clock, worker = _plane_behind_history(tmp_path)
    encoded = []
    real_to_json = JobRecord.to_json
    monkeypatch.setattr(
        JobRecord, "to_json",
        lambda self: encoded.append(self.job_id) or real_to_json(self),
    )

    clock.advance(1.0)
    stats = plane.tick()
    assert not stats.compacted
    assert encoded == []  # compaction not due: nothing encoded at all

    plane.submit({"kind": "noop"}, tenant="t0")
    assert encoded == []  # the submit record holds the constructor's arguments
    assert len(plane.claim(worker.worker_id, max_jobs=2)) == 2
    assert plane.stats()["jobs"] == {
        "admitted": 5, "dispatched": 3, "finished": 2000, "running": 1,
    }
    assert plane.active_jobs == 9
    assert _Tripwire.reads == 0
    plane.close()


def _archived_ids(store) -> list:
    return [
        json.loads(line)["job_id"]
        for line in store.sealed_path.read_bytes().splitlines()
    ]


def test_each_terminal_job_is_sealed_once(tmp_path, monkeypatch):
    """Over a lifetime of compactions a terminal job is encoded exactly
    once — by the compaction that seals it — and the archive only grows
    at its end."""
    plane, clock, worker = _plane_behind_history(tmp_path, finished=200)
    terminal_encodes = Counter()
    live_encodes = []
    real_to_json = JobRecord.to_json

    def counting_to_json(self):
        if self.is_terminal:
            terminal_encodes[self.job_id] += 1
        else:
            live_encodes.append(self.job_id)
        return real_to_json(self)

    monkeypatch.setattr(JobRecord, "to_json", counting_to_json)
    plane.store.compact_every = 1
    archives = []

    def compact():
        assert plane.tick().compacted
        archives.append(plane.store.sealed_path.read_bytes())

    compact()  # the 200 finished behind the 8 live
    assert sorted(terminal_encodes) == [f"job-{n:05d}" for n in range(1, 201)]
    assert len(live_encodes) == 8

    del live_encodes[:]
    plane.cancel("job-00201")
    compact()
    assert terminal_encodes["job-00201"] == 1
    assert len(live_encodes) == 7  # the snapshot holds only live jobs
    assert plane.tick().compacted is False  # nothing appended since

    for round_ in range(40):
        if round_ < 8:
            for _ in range(3):
                plane.submit({"kind": "noop"}, tenant=f"t{round_ % 4}")
        if round_ == 4:
            plane.cancel(f"job-{len(plane.jobs):05d}")
        worker.step()
        clock.advance(1.0)
        compact()
        if plane.active_jobs == 0:
            break
    assert plane.active_jobs == 0 and len(archives) >= 5

    for before, after in zip(archives, archives[1:]):
        assert after.startswith(before)
    assert sorted(_archived_ids(plane.store)) == sorted(plane.jobs)
    assert sorted(terminal_encodes) == sorted(plane.jobs)
    assert set(terminal_encodes.values()) == {1}

    plane.close()
    recovered = noop_plane(tmp_path, clock)
    assert recovered.job_list() == [
        real_to_json(job) for job in plane.jobs.values()
    ]
    recovered.close()


@pytest.mark.parametrize("fail_on", ["snapshot.json", "wal.jsonl"])
def test_failed_compaction_seals_its_batch_once(tmp_path, monkeypatch, fail_on):
    """A compaction that dies before its snapshot rename keeps its batch
    (the store truncates the partial append and the retry re-seals it);
    one that dies after the rename, resetting the WAL, has committed the
    batch, and the plane does not seal it again."""
    plane = noop_plane(tmp_path, compact_every=4)
    for _ in range(3):
        plane.submit({"kind": "noop"})
    assert plane.tick().compacted
    for _ in range(3):
        plane.submit({"kind": "noop"})

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        if fail_on == "snapshot.json":  # the store's one rename
            patch.setattr(store_module.os, "replace", disk_full)
        else:  # the WAL is cut in place after the rename
            plane.store._fh = FaultyWal(plane.store._fh, failed_truncates=1)
        stats = plane.tick()
    assert plane.degraded and not stats.compacted
    assert plane.tick().compacted and not plane.degraded  # the retry
    plane.submit({"kind": "noop"})
    assert plane.tick().compacted

    assert _archived_ids(plane.store) == [f"job-{n:05d}" for n in range(1, 8)]
    plane.close()
    recovered = noop_plane(tmp_path)
    assert recovered.job_list() == plane.job_list()
    recovered.close()


def test_a_degraded_plane_reopens_its_wal_and_flushes(tmp_path):
    """A compaction whose WAL cut fails leaves the WAL closed.  A record
    buffered while degraded (here a worker registration) kept every
    later tick from flushing, and so from compacting, which was the one
    thing that reopened the WAL: the plane shed every submit until a
    restart.  The next tick now reopens the WAL and flushes."""
    plane = noop_plane(tmp_path, compact_every=4)
    for _ in range(3):
        plane.submit({"kind": "noop"})
    plane.store._fh = FaultyWal(plane.store._fh, failed_truncates=1)
    assert not plane.tick().compacted and plane.degraded
    plane.register_worker("w")
    assert len(plane._pending) == 1
    assert plane.tick().flushed == 1 and not plane.degraded
    plane.submit({"kind": "noop"})
    plane.close()
    recovered = noop_plane(tmp_path)
    assert recovered.job_list() == plane.job_list()
    assert len(recovered.job_list()) == 4
    recovered.close()


# ----------------------------------------------------------------------
# Same records, same snapshot as before the index
# ----------------------------------------------------------------------
class _RecordingStore(DurableStore):
    """Keeps every appended record (the WAL itself resets at compaction)."""

    def __init__(self, root, log, **kwargs):
        super().__init__(root, **kwargs)
        self.log = log

    def append(self, kind, **fields):
        seq = super().append(kind, **fields)
        self.log.append(json.dumps({"seq": seq, "kind": kind, **fields}, sort_keys=True))
        return seq


def _scripted_executor():
    script = {}
    for index in range(1, 301):
        job_id = f"job-{index:05d}"
        if index % 31 == 0:
            script[job_id] = [JobOutcome.failure(FailureKind.FATAL, "bad job")]
        elif index % 7 == 0:
            script[job_id] = [
                JobOutcome.failure(FailureKind.TRANSIENT, "hiccup"),
                JobOutcome.success({"n": index}),
            ]
        elif index % 53 == 0:
            script[job_id] = [JobOutcome.failure(FailureKind.TRANSIENT, "again")]
    return ScriptedExecutor(script=script)


def scripted_run(root):
    """300 jobs through every path; returns every record appended."""
    log: list[str] = []
    clock = FakeClock()

    def boot():
        return ControlPlane(
            _RecordingStore(root, log, compact_every=64),
            executor=_scripted_executor(), retry=NO_JITTER, clock=clock,
            worker_ttl=3.0, dispatch_timeout=5.0,
        )

    def submit(plane, count):
        for _ in range(count):
            index = len(plane.jobs) + 1
            plane.submit(
                {"kind": "noop", "n": index},
                tenant=f"tenant-{index % 3}",
                gpus=1 + index % 2,
                priority=index % 4,
                max_runtime_s=4.0 if index % 40 == 0 else None,
            )

    # The synchronous plane: the daemon runs what it admits.
    plane = boot()
    for batch in range(4):
        submit(plane, 25)
        plane.cancel(f"job-{batch * 25 + 3:05d}")
        plane.tick()
        clock.advance(1.0)
        plane.tick()
    # The pull plane: two workers, one killed holding claims, one job
    # started and never reported (its deadline fails it).
    workers = [
        SimWorker(plane, _scripted_executor(), name=f"w{i}", capacity=4)
        for i in range(2)
    ]
    hung = []
    for round_ in range(60):
        if len(plane.jobs) < 250:
            submit(plane, 5)
        plane.tick()
        for worker in workers:
            if not worker.alive:
                continue
            worker.claim()
            worker.start_all()
            for entry in list(worker.running):
                if entry[0].max_runtime_s is not None and not hung:
                    hung.append(entry)
                    worker.running.remove(entry)
            if round_ == 20 and worker is workers[1]:
                worker.kill()
                continue
            worker.execute_all()
            worker.report_all()
        if round_ == 30:
            plane.cancel(f"job-{len(plane.jobs):05d}")
        clock.advance(1.0)
    # A restart with work in flight: the orphan sweep re-queues it.
    submit(plane, 10)
    plane.tick()
    workers[0].claim()
    workers[0].start_all()
    assert plane.counters["workers_lost"] and plane.counters["deadline_failures"]
    plane.close()
    plane = boot()
    assert plane.counters["requeued_lost"] == 4  # the orphan sweep
    while len(plane.jobs) < 300:
        submit(plane, 10)
        plane.tick()
        clock.advance(1.0)
    for _ in range(20):
        plane.tick()
        clock.advance(1.0)
    assert plane.active_jobs == 0 and len(plane.jobs) == 300
    assert {job.state for job in plane.jobs.values()} == {
        JobState.FINISHED, JobState.FAILED, JobState.CANCELLED
    }
    plane.close()
    return log


def _sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_scripted_run_appends_the_parents_records(tmp_path):
    root = tmp_path / "store"
    log = scripted_run(root)
    assert len(log) == SCRIPTED_APPENDS
    assert _sha256("\n".join(log)) == SCRIPTED_WAL_SHA256
    snapshot = (root / "snapshot.json").read_bytes()
    assert _sha256(snapshot) == SCRIPTED_SNAPSHOT_SHA256
    sealed = (root / "sealed.jsonl").read_bytes()
    assert _sha256(sealed) == SCRIPTED_SEALED_SHA256

    # The files are the C encoder's canonical form of what recovery reads.
    store = DurableStore(root)
    image = store.recover()
    store.close()
    wal_seqs = [record["seq"] for record in image.records]
    expected = json.dumps(
        {
            "schema": STORE_SCHEMA_VERSION,
            "last_seq": wal_seqs[0] - 1 if wal_seqs else image.last_seq,
            "sealed_bytes": len(sealed),
            "state": image.snapshot,
        },
        sort_keys=True,
    )
    assert snapshot == expected.encode("utf-8")
    assert sealed == "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in image.sealed
    ).encode("utf-8")
    assert not (root / "snapshot.json.tmp").exists()


if __name__ == "__main__":  # prints the constants above
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        records = scripted_run(f"{scratch}/store")
        print("SCRIPTED_APPENDS =", len(records))
        print("SCRIPTED_WAL_SHA256 =", _sha256("\n".join(records)))
        for name in ("snapshot.json", "sealed.jsonl"):
            with open(f"{scratch}/store/{name}", "rb") as fh:
                constant = name.split(".")[0].upper()
                print(f"SCRIPTED_{constant}_SHA256 =", _sha256(fh.read()))
