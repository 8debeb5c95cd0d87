"""The control plane pays for live jobs, not for history.

Count-based, so nothing here can flake on a slow box:

* behind 2,000 FINISHED jobs, ``submit`` / ``tick`` / ``claim`` /
  ``stats`` read no terminal record and a tick whose compaction is not
  due encodes none;
* the index is an optimisation, not a behaviour: a scripted 300-job run
  (both execution planes, retries, fatal failures, cancels, a killed
  worker, a deadline, a restart mid-flight) appends the record sequence
  frozen from the commit before the index existed, and its
  ``snapshot.json`` holds the bytes ``json.dumps(..., sort_keys=True)``
  gives for the state a recovery reads back.
"""

import hashlib
import json

from repro.service.chaos import FakeClock, ScriptedExecutor, SimWorker
from repro.service.daemon import ControlPlane, JobOutcome, NoopExecutor
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.state import JobRecord, JobState
from repro.service.store import STORE_SCHEMA_VERSION, DurableStore

NO_JITTER = RetryPolicy(base_delay=0.5, jitter=0.0)

#: sha256 over the scripted run's appended records / final snapshot
#: bytes, frozen at e5e3387 (every entry point still scanned ``jobs``).
#: Re-derive with ``PYTHONPATH=<that checkout>/src python
#: tests/test_service_index.py``.
SCRIPTED_APPENDS = 1714
SCRIPTED_WAL_SHA256 = (
    "99a047387d8c4d3dd9e8c78aacd20084b126920c06db3ece56fd680c84f4e8f5"
)
SCRIPTED_SNAPSHOT_SHA256 = (
    "f1cfb20e992875ecc9f9266457b827e001fb806ed218964a5bc705b6bdf4a8fb"
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
    plane = ControlPlane(
        DurableStore(tmp_path / "store", compact_every=10**9),
        executor=NoopExecutor(), retry=NO_JITTER, clock=clock,
    )
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

    job_id = plane.submit({"kind": "noop"}, tenant="t0")
    assert encoded == [job_id]  # the submit record, nothing else
    assert len(plane.claim(worker.worker_id, max_jobs=2)) == 2
    assert plane.stats()["jobs"] == {
        "admitted": 5, "dispatched": 3, "finished": 2000, "running": 1,
    }
    assert plane.active_jobs == 9
    assert _Tripwire.reads == 0
    plane.close()


def test_terminal_payload_is_built_once(tmp_path, monkeypatch):
    plane, clock, _worker = _plane_behind_history(tmp_path, finished=200)
    calls = []
    real_to_json = JobRecord.to_json
    monkeypatch.setattr(
        JobRecord, "to_json",
        lambda self: calls.append(self.job_id) or real_to_json(self),
    )
    plane.store.compact_every = 1
    assert plane.tick().compacted
    assert len(calls) == 208  # first snapshot: every job once
    first = plane.store.snapshot_path.read_bytes()

    del calls[:]
    plane.cancel("job-00201")
    assert plane.tick().compacted
    # 7 still live + the one that just turned terminal; none of the 200.
    assert sorted(calls) == [f"job-{n:05d}" for n in range(201, 209)]
    del calls[:]
    assert plane.tick().compacted is False  # nothing appended since
    plane.register_worker(name="late")
    assert plane.tick().compacted
    assert sorted(calls) == [f"job-{n:05d}" for n in range(202, 209)]

    # The cached payloads are the bytes a cold encode gives.
    second = json.loads(plane.store.snapshot_path.read_bytes())
    assert second["state"]["jobs"][:200] == json.loads(first)["state"]["jobs"][:200]
    plane.close()
    recovered = ControlPlane(
        DurableStore(tmp_path / "store"), executor=NoopExecutor(),
        retry=NO_JITTER, clock=clock,
    )
    # (the 7 jobs that were in flight come back re-queued; 201 are settled)
    assert recovered.job_list()[:201] == [
        real_to_json(job) for job in list(plane.jobs.values())[:201]
    ]
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

    # The file is the C encoder's canonical form of what recovery reads.
    store = DurableStore(root)
    image = store.recover()
    store.close()
    wal_seqs = [record["seq"] for record in image.records]
    expected = json.dumps(
        {
            "schema": STORE_SCHEMA_VERSION,
            "last_seq": wal_seqs[0] - 1 if wal_seqs else image.last_seq,
            "state": image.snapshot,
        },
        sort_keys=True,
    )
    assert snapshot == expected.encode("utf-8")
    assert not (root / "snapshot.json.tmp").exists()


if __name__ == "__main__":  # prints the constants above
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        records = scripted_run(f"{scratch}/store")
        print("SCRIPTED_APPENDS =", len(records))
        print("SCRIPTED_WAL_SHA256 =", _sha256("\n".join(records)))
        with open(f"{scratch}/store/snapshot.json", "rb") as fh:
            print("SCRIPTED_SNAPSHOT_SHA256 =", _sha256(fh.read()))
