"""The ``service-drain`` workload: the control plane with no simulator.

A closed loop keeps ``IN_FLIGHT`` noop jobs open against a
``ControlPlane`` over a real ``DurableStore`` (fsync off, the ``repro
serve`` default).  One cycle is ``tick()`` and then each of two
in-process workers doing ``claim -> start -> report`` through the
plane's public methods, so plane overhead is the whole cost and the
retained history (every finished job stays in ``plane.jobs``) is what
makes late jobs slower than early ones.  An op is one job, timed from
its ``submit`` to the ``report`` that finished it.

``--seed`` deals the jobs to the tenants in a seeded order; every
tenant still gets the same number of jobs.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from spans import (
    SpanRecorder,
    nearest_rank,
    on_clock,
    patched,
    span_patches,
    summarise,
    trace_overhead,
    write_jsonl,
)
from speed import SpeedMeter

JOBS = 4000
SMOKE_JOBS = 400
TENANTS = 4
IN_FLIGHT = 32
WORKERS = 2
WORKER_CAPACITY = 8
SETUP_REPEATS = 9
FSYNC_APPENDS = 500
API_REQUESTS = 1200

SERVICE_TARGETS = {
    "service.store.append": "repro.service.store:DurableStore.append",
    "service.store.compact": "repro.service.store:DurableStore.compact",
    "service.store.recover": "repro.service.store:DurableStore.recover",
    "service.daemon.submit": "repro.service.daemon:ControlPlane.submit",
    "service.daemon.tick": "repro.service.daemon:ControlPlane.tick",
    "service.daemon.claim": "repro.service.daemon:ControlPlane.claim",
    "service.daemon.start": "repro.service.daemon:ControlPlane.start",
    "service.daemon.report": "repro.service.daemon:ControlPlane.report",
}

#: The plane's entry points: every other service span is their child.
_ENTRY_SPANS = tuple(n for n in SERVICE_TARGETS if n.startswith("service.daemon."))


def _boot(root: Path):
    """Set-up: store directory, plane boot (epoch record), worker roster."""
    from repro.service import ControlPlane, DurableStore, NoopExecutor

    plane = ControlPlane(DurableStore(root), executor=NoopExecutor())
    workers = [
        plane.register_worker(name=f"bench-{i}", capacity=WORKER_CAPACITY)["worker_id"]
        for i in range(WORKERS)
    ]
    return plane, workers


def _drain(plane, workers: list, tenants: list, meter: SpeedMeter) -> dict:
    """The measured region: submit every job and run it to FINISHED.

    Times are raw ``perf_counter`` stamps; jobs stay open across cycles
    and the speed probe runs between cycles, which the reference clock
    takes out again.
    """
    from repro.service import JobState

    clock = time.perf_counter
    executor = plane.executor
    submitted: dict[str, float] = {}
    job_stamps: list[tuple[float, float]] = []
    next_job = 0
    probes_before = len(meter.runs)
    cpu_start = time.process_time()
    begin = clock()
    while len(job_stamps) < len(tenants):
        while next_job < len(tenants) and len(submitted) < IN_FLIGHT:
            at = clock()
            job_id = plane.submit({"kind": "noop"}, tenant=tenants[next_job])
            submitted[job_id] = at
            next_job += 1
        plane.tick()
        for worker in workers:
            for job, token in plane.claim(worker, max_jobs=WORKER_CAPACITY):
                outcome = executor.execute(plane.start(token))
                reply = plane.report(token, outcome)
                if reply["state"] == JobState.FINISHED.value:
                    job_stamps.append((submitted.pop(job.job_id), clock()))
        meter.tick()
    end = clock()
    cpu = time.process_time() - cpu_start
    cpu -= sum(stop - start for start, stop in meter.runs[probes_before:])
    return {"stamps": (begin, end), "cpu_s": cpu, "job_stamps": job_stamps}


def _check_jobs(plane, jobs: int, when: str) -> list[str]:
    from repro.service import JobState

    unfinished = sum(job.state is not JobState.FINISHED for job in plane.jobs.values())
    if unfinished or len(plane.jobs) != jobs:
        return [f"{when}: {unfinished} of {len(plane.jobs)} jobs not finished"]
    return []


def _check_counters(counters: dict, jobs: int) -> list[str]:
    failures = []
    if not counters["starts"] == counters["reports"] == jobs:
        failures.append(f"starts/reports != {jobs}: {counters}")
    rejections = counters["start_rejections"] + counters["report_rejections"]
    if rejections:
        failures.append(f"{rejections} start/report rejections")
    return failures


def run_pass(
    order_seed: int, traced: bool, small: bool, trace_out: Optional[str], work_dir: Path
) -> dict:
    """Drain the jobs once; returns the pass record."""
    from repro.service import ControlPlane, DurableStore, NoopExecutor

    jobs = SMOKE_JOBS if small else JOBS
    tenants = [f"tenant-{i % TENANTS}" for i in range(jobs)]
    random.Random(order_seed).shuffle(tenants)

    recorder = SpanRecorder()
    patches, unwrapped = span_patches(recorder, SERVICE_TARGETS) if traced else ([], 0)

    clock = time.perf_counter
    meter = SpeedMeter()
    work_dir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="drain-", dir=work_dir))
    try:
        with patched(patches):
            setup_stamps = []
            for attempt in range(1 if traced else SETUP_REPEATS):
                if attempt:
                    plane.close()
                    shutil.rmtree(root / "store")
                meter.sample()
                start = clock()
                plane, workers = _boot(root / "store")
                setup_stamps.append((start, clock()))
            meter.sample()
            boot_appends = plane.store.appends

            drain = _drain(plane, workers, tenants, meter)

            counters = dict(plane.counters)
            failures = _check_jobs(plane, jobs, "after the drain")
            failures += _check_counters(counters, jobs)
            appends = plane.store.appends - boot_appends
            plane.close()
            disk_bytes = sum(f.stat().st_size for f in (root / "store").iterdir())
            meter.sample()
            start = clock()
            recovered = ControlPlane(
                DurableStore(root / "store"), executor=NoopExecutor()
            )
            recover_stamps = (start, clock())
        failures += _check_jobs(recovered, jobs, "after recovery")
        # Both probes run with the wrappers already removed: the API
        # server answers on its own threads, which the single-threaded
        # span stack must never see.
        api_stamps = _api_probe(recovered, meter) if traced else []
        fsync_stamps = _fsync_probe(root / "fsync", meter) if traced else []
        recovered.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # From here on every host time is read off the reference clock.
    to_reference = meter.reference_clock()

    def lasted(stamps: tuple) -> float:
        return to_reference(stamps[1]) - to_reference(stamps[0])

    setups = sorted(lasted(stamps) for stamps in setup_stamps)
    latencies = sorted(lasted(stamps) for stamps in drain["job_stamps"])
    wall = lasted(drain["stamps"])
    record = {
        "ops": jobs,
        "kernel_s": meter.kernel_s(),
        "failures": failures,
        "end_to_end": {
            "setup_s": setups[len(setups) // 2],
            "wall_s": wall,
            "op_p50_ms": nearest_rank(latencies, 0.50) * 1e3,
            "op_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        },
    }
    if not traced:
        return record

    spans = on_clock(recorder.spans, to_reference)
    row = summarise(spans).__getitem__
    begin = to_reference(drain["stamps"][0])
    finished_at = [to_reference(done) - begin for _submitted, done in drain["job_stamps"]]
    quarter = jobs // 4
    append_us = sorted(
        (end - start) * 1e6
        for name, _run, _parent, start, end in spans
        if name == "service.store.append"
    ) or [0.0]
    api_ms = sorted(lasted(stamps) * 1e3 for stamps in api_stamps)
    fsync_us = sorted(lasted(stamps) * 1e6 for stamps in fsync_stamps)
    raw_wall = drain["stamps"][1] - drain["stamps"][0]
    metrics = {
        "service.store.append.p50_us": nearest_rank(append_us, 0.50),
        "service.store.append.p99_us": nearest_rank(append_us, 0.99),
        "service.store.recover_ms": lasted(recover_stamps) * 1e3,
        "service.store.wal_bytes": disk_bytes,
        "service.store.append_fsync_p50_us": nearest_rank(fsync_us, 0.50),
        "service.daemon.appends_per_job": appends / jobs,
        # Wall of the last quarter of the jobs over the first quarter's.
        "service.daemon.decay_ratio": (
            (finished_at[-1] - finished_at[-quarter - 1]) / finished_at[quarter - 1]
        ),
        "service.workers.redispatches": (
            counters["requeued_lost"] + counters["stalled_requeued"]
        ),
        "service.workers.rejections": (
            counters["start_rejections"] + counters["report_rejections"]
        ),
        "service.api.request_p50_ms": nearest_rank(api_ms, 0.50),
        "service.api.request_p99_ms": nearest_rank(api_ms, 0.99),
        "bench.cpu_s": drain["cpu_s"] * wall / raw_wall,
        "bench.span_count": len(spans),
        "bench.unwrapped_targets": unwrapped,
        "bench.trace_overhead": trace_overhead(wall, len(spans)),
        # The loop's own bookkeeping between calls into the plane.
        "bench.unattributed_s": wall
        - sum(
            end - start
            for name, _run, parent, start, end in spans
            if parent < 0 and name in _ENTRY_SPANS
        ),
    }
    for name, fields in (
        ("service.store.append", ("calls", "total_s")),
        ("service.store.compact", ("calls", "total_s")),
        ("service.daemon.submit", ("calls", "total_s")),
        ("service.daemon.tick", ("calls", "total_s", "self_s")),
        ("service.daemon.claim", ("total_s",)),
        ("service.daemon.start", ("total_s",)),
        ("service.daemon.report", ("total_s",)),
    ):
        for field in fields:
            metrics[f"{name}.{field}"] = row(name)[field]
    record["per_layer"] = metrics
    if trace_out:
        write_jsonl(trace_out, spans, {0: "service-drain"})
    return record


def _fsync_probe(root: Path, meter: SpeedMeter) -> list[tuple[float, float]]:
    """Raw stamps of appends to a second store that fsyncs each record."""
    from repro.service import DurableStore

    store = DurableStore(root, fsync=True)
    store.recover()
    clock = time.perf_counter
    stamps = []
    for index in range(FSYNC_APPENDS):
        start = clock()
        store.append("probe", index=index)
        stamps.append((start, clock()))
        meter.tick()
    store.close()
    return stamps


def _api_probe(plane, meter: SpeedMeter) -> list[tuple[float, float]]:
    """Raw stamps of loopback requests: submit, status, health in turn."""
    from repro.service.api import ServiceClient, ServiceServer

    server = ServiceServer(plane)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.endpoint
        client = ServiceClient(f"http://{host}:{port}")
        clock = time.perf_counter
        stamps = []

        def timed(call, *args, **kwargs):
            start = clock()
            value = call(*args, **kwargs)
            stamps.append((start, clock()))
            meter.tick()
            return value

        # Eight tenants keep every one under its queued-jobs admission cap.
        for index in range(API_REQUESTS // 3):
            job_id = timed(client.submit, {"kind": "noop"}, tenant=f"api-{index % 8}")
            timed(client.status, job_id)
            timed(client.health)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    return stamps
