"""Executor behaviour: determinism, caching, failure capture."""

import os
import signal

import pytest

from repro.experiments.config import tiny_scenario
from repro.experiments.figures import compare_schedulers
from repro.service.retry import FailureKind, RetryPolicy
from repro.sweep import (
    classify_traceback,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ResultCache,
    SweepError,
    SweepMatrix,
    SweepTask,
    run_sweep,
)


def _matrix_tasks(num_apps=2, schedulers=("themis", "tiresias"), seeds=(1, 2)):
    return SweepMatrix(
        base=tiny_scenario(num_apps=num_apps),
        schedulers=schedulers,
        seeds=seeds,
    ).expand()


def _payloads(report):
    return {tid: result.to_json() for tid, result in report.results.items()}


def test_serial_and_parallel_results_are_identical():
    """Same seed => byte-identical results for workers=1 vs workers=4."""
    tasks = _matrix_tasks()
    serial = run_sweep(tasks, workers=1)
    parallel = run_sweep(tasks, workers=4)
    assert serial.num_ok == parallel.num_ok == len(tasks)
    assert _payloads(serial) == _payloads(parallel)


def test_records_preserve_task_order():
    tasks = _matrix_tasks()
    report = run_sweep(tasks, workers=4)
    assert [r.task_id for r in report.records] == [t.task_id for t in tasks]


def test_cache_hit_skips_recompute(tmp_path):
    tasks = _matrix_tasks(seeds=(5,))
    cache = ResultCache(tmp_path)
    cold = run_sweep(tasks, workers=1, cache=cache)
    assert cold.num_ok + cold.num_failed == len(tasks)
    assert cache.writes == len(tasks)

    warm_cache = ResultCache(tmp_path)
    warm = run_sweep(tasks, workers=1, cache=warm_cache)
    assert warm.num_ok + warm.num_failed == 0
    assert warm.num_cached == len(tasks)
    assert warm_cache.hits == len(tasks)
    assert warm_cache.writes == 0  # nothing recomputed => nothing rewritten
    assert _payloads(warm) == _payloads(cold)
    assert all(r.status == STATUS_CACHED for r in warm.records)


def test_cache_accepts_directory_path(tmp_path):
    tasks = _matrix_tasks(seeds=(5,))
    run_sweep(tasks, workers=1, cache=tmp_path / "store")
    warm = run_sweep(tasks, workers=1, cache=tmp_path / "store")
    assert warm.num_cached == len(tasks)


def test_changed_cell_recomputes_only_itself(tmp_path):
    tasks = _matrix_tasks(seeds=(5,))
    run_sweep(tasks, workers=1, cache=tmp_path)
    changed = tasks + [
        SweepTask(scenario=tiny_scenario(num_apps=2, seed=99), scheduler="themis",
                  tags=(("seed", 99),))
    ]
    report = run_sweep(changed, workers=1, cache=tmp_path)
    assert report.num_cached == len(tasks)
    assert report.num_ok + report.num_failed == 1


def test_worker_exception_becomes_failure_record():
    """A raising cell yields a per-task failure, not a hung/poisoned pool."""
    good = SweepTask(scenario=tiny_scenario(num_apps=2), scheduler="themis")
    bad = SweepTask(
        scenario=tiny_scenario(num_apps=2), scheduler="themis",
        scheduler_kwargs=(("not_a_real_kwarg", 1),),
    )
    report = run_sweep([good, bad], workers=2)
    by_id = {r.task_id: r for r in report.records}
    assert by_id[good.task_id].status == STATUS_OK
    assert by_id[bad.task_id].status == STATUS_FAILED
    assert "not_a_real_kwarg" in by_id[bad.task_id].error
    assert good.task_id in report.results
    assert bad.task_id not in report.results
    with pytest.raises(SweepError, match="not_a_real_kwarg"):
        report.raise_on_failure()


def test_failed_cells_are_not_cached(tmp_path):
    bad = SweepTask(
        scenario=tiny_scenario(num_apps=2), scheduler="themis",
        scheduler_kwargs=(("not_a_real_kwarg", 1),),
    )
    run_sweep([bad], workers=1, cache=tmp_path)
    retry = run_sweep([bad], workers=1, cache=tmp_path)
    assert retry.records[0].status == STATUS_FAILED  # re-attempted, not cached


def test_duplicate_task_ids_rejected():
    task = SweepTask(scenario=tiny_scenario(num_apps=2), scheduler="themis")
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep([task, task], workers=1)


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError, match="workers"):
        run_sweep([], workers=0)


def test_progress_lines_stream(capsys):
    tasks = _matrix_tasks(seeds=(5,))
    lines = []
    run_sweep(tasks, workers=1, progress=lines.append)
    assert len(lines) == len(tasks)
    assert lines[0].startswith("[1/")


def test_compare_schedulers_goes_through_sweep(tmp_path):
    """The macrobenchmark path: parallel + cached == plain serial."""
    scenario = tiny_scenario(num_apps=2)
    serial = compare_schedulers(scenario, ("themis", "fifo"))
    parallel = compare_schedulers(
        scenario, ("themis", "fifo"), workers=2, cache_dir=tmp_path
    )
    assert set(serial) == set(parallel) == {"themis", "fifo"}
    for name in serial:
        assert serial[name].to_json() == parallel[name].to_json()
    # Second call is served entirely from cache but yields equal results.
    warm = compare_schedulers(
        scenario, ("themis", "fifo"), workers=2, cache_dir=tmp_path
    )
    for name in serial:
        assert warm[name].to_json() == serial[name].to_json()


# ----------------------------------------------------------------------
# Transient-failure retries (the RetryPolicy seam)
# ----------------------------------------------------------------------
def test_classify_traceback():
    transient = "Traceback (most recent call last):\n  ...\nOSError: disk\n"
    assert classify_traceback(transient) is FailureKind.TRANSIENT
    dotted = "...\nconcurrent.futures.process.BrokenProcessPool: died\n"
    assert classify_traceback(dotted) is FailureKind.TRANSIENT
    fatal = "Traceback (most recent call last):\nValueError: bad input\n"
    assert classify_traceback(fatal) is FailureKind.FATAL
    assert classify_traceback(None) is FailureKind.FATAL
    assert classify_traceback("") is FailureKind.FATAL


NO_WAIT = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def test_transient_failure_is_retried_serially(monkeypatch):
    """First execution dies with an IO error; the retry succeeds."""
    from repro.sweep import executor as executor_module

    task = SweepTask(scenario=tiny_scenario(num_apps=2), scheduler="themis")
    real_execute = executor_module.execute_task
    calls = []

    def flaky_execute(t):
        calls.append(t.task_id)
        if len(calls) == 1:
            return None, "Traceback ...\nOSError: transient blip\n", 0.01
        return real_execute(t)

    monkeypatch.setattr(executor_module, "execute_task", flaky_execute)
    report = run_sweep([task], workers=1, retry=NO_WAIT)
    record = report.records[0]
    assert record.status == STATUS_OK
    assert record.attempts == 2
    assert len(calls) == 2
    assert report.num_retried == 1
    assert "1 retried" in report.summary()


def test_fatal_failure_is_not_retried(monkeypatch):
    """Deterministic cell bugs fail fast even with a retry policy."""
    bad = SweepTask(
        scenario=tiny_scenario(num_apps=2), scheduler="themis",
        scheduler_kwargs=(("not_a_real_kwarg", 1),),
    )
    report = run_sweep([bad], workers=1, retry=NO_WAIT)
    record = report.records[0]
    assert record.status == STATUS_FAILED
    assert record.attempts == 1  # TypeError classifies as fatal
    assert report.num_retried == 0


def test_transient_retries_exhaust_to_failure(monkeypatch):
    from repro.sweep import executor as executor_module

    task = SweepTask(scenario=tiny_scenario(num_apps=2), scheduler="themis")
    calls = []

    def always_fail(t):
        calls.append(t.task_id)
        return None, "Traceback ...\nConnectionResetError: peer\n", 0.01

    monkeypatch.setattr(executor_module, "execute_task", always_fail)
    report = run_sweep(
        [task], workers=1,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
    )
    record = report.records[0]
    assert record.status == STATUS_FAILED
    assert record.attempts == 2
    assert len(calls) == 2


# ----------------------------------------------------------------------
# Parallel-path resilience: killed workers and non-blocking backoff.
# The monkeypatched execute_task reaches pool workers because the pool
# forks them from the (already patched) test process; cross-attempt
# state lives in sentinel files since each attempt may run in a fresh
# worker process.
# ----------------------------------------------------------------------
def _sentinel(tmp_path, task):
    safe = "".join(c if c.isalnum() else "_" for c in task.task_id)
    return tmp_path / f"seen-{safe}"


def test_killed_worker_is_retried_after_pool_recreation(tmp_path, monkeypatch):
    """SIGKILLing a worker breaks the whole pool; the sweep must
    recreate it and retry the dead cells instead of crashing."""
    from repro.sweep import executor as executor_module

    tasks = _matrix_tasks(seeds=(1,))
    victim = tasks[0].task_id
    marker = tmp_path / "killed-once"
    real_execute = executor_module.execute_task

    def kill_first(task):
        if task.task_id == victim and not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        return real_execute(task)

    monkeypatch.setattr(executor_module, "execute_task", kill_first)
    report = run_sweep(tasks, workers=2, retry=NO_WAIT)
    by_id = {r.task_id: r for r in report.records}
    assert all(r.status == STATUS_OK for r in report.records)
    assert by_id[victim].attempts >= 2
    assert set(report.results) == {t.task_id for t in tasks}


def test_killed_worker_without_retry_records_failures(tmp_path, monkeypatch):
    """No retry policy: a broken pool yields per-task failure records —
    run_sweep itself must not raise BrokenProcessPool."""
    from repro.sweep import executor as executor_module

    tasks = _matrix_tasks(seeds=(1,))

    def kill_always(task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(executor_module, "execute_task", kill_always)
    report = run_sweep(tasks, workers=2)
    assert all(r.status == STATUS_FAILED for r in report.records)
    assert any("BrokenProcessPool" in (r.error or "") for r in report.records)


def test_parallel_transient_retry_waits_out_backoff(tmp_path, monkeypatch):
    """In-task transient failures retry through the parallel deadline
    queue (nonzero backoff) and still converge to OK."""
    from repro.sweep import executor as executor_module

    tasks = _matrix_tasks(seeds=(1,))
    real_execute = executor_module.execute_task

    def flaky(task):
        marker = _sentinel(tmp_path, task)
        if not marker.exists():
            marker.write_text("x")
            return None, "Traceback ...\nOSError: transient blip\n", 0.01
        return real_execute(task)

    monkeypatch.setattr(executor_module, "execute_task", flaky)
    report = run_sweep(
        tasks, workers=2,
        retry=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0),
    )
    assert all(r.status == STATUS_OK for r in report.records)
    assert all(r.attempts == 2 for r in report.records)
    assert report.num_retried == len(tasks)


def test_no_policy_means_no_retry(monkeypatch):
    from repro.sweep import executor as executor_module

    task = SweepTask(scenario=tiny_scenario(num_apps=2), scheduler="themis")
    calls = []

    def always_fail(t):
        calls.append(t.task_id)
        return None, "Traceback ...\nOSError: blip\n", 0.01

    monkeypatch.setattr(executor_module, "execute_task", always_fail)
    report = run_sweep([task], workers=1)
    assert report.records[0].status == STATUS_FAILED
    assert report.records[0].attempts == 1
    assert len(calls) == 1
