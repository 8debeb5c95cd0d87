"""Sweep execution: a process pool with caching and failure capture.

``run_sweep`` is the subsystem's single entry point:

* cached cells are served before any worker spawns, so a warm cache
  recomputes nothing,
* ``workers=1`` runs serially in-process (no multiprocessing at all —
  the debuggable fallback), ``workers>1`` fans out over a
  ``ProcessPoolExecutor``,
* results are deterministic in the task alone: every random draw in a
  run derives from the scenario seed via named streams, and the worker
  additionally pins the *global* RNGs per task so that even ambient
  ``random``/``numpy`` calls cannot make serial and parallel runs
  diverge,
* a raising cell is captured as a per-task failure record (traceback
  included) instead of poisoning the pool or the whole sweep,
* an optional :class:`~repro.service.retry.RetryPolicy` re-runs
  *transient* failures (worker deaths, IO trouble) with capped
  exponential backoff; deterministic cells that raise keep failing
  fast because their errors classify as fatal.

Workers ship results back as ``to_json`` payloads rather than live
objects — smaller pickles, and exactly what the cache stores.
"""

from __future__ import annotations

import logging
import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.experiments.runner import run_scenario
from repro.service.retry import FailureKind, RetryPolicy
from repro.simulation.rng import derive_seed
from repro.simulation.simulator import SimulationResult
from repro.sweep.cache import ResultCache
from repro.sweep.matrix import SweepTask
from repro.sweep.progress import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ProgressTracker,
    SweepReport,
    TaskRecord,
)

CacheLike = Union[ResultCache, str, Path, None]

logger = logging.getLogger("repro.sweep.executor")


def _seed_globals(task: SweepTask) -> None:
    """Pin process-global RNGs to a per-task derivation of the seed.

    The simulator only draws from named streams, but third-party code a
    scheduler might call could touch the global generators; pinning them
    per task makes results independent of execution order and worker
    placement.  Derived from the content fingerprint — the same basis
    as the cache key — so two tasks that share a cache entry also run
    under the same global RNG state.
    """
    seed = derive_seed(task.scenario.generator.seed, f"sweep:{task.fingerprint()}")
    random.seed(seed)
    np.random.seed(seed % 2**32)


def execute_task(task: SweepTask) -> tuple[Optional[SimulationResult], Optional[str], float]:
    """Run one cell in-process; returns (result, traceback, seconds)."""
    start = time.perf_counter()
    try:
        _seed_globals(task)
        result = run_scenario(
            task.scenario, task.scheduler, task.kwargs_dict(), obs=task.obs
        )
        return result, None, time.perf_counter() - start
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - start


def _execute_task_payload(task: SweepTask) -> tuple[str, Optional[dict], Optional[str], float]:
    """Worker-side wrapper: same as :func:`execute_task` but JSON-safe."""
    result, error, seconds = execute_task(task)
    payload = None if result is None else result.to_json()
    return task.task_id, payload, error, seconds


#: Exception names (a traceback's last line) classified as transient —
#: the same infra/IO family :func:`repro.service.retry.classify_exception`
#: treats as retryable, by name because worker tracebacks arrive as text.
_TRANSIENT_ERROR_NAMES = frozenset({
    "OSError",
    "IOError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionAbortedError",
    "ConnectionRefusedError",
    "BrokenPipeError",
    "TimeoutError",
    "BrokenProcessPool",
    "EOFError",
})


def classify_traceback(error: Optional[str]) -> FailureKind:
    """Classify a captured traceback string for retry purposes.

    Looks at the exception name on the last non-empty line
    (``"Name: message"``); unknown or unparsable errors are fatal — a
    deterministic cell that raised will raise again, so retrying it
    only wastes workers.
    """
    if not error:
        return FailureKind.FATAL
    lines = [line for line in error.strip().splitlines() if line.strip()]
    if not lines:
        return FailureKind.FATAL
    name = lines[-1].split(":", 1)[0].strip()
    # "module.path.ExcName" from `raise module.Exc(...)` tracebacks.
    name = name.rsplit(".", 1)[-1]
    if name in _TRANSIENT_ERROR_NAMES:
        return FailureKind.TRANSIENT
    return FailureKind.FATAL


def _normalize_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _pool_context():
    """Prefer fork (fast, inherits sys.path); fall back to spawn."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context("spawn")


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: int = 1,
    cache: CacheLike = None,
    progress: Optional[Callable[[str], None]] = None,
    progress_every: int = 1,
    retry: Optional[RetryPolicy] = None,
) -> SweepReport:
    """Execute every task, through the cache and (optionally) a pool.

    ``cache`` accepts a :class:`ResultCache` or a directory path.
    ``progress`` is an optional ``print``-like callable that receives
    one status line per completed cell.  ``retry`` (a
    :class:`RetryPolicy`) re-runs cells whose failure classifies as
    transient — pool-level worker deaths always do, in-task tracebacks
    via :func:`classify_traceback` — after the policy's capped backoff;
    each record's ``attempts`` reports the executions it took.  In the
    parallel path backoffs are deadlines, not sleeps (other cells keep
    dispatching and collecting), and a worker death that breaks the
    process pool recreates the pool before resubmitting.
    """
    tasks = list(tasks)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seen: set[str] = set()
    for task in tasks:
        if task.task_id in seen:
            raise ValueError(f"duplicate task id {task.task_id!r} in sweep")
        seen.add(task.task_id)

    store = _normalize_cache(cache)
    tracker = ProgressTracker(len(tasks), print_fn=progress, every=progress_every)
    started = time.perf_counter()
    records: dict[str, TaskRecord] = {}
    results: dict[str, SimulationResult] = {}

    pending: list[SweepTask] = []
    for task in tasks:
        cached = store.load(task) if store is not None else None
        if cached is not None:
            record = TaskRecord(task.task_id, STATUS_CACHED)
            records[task.task_id] = record
            results[task.task_id] = cached
            tracker.update(record)
        else:
            pending.append(task)

    attempts: dict[str, int] = {}
    elapsed: dict[str, float] = {}

    def finish(task: SweepTask, result: Optional[SimulationResult],
               error: Optional[str], seconds: float) -> None:
        total_seconds = elapsed.get(task.task_id, 0.0) + seconds
        tried = attempts.get(task.task_id, 1)
        if result is not None:
            record = TaskRecord(task.task_id, STATUS_OK, total_seconds,
                                attempts=tried)
            results[task.task_id] = result
            if store is not None:
                store.store(task, result)
        else:
            record = TaskRecord(task.task_id, STATUS_FAILED, total_seconds,
                                error=error, attempts=tried)
        records[task.task_id] = record
        tracker.update(record)

    def retry_delay(
        task: SweepTask, kind: FailureKind, seconds: float
    ) -> Optional[float]:
        """Consume one attempt; the backoff (seconds) or None (give up)."""
        if retry is None:
            return None
        tried = attempts.get(task.task_id, 1)
        if not retry.should_retry(kind, tried):
            return None
        delay = retry.delay(tried, key=task.task_id)
        attempts[task.task_id] = tried + 1
        elapsed[task.task_id] = elapsed.get(task.task_id, 0.0) + seconds
        logger.info(
            "retrying %s after %s failure (attempt %d, backoff %.2fs)",
            task.task_id, kind.value, tried, delay,
        )
        return delay

    if workers == 1 or len(pending) <= 1:
        for task in pending:
            while True:
                result, error, seconds = execute_task(task)
                delay = None
                if result is None:
                    delay = retry_delay(task, classify_traceback(error), seconds)
                if delay is None:
                    finish(task, result, error, seconds)
                    break
                if delay > 0:
                    time.sleep(delay)
    else:
        _run_parallel(pending, workers, finish, retry_delay)

    return SweepReport(
        records=[records[task.task_id] for task in tasks],
        results=results,
        workers=workers,
        wall_seconds=time.perf_counter() - started,
    )


def _run_parallel(
    pending: Sequence[SweepTask],
    workers: int,
    finish: Callable[[SweepTask, Optional[SimulationResult], Optional[str], float], None],
    retry_delay: Callable[[SweepTask, FailureKind, float], Optional[float]],
) -> None:
    """The pool path: dispatch, collect, and retry without blocking.

    Retries wait out their backoff as *deadlines* in ``waiting`` while
    other futures keep completing — one flaky cell never serializes the
    sweep.  A worker death marks every in-flight future failed and
    breaks the pool; resubmission goes through :func:`submit` below,
    which recreates the pool, so completed results survive the crash
    and the dead cells either retry (policy permitting) or land as
    per-task failure records.
    """
    max_workers = min(workers, len(pending))
    pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=_pool_context())
    futures: dict = {}
    remaining: set = set()
    waiting: list[tuple[float, SweepTask]] = []  # (deadline, task) backoffs

    def submit(task: SweepTask) -> None:
        nonlocal pool
        try:
            future = pool.submit(_execute_task_payload, task)
        except BrokenProcessPool:
            logger.warning(
                "process pool broken; recreating it to resubmit %s", task.task_id
            )
            pool.shutdown(wait=False)
            pool = ProcessPoolExecutor(
                max_workers=max_workers, mp_context=_pool_context()
            )
            future = pool.submit(_execute_task_payload, task)
        futures[future] = task
        remaining.add(future)

    try:
        for task in pending:
            submit(task)
        while remaining or waiting:
            now = time.monotonic()
            if waiting:
                due = [entry for entry in waiting if entry[0] <= now]
                if due:
                    waiting = [entry for entry in waiting if entry[0] > now]
                    for _, task in due:
                        submit(task)
            if not remaining:
                # Everything left is waiting out a backoff deadline.
                time.sleep(max(0.0, min(when for when, _ in waiting) - now))
                continue
            timeout = (
                max(0.0, min(when for when, _ in waiting) - now)
                if waiting else None
            )
            done, remaining = wait(
                remaining, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                task = futures.pop(future)
                error = future.exception()
                if error is not None:
                    # Pool-level failure (e.g. a killed worker) —
                    # always transient: the cell never got to run.
                    delay = retry_delay(task, FailureKind.TRANSIENT, 0.0)
                    if delay is None:
                        finish(task, None, f"{type(error).__name__}: {error}", 0.0)
                    else:
                        waiting.append((time.monotonic() + delay, task))
                    continue
                _, payload, task_error, seconds = future.result()
                result = (
                    None if payload is None else SimulationResult.from_json(payload)
                )
                delay = None
                if result is None:
                    delay = retry_delay(
                        task, classify_traceback(task_error), seconds
                    )
                if delay is None:
                    finish(task, result, task_error, seconds)
                else:
                    waiting.append((time.monotonic() + delay, task))
    finally:
        pool.shutdown(wait=True)
