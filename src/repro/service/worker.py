"""The out-of-process worker behind ``repro worker``.

One worker process runs a :class:`WorkerLoop`: register with the
daemon, then pull — claim dispatchable jobs, redeem each dispatch
token via ``start``, execute, ``report`` the outcome — while a
background thread heartbeats the lease.  Execution itself happens in a
*fresh child Python process per job* (:class:`SubprocessExecutor`), so
``kill -9`` on a worker or its child is a real fault the control plane
must absorb, not a simulated one.

The loop is deliberately fence-tolerant: a ``start`` or ``report``
rejected by the daemon (stale epoch, revoked claim, reaped worker) is
logged and dropped — the daemon has already re-queued or completed the
job, and insisting would be the double-effect the token fencing exists
to prevent.  A worker that learns it was reaped exits; supervisors
restart it and it re-registers under a fresh identity.
"""

from __future__ import annotations

import inspect
import json
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import repro
from repro.service.daemon import Executor, JobOutcome, SpecExecutor
from repro.service.errors import (
    ServiceError,
    TokenError,
    UnknownWorkerError,
)
from repro.service.retry import FailureKind, classify_exception
from repro.service.state import JobRecord

logger = logging.getLogger("repro.service.worker")

#: The directory holding the imported ``repro`` package.  A child gets it
#: on its ``PYTHONPATH``: the parent may have found ``repro`` through
#: ``sys.path`` alone (a test runner's path setting, an uninstalled
#: checkout), which a child does not inherit.
_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])


class SubprocessExecutor(Executor):
    """Runs each job in a fresh child Python process.

    The child (``python -m repro.service.worker``) reads the job record
    as JSON on stdin, interprets the spec with the same
    :class:`SpecExecutor` the daemon's in-process plane uses, and
    prints the :class:`JobOutcome` as JSON on stdout.  A child that
    dies without a well-formed outcome (crash, ``kill -9``) reports as
    a transient failure.  ``should_abort`` is polled while the child
    runs; when it fires the child is killed — the daemon revoked the
    claim, so the outcome would be fenced anyway.  The child imports the
    same ``repro`` as the parent: the package's directory leads its
    ``PYTHONPATH``.
    """

    #: Seconds between child liveness / abort polls.
    poll_interval = 0.05

    def execute(
        self,
        record: JobRecord,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> JobOutcome:
        path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        try:
            child.stdin.write(json.dumps({"job": record.to_json()}))
            child.stdin.close()
        except (BrokenPipeError, OSError):
            pass  # the child died early; the exit-code path reports it
        while child.poll() is None:
            if should_abort is not None and should_abort():
                child.kill()
                child.wait()
                return JobOutcome.failure(
                    FailureKind.TRANSIENT,
                    detail="execution aborted: claim revoked by the daemon",
                )
            time.sleep(self.poll_interval)
        stdout = child.stdout.read()
        stderr = child.stderr.read()
        if child.returncode != 0:
            return JobOutcome.failure(
                FailureKind.TRANSIENT,
                detail=(
                    f"worker child exited {child.returncode}: "
                    f"{stderr.strip()[-500:]}"
                ),
            )
        try:
            return JobOutcome.from_json(json.loads(stdout))
        except (ValueError, TypeError) as error:
            return JobOutcome.failure(
                FailureKind.TRANSIENT,
                detail=f"malformed child outcome: {error}",
            )


class WorkerLoop:
    """The ``repro worker`` loop: register, claim, execute, report.

    ``client`` speaks the worker protocol — normally a
    :class:`~repro.service.api.ServiceClient`, but anything with the
    same five methods works (tests drive the loop against in-process
    fakes).  Heartbeats run on a background thread at a third of the
    lease TTL; each response carries the daemon's view of this worker's
    claim set, and a job we are executing that disappears from it was
    revoked — the executor is asked to abort it.
    """

    def __init__(
        self,
        client,
        *,
        name: str = "",
        capacity: int = 1,
        executor: Optional[Executor] = None,
        poll_interval: float = 0.2,
        max_seconds: Optional[float] = None,
        idle_exit: Optional[float] = None,
    ) -> None:
        self.client = client
        self.name = name
        self.capacity = int(capacity)
        self.executor = (
            executor if executor is not None else SubprocessExecutor()
        )
        self.poll_interval = float(poll_interval)
        self.max_seconds = max_seconds
        self.idle_exit = idle_exit
        self.worker_id: Optional[str] = None
        self.executed = 0
        self._stop = threading.Event()
        self._hb_lock = threading.Lock()
        self._hb_jobs: frozenset = frozenset()
        self._hb_seq = 0
        self._abort_aware = "should_abort" in inspect.signature(
            self.executor.execute
        ).parameters

    def stop(self) -> None:
        """Ask the loop (and its heartbeat thread) to wind down."""
        self._stop.set()

    def run(self) -> int:
        """Register and pull until stopped; returns jobs executed."""
        grant = self.client.register_worker(
            name=self.name, capacity=self.capacity
        )
        self.worker_id = str(grant["worker_id"])
        ttl = float(grant.get("ttl", 5.0))
        logger.info(
            "worker %s registered (epoch %s, lease ttl %.1fs)",
            self.worker_id, grant.get("epoch"), ttl,
        )
        heartbeats = threading.Thread(
            target=self._heartbeat_loop,
            args=(max(0.05, ttl / 3.0),),
            daemon=True,
        )
        heartbeats.start()
        started = time.monotonic()
        idle_since: Optional[float] = None
        try:
            while not self._stop.is_set():
                grants = self._claim()
                if grants is None:
                    break  # reaped: exit so a supervisor re-registers us
                if grants:
                    idle_since = None
                    for item in grants:
                        self._run_one(item["job"], item["token"])
                else:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.idle_exit is not None
                        and now - idle_since >= self.idle_exit
                    ):
                        logger.info(
                            "worker %s idle for %.1fs, exiting",
                            self.worker_id, self.idle_exit,
                        )
                        break
                    self._stop.wait(self.poll_interval)
                if (
                    self.max_seconds is not None
                    and time.monotonic() - started >= self.max_seconds
                ):
                    break
        finally:
            self._stop.set()
        return self.executed

    def _claim(self) -> Optional[list]:
        try:
            return self.client.claim(self.worker_id, max_jobs=self.capacity)
        except UnknownWorkerError:
            logger.warning(
                "worker %s was reaped by the daemon; exiting for a fresh "
                "registration", self.worker_id,
            )
            return None
        except ServiceError as error:
            logger.warning("claim failed (%s); idling", error.reason)
            return []

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                view = self.client.heartbeat(self.worker_id)
            except UnknownWorkerError:
                self._stop.set()
                return
            except ServiceError:
                continue  # transient; the lease TTL has slack for this
            with self._hb_lock:
                self._hb_jobs = frozenset(view.get("jobs", ()))
                self._hb_seq += 1

    def _run_one(self, job_payload: dict, token: dict) -> None:
        record = JobRecord.from_json(job_payload)
        try:
            self.client.start(token)
        except (TokenError, ServiceError) as error:
            logger.warning(
                "start for %s fenced (%s)",
                record.job_id, getattr(error, "reason", "?"),
            )
            return
        with self._hb_lock:
            seq_at_start = self._hb_seq

        def should_abort() -> bool:
            # Only trust a claim-set view observed *after* the start —
            # a pre-start heartbeat legitimately lacks this job.
            with self._hb_lock:
                return (
                    self._hb_seq > seq_at_start
                    and record.job_id not in self._hb_jobs
                )

        kwargs = {"should_abort": should_abort} if self._abort_aware else {}
        try:
            outcome = self.executor.execute(record, **kwargs)
        except Exception as error:  # noqa: BLE001 - seam boundary
            outcome = JobOutcome.failure(
                classify_exception(error),
                detail=f"{type(error).__name__}: {error}",
            )
        self.executed += 1
        try:
            verdict = self.client.report(token, outcome.to_json())
        except ServiceError as error:
            logger.warning(
                "report for %s failed (%s); the daemon's reapers own it now",
                record.job_id, error.reason,
            )
            return
        if not verdict.get("accepted"):
            logger.warning(
                "report for %s fenced (%s)",
                record.job_id, verdict.get("reason"),
            )


def run_child(stdin=None, stdout=None) -> int:
    """Entry point of one job's child process (``-m repro.service.worker``).

    Protocol: ``{"job": <JobRecord JSON>}`` on stdin, one
    :class:`JobOutcome` JSON object on stdout.  The exit code says only
    whether the protocol completed — job failure travels *inside* the
    outcome, so the parent can tell "the job failed" from "the child
    crashed".
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    try:
        payload = json.load(stdin)
        record = JobRecord.from_json(payload["job"])
    except (ValueError, KeyError, TypeError) as error:
        outcome = JobOutcome.failure(
            FailureKind.FATAL, detail=f"malformed job payload: {error}"
        )
        print(json.dumps(outcome.to_json()), file=stdout)
        return 0
    try:
        outcome = SpecExecutor().execute(record)
    except Exception as error:  # noqa: BLE001 - seam boundary
        outcome = JobOutcome.failure(
            classify_exception(error),
            detail=f"{type(error).__name__}: {error}",
        )
    print(json.dumps(outcome.to_json()), file=stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(run_child())
