"""Stateful property test of the control plane (Hypothesis state machine).

Random interleavings of every public entry point — submit, tick, claim,
start, report (ok / transient / fatal), cancel, heartbeat, the fake
clock running leases and deadlines out, close-and-recover — and after
every step:

* the live index holds exactly the non-terminal jobs, in ``order`` order;
* ``stats()["jobs"]`` and ``active_jobs`` equal a recount of the table;
* a second plane recovered from a copy of the store directory lists the
  same jobs (in-flight work comes back re-queued by the orphan sweep,
  everything else field for field) and its own index passes the same
  checks.

``derandomize=True``: the same 50 programs on every run, so a failure
here is a regression, never a flake.
"""

import shutil
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.chaos import FakeClock, ScriptedExecutor
from repro.service.daemon import ControlPlane, JobOutcome
from repro.service.errors import AdmissionError, TokenError, UnknownWorkerError
from repro.service.retry import FailureKind, RetryPolicy
from repro.service.store import DurableStore

IN_FLIGHT = ("dispatched", "running")

#: What an orphan sweep may not touch on a job it re-queues.
SURVIVES_REQUEUE = (
    "job_id", "tenant", "spec", "gpus", "pool", "priority", "attempts",
    "dispatches", "submitted_at", "order", "result", "max_runtime_s",
)

OUTCOMES = {
    "ok": JobOutcome.success({"done": True}),
    "transient": JobOutcome.failure(FailureKind.TRANSIENT, "hiccup"),
    "fatal": JobOutcome.failure(FailureKind.FATAL, "bad job"),
}


#: What the daemon's own plane does with the jobs it runs itself.
INLINE_SCRIPT = {
    f"job-{index:05d}": (
        [OUTCOMES["fatal"]] if index % 5 == 0
        else [OUTCOMES["transient"], OUTCOMES["ok"]]
    )
    for index in range(1, 200)
    if index % 5 == 0 or index % 3 == 0
}


def check_index(plane: ControlPlane) -> None:
    table = sorted(plane.jobs.values(), key=lambda job: job.order)
    live = [job.job_id for job in table if not job.is_terminal]
    assert list(plane._live) == live
    assert plane.active_jobs == len(live)
    recount = Counter(job.state.value for job in table)
    assert plane.stats()["jobs"] == dict(recount)


class ControlPlaneMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="plane-machine-"))
        self.clock = FakeClock()
        self.plane = self.boot(self.root / "store")
        # Two leases from the start: ticks leave work to the fleet until
        # the clock (or a restart) takes the leases away.
        self.workers: list[str] = []
        self.enlist()
        self.enlist()
        self.claimed: list = []  # tokens granted, not yet redeemed
        self.started: list = []  # tokens redeemed, not yet reported
        self.steps_this_epoch = 0

    def boot(self, store_dir: Path) -> ControlPlane:
        return ControlPlane(
            DurableStore(store_dir, compact_every=8),
            executor=ScriptedExecutor(script=INLINE_SCRIPT),
            admission=AdmissionController(
                default=TenantPolicy(max_queued_jobs=5, max_concurrent_gpus=4)
            ),
            retry=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            clock=self.clock,
            worker_ttl=3.0,
            dispatch_timeout=2.0,
        )

    def enlist(self) -> None:
        grant = self.plane.register_worker(capacity=2)
        self.workers.append(grant["worker_id"])

    def teardown(self) -> None:
        self.plane.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- client side ---------------------------------------------------
    @rule(
        tenant=st.sampled_from(["a", "b"]),
        count=st.integers(1, 3),
        gpus=st.integers(1, 3),
        priority=st.integers(0, 2),
        deadline=st.sampled_from([None, 2.0]),
    )
    def submit(self, tenant, count, gpus, priority, deadline):
        for _ in range(count):
            before = len(self.plane.jobs)
            try:
                self.plane.submit(
                    {"kind": "noop"}, tenant=tenant, gpus=gpus,
                    priority=priority, max_runtime_s=deadline,
                )
            except AdmissionError:
                assert len(self.plane.jobs) == before

    @precondition(lambda self: self.plane.jobs)
    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        job_ids = list(self.plane.jobs)
        self.plane.cancel(job_ids[pick % len(job_ids)])

    # -- the daemon ----------------------------------------------------
    @rule(
        pause=st.sampled_from(
            [(0.0, False), (1.0, True), (2.5, True), (6.0, True), (6.0, False)]
        )
    )
    def tick(self, pause):
        """A tick, after a pause: 2.5 s outlives a deadline and an
        unredeemed claim, 6 s a lease.  ``renew`` has the fleet heartbeat
        first, so jobs time out under workers that are still there."""
        seconds, renew = pause
        self.clock.advance(seconds)
        if renew:
            for worker_id in list(self.workers):
                try:
                    self.plane.worker_heartbeat(worker_id)
                except UnknownWorkerError:
                    self.workers.remove(worker_id)  # reaped earlier
        self.plane.tick()

    @precondition(lambda self: self.steps_this_epoch >= 6)
    @rule()
    def close_and_recover(self):
        self.plane.close()
        self.plane = self.boot(self.root / "store")
        self.workers = []  # the old tokens stay: they must now bounce
        self.steps_this_epoch = 0

    # -- the fleet -----------------------------------------------------
    @rule(
        pick=st.integers(0, 10**6),
        max_jobs=st.integers(1, 3),
        then=st.sampled_from(["hold", "start", "finish"]),
        outcome=st.sampled_from(sorted(OUTCOMES)),
    )
    def worker_turn(self, pick, max_jobs, then, outcome):
        """One worker pulls work and holds the claims, starts them, or
        runs them to a report; a worker the daemon no longer knows (or an
        empty fleet) registers afresh, as ``repro worker`` does."""
        if not self.workers:
            self.enlist()
            return
        worker_id = self.workers[pick % len(self.workers)]
        try:
            grants = self.plane.claim(worker_id, max_jobs=max_jobs)
        except UnknownWorkerError:
            self.workers.remove(worker_id)  # reaped: its lease ran out
            self.enlist()
            return
        tokens = [token for _job, token in grants]
        if then == "hold":
            self.claimed.extend(tokens)
            return
        for token in tokens:
            self.plane.start(token)
            if then == "finish":
                assert self.plane.report(token, OUTCOMES[outcome])["accepted"]
        if then == "start":
            self.started.extend(tokens)

    @precondition(lambda self: self.claimed)
    @rule(pick=st.integers(0, 10**6))
    def start(self, pick):
        token = self.claimed.pop(pick % len(self.claimed))
        try:
            self.plane.start(token)
        except TokenError:
            return  # fenced: re-queued, cancelled or from a dead epoch
        self.started.append(token)

    @precondition(lambda self: self.started)
    @rule(pick=st.integers(0, 10**6), outcome=st.sampled_from(sorted(OUTCOMES)))
    def report(self, pick, outcome):
        token = self.started.pop(pick % len(self.started))
        self.plane.report(token, OUTCOMES[outcome])

    # -- what must hold after every step -------------------------------
    @invariant()
    def index_is_the_live_jobs_in_order(self):
        self.steps_this_epoch += 1
        check_index(self.plane)

    @invariant()
    def disk_recovers_to_the_same_jobs(self):
        copy = self.root / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.root / "store", copy)
        shadow = self.boot(copy)
        try:
            check_index(shadow)
            recovered = shadow.job_list()
        finally:
            shadow.close()
        live = self.plane.job_list()
        assert len(recovered) == len(live)
        for ours, theirs in zip(live, recovered):
            if ours["state"] in IN_FLIGHT:
                assert theirs["state"] == "retrying" and theirs["token"] is None
                ours = {key: ours[key] for key in SURVIVES_REQUEUE}
                theirs = {key: theirs[key] for key in SURVIVES_REQUEUE}
            assert theirs == ours


ControlPlaneMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=25,
    derandomize=True,
    deadline=None,
    database=None,
)
TestControlPlaneMachine = ControlPlaneMachine.TestCase
