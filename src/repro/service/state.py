"""The job state machine: states, legal transitions, durable records.

Jobs move through an explicit lifecycle::

    QUEUED --> ADMITTED --> DISPATCHED --> RUNNING --> FINISHED
      |           |             |   \\        |  \\
      |           |             |    \\       |   +--> FAILED
      |           |             v     v      v
      +-----------+-------> CANCELLED  RETRYING <-----+
                                          |
                                          +--> ADMITTED  (backoff elapsed)

``FINISHED`` / ``FAILED`` / ``CANCELLED`` are terminal and absorb:
no transition leaves them, so WAL replay of a completed job is
idempotent.  :func:`transition` is the single enforcement point — the
daemon, the chaos harness and the tests all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from repro.service.errors import StateMachineError


class JobState(str, Enum):
    """Lifecycle states of a control-plane job."""

    QUEUED = "queued"  # accepted by admission, waiting for capacity
    ADMITTED = "admitted"  # cleared the per-tenant gates, dispatchable
    DISPATCHED = "dispatched"  # token issued, worker not yet started
    RUNNING = "running"  # a worker redeemed the dispatch token
    FINISHED = "finished"  # terminal: completed successfully
    FAILED = "failed"  # terminal: fatal error or retries exhausted
    RETRYING = "retrying"  # waiting out a backoff before re-admission
    CANCELLED = "cancelled"  # terminal: explicit user cancellation

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: States no transition may leave.
TERMINAL_STATES = frozenset(
    {JobState.FINISHED, JobState.FAILED, JobState.CANCELLED}
)

#: The full legal-transition relation.  Anything not listed raises
#: :class:`StateMachineError` in :func:`transition`.
TRANSITIONS: Mapping[JobState, frozenset] = {
    JobState.QUEUED: frozenset({JobState.ADMITTED, JobState.CANCELLED}),
    JobState.ADMITTED: frozenset({JobState.DISPATCHED, JobState.CANCELLED}),
    JobState.DISPATCHED: frozenset(
        {JobState.RUNNING, JobState.RETRYING, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.FINISHED, JobState.FAILED, JobState.RETRYING, JobState.CANCELLED}
    ),
    JobState.RETRYING: frozenset({JobState.ADMITTED, JobState.CANCELLED}),
    JobState.FINISHED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


def can_transition(current: JobState, target: JobState) -> bool:
    """True when ``current -> target`` is a legal move."""
    return target in TRANSITIONS[current]


@dataclass
class JobRecord:
    """Everything the service durably knows about one job.

    ``attempts`` counts *reported execution failures* — a worker lost to
    a crash or a revoked dispatch lease re-dispatches without consuming
    an attempt, which is what makes crashed and uninterrupted runs
    converge to the same terminal states (the recovery invariant the
    chaos suite proves).  ``dispatches`` counts tokens issued, so
    at-least-once execution stays observable.

    ``worker`` is the id of the worker currently holding the dispatch
    (None for the daemon's own in-process execution), ``started_at`` is
    when the token was redeemed, and ``max_runtime_s`` — when set —
    bounds how long one execution may stay RUNNING before the daemon
    fails it transiently and fences the hung worker's token.
    """

    job_id: str
    tenant: str = "default"
    spec: dict = field(default_factory=dict)
    gpus: int = 1
    pool: str = "default"
    priority: int = 0
    state: JobState = JobState.QUEUED
    attempts: int = 0
    dispatches: int = 0
    submitted_at: float = 0.0
    updated_at: float = 0.0
    not_before: float = 0.0
    order: int = 0
    token: Optional[dict] = None
    detail: str = ""
    result: Optional[dict] = None
    worker: Optional[str] = None
    started_at: float = 0.0
    max_runtime_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job needs a non-empty job_id")
        if self.gpus < 1:
            raise ValueError(f"job gpus must be >= 1, got {self.gpus}")
        if self.max_runtime_s is not None and not (
            0 < self.max_runtime_s < math.inf
        ):
            # NaN and inf would reach the WAL as bare ``NaN``/``Infinity``
            # (not JSON), and a NaN deadline never fires.
            raise ValueError(
                f"max_runtime_s must be finite and > 0, got {self.max_runtime_s}"
            )
        if isinstance(self.state, str) and not isinstance(self.state, JobState):
            self.state = JobState(self.state)

    @property
    def is_terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in TERMINAL_STATES

    def to_json(self) -> dict:
        """JSON-safe snapshot of this record (snapshot / archive / API)."""
        payload = self.__dict__.copy()
        payload["state"] = self.state.value
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "JobRecord":
        """Rebuild a record, ignoring unknown keys (forward compatible)."""
        known = cls.__dataclass_fields__
        kwargs = {key: value for key, value in payload.items() if key in known}
        deadline = kwargs.get("max_runtime_s")
        if isinstance(deadline, float) and not deadline < math.inf:
            # NaN or +inf, logged before non-finite deadlines were
            # rejected: it never fired, which is what no deadline means.
            kwargs["max_runtime_s"] = None
        return cls(**kwargs)


def transition(
    record: JobRecord,
    target: JobState,
    at: float,
    detail: str = "",
) -> JobRecord:
    """Apply a checked state transition in place.

    Raises :class:`StateMachineError` on an illegal move; updates
    ``state`` / ``updated_at`` / ``detail`` on a legal one.
    """
    target = JobState(target)
    if not can_transition(record.state, target):
        raise StateMachineError(
            f"job {record.job_id!r}: illegal transition "
            f"{record.state.value} -> {target.value}"
            + (f" ({detail})" if detail else "")
        )
    record.state = target
    record.updated_at = at
    if detail:
        record.detail = detail
    return record


def force_state(record: JobRecord, target: JobState, at: float) -> JobRecord:
    """Set a state without the legality check (WAL replay only).

    Replay applies transitions that were validated when first written;
    re-validating would make replay order-sensitive to compaction.
    """
    record.state = JobState(target)
    record.updated_at = at
    return record
