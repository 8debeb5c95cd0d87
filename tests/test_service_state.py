"""Unit tests for the job state machine."""

import pytest

from repro.service.errors import StateMachineError
from repro.service.state import (
    TERMINAL_STATES,
    TRANSITIONS,
    JobRecord,
    JobState,
    can_transition,
    force_state,
    transition,
)


def test_every_state_has_a_transition_entry():
    assert set(TRANSITIONS) == set(JobState)


def test_terminal_states_absorb():
    for state in TERMINAL_STATES:
        assert TRANSITIONS[state] == frozenset()


def test_happy_path():
    job = JobRecord(job_id="j1")
    for target in (
        JobState.ADMITTED,
        JobState.DISPATCHED,
        JobState.RUNNING,
        JobState.FINISHED,
    ):
        transition(job, target, at=1.0)
    assert job.state is JobState.FINISHED
    assert job.is_terminal


def test_retry_loop_path():
    job = JobRecord(job_id="j1", state=JobState.RUNNING)
    transition(job, JobState.RETRYING, at=1.0, detail="transient failure")
    assert job.detail == "transient failure"
    transition(job, JobState.ADMITTED, at=2.0)
    transition(job, JobState.DISPATCHED, at=3.0)
    assert job.state is JobState.DISPATCHED


@pytest.mark.parametrize(
    "current,target",
    [
        (JobState.QUEUED, JobState.RUNNING),
        (JobState.QUEUED, JobState.DISPATCHED),
        (JobState.ADMITTED, JobState.RUNNING),
        (JobState.RUNNING, JobState.ADMITTED),
        (JobState.FINISHED, JobState.QUEUED),
        (JobState.FAILED, JobState.RETRYING),
        (JobState.CANCELLED, JobState.ADMITTED),
        (JobState.RETRYING, JobState.RUNNING),
    ],
)
def test_illegal_transitions_raise(current, target):
    job = JobRecord(job_id="j1", state=current)
    assert not can_transition(current, target)
    with pytest.raises(StateMachineError):
        transition(job, target, at=1.0)
    assert job.state is current  # unchanged on rejection


def test_every_non_terminal_state_can_cancel():
    for state in set(JobState) - TERMINAL_STATES:
        assert can_transition(state, JobState.CANCELLED)


def test_transition_accepts_state_strings():
    job = JobRecord(job_id="j1")
    transition(job, "admitted", at=1.0)
    assert job.state is JobState.ADMITTED


def test_force_state_skips_legality():
    job = JobRecord(job_id="j1", state=JobState.FINISHED)
    force_state(job, JobState.RUNNING, at=5.0)
    assert job.state is JobState.RUNNING
    assert job.updated_at == 5.0


def test_record_json_round_trip():
    job = JobRecord(
        job_id="j1",
        tenant="acme",
        spec={"kind": "sim", "apps": 4},
        gpus=2,
        pool="a100",
        priority=3,
        state=JobState.RETRYING,
        attempts=1,
        dispatches=2,
        not_before=12.5,
        order=7,
        token={"job_id": "j1", "epoch": 2, "seq": 9},
        detail="transient",
        result=None,
    )
    clone = JobRecord.from_json(job.to_json())
    assert clone == job
    assert clone.state is JobState.RETRYING


def test_from_json_ignores_unknown_keys():
    payload = JobRecord(job_id="j1").to_json()
    payload["added_in_a_future_version"] = {"x": 1}
    assert JobRecord.from_json(payload).job_id == "j1"


def test_record_validation():
    with pytest.raises(ValueError):
        JobRecord(job_id="")
    with pytest.raises(ValueError):
        JobRecord(job_id="j1", gpus=0)


@pytest.mark.parametrize("deadline", [0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_deadline_must_be_finite_and_positive(deadline):
    with pytest.raises(ValueError):
        JobRecord(job_id="j1", max_runtime_s=deadline)


@pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
def test_a_logged_non_finite_deadline_recovers_as_none(deadline):
    """Older logs may hold one; it never fired, so it reads back as no
    deadline rather than failing recovery."""
    payload = JobRecord(job_id="j1").to_json()
    payload["max_runtime_s"] = deadline
    assert JobRecord.from_json(payload).max_runtime_s is None
