"""Tests for the Optimus baseline scheduler."""

import pytest

from repro.schedulers.optimus import OptimusScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import trace_app, trace_of, uniform_cluster


def cluster():
    return uniform_cluster(2, racks=2)


def trace():
    return trace_of(trace_app("big", 0.0, 100.0), trace_app("small", 0.0, 10.0))


def test_estimated_completion_splits_gpus():
    snapshot = [(40.0, 4), (80.0, 4)]
    # 8 GPUs: both jobs at cap -> 10 + 20.
    assert OptimusScheduler._estimated_completion(snapshot, 8) == pytest.approx(30.0)
    # 4 GPUs: first job at cap, second unserved -> 10 + 2*80 (queue proxy).
    assert OptimusScheduler._estimated_completion(snapshot, 4) == pytest.approx(170.0)
    # 0 GPUs: everything at the queue-penalised serial time.
    assert OptimusScheduler._estimated_completion(snapshot, 0) == pytest.approx(240.0)


def test_marginal_reduction_diminishes():
    reduction = OptimusScheduler._time_reduction([(40.0, 4)])
    first = reduction(0, 1)
    second = reduction(1, 1)
    assert first > second > 0
    # The held estimate is kept per held value.
    assert reduction(0, 1) == first == 40.0


def run_optimus():
    return ClusterSimulator(
        cluster(), trace(), make_scheduler("optimus"), SimulationConfig(lease_minutes=10.0)
    ).run()


def test_completes_trace_and_is_registered():
    result = run_optimus()
    assert result.completed
    assert result.scheduler_name == "optimus"


def test_prefers_high_marginal_gain_job():
    """Optimus favours the app whose completion estimate drops most."""
    stats = run_optimus().stats_by_app()
    # The small job has the steepest marginal gain and finishes first.
    assert stats["small"].finished_at < stats["big"].finished_at
