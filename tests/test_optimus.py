"""Tests for the Optimus baseline scheduler."""

import pytest

from repro.schedulers.optimus import OptimusScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.workload.trace import Trace, TraceApp, TraceJob


def cluster():
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=2, gpus_per_machine=4),),
            num_racks=2,
        )
    )


def trace():
    def app(app_id, arrival, minutes):
        return TraceApp(
            app_id,
            arrival,
            (TraceJob(job_id=f"{app_id}-j0", model="resnet50",
                      duration_minutes=minutes, max_parallelism=4),),
        )

    return Trace(apps=(app("big", 0.0, 100.0), app("small", 0.0, 10.0)))


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


def test_completes_trace_and_is_registered():
    sim = ClusterSimulator(
        cluster=cluster(),
        workload=trace(),
        scheduler=make_scheduler("optimus"),
        config=SimulationConfig(lease_minutes=10.0),
    )
    result = sim.run()
    assert result.completed
    assert result.scheduler_name == "optimus"


def test_prefers_high_marginal_gain_job():
    """Optimus favours the app whose completion estimate drops most."""
    sim = ClusterSimulator(
        cluster=cluster(),
        workload=trace(),
        scheduler=make_scheduler("optimus"),
        config=SimulationConfig(lease_minutes=10.0),
    )
    result = sim.run()
    stats = result.stats_by_app()
    # The small job has the steepest marginal gain and finishes first.
    assert stats["small"].finished_at < stats["big"].finished_at
