"""Tests for machine-failure injection (the Section 6 extension)."""

import math

import pytest

from repro.schedulers.registry import make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import trace_app, trace_of, uniform_cluster


def pair_cluster():
    return uniform_cluster(2, racks=2, name="pair")


def solo_trace(minutes=60.0):
    return trace_of(trace_app("solo", 0.0, minutes))


def build_sim(trace, failures, **config_kwargs):
    sim = ClusterSimulator(
        cluster=pair_cluster(),
        workload=trace,
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(**config_kwargs),
    )
    injector = FailureInjector(failures)
    injector.install(sim)
    return sim, injector


def test_failure_validation():
    with pytest.raises(ValueError):
        MachineFailure(machine_id=0, at=-1.0)
    with pytest.raises(ValueError):
        MachineFailure(machine_id=0, at=0.0, duration=0.0)


def test_unknown_machine_rejected():
    sim = ClusterSimulator(
        cluster=pair_cluster(),
        workload=solo_trace(),
        scheduler=make_scheduler("themis"),
    )
    injector = FailureInjector([MachineFailure(machine_id=99, at=1.0)])
    with pytest.raises(ValueError):
        injector.install(sim)


def test_job_survives_machine_failure():
    """The app loses its machine mid-run, reschedules, and completes."""
    sim, injector = build_sim(
        solo_trace(minutes=60.0),
        [MachineFailure(machine_id=0, at=20.0)],  # permanent
        restart_overhead_minutes=1.0,
    )
    result = sim.run()
    assert result.completed
    assert injector.events_applied == 1
    stats = result.stats_by_app()["solo"]
    # It had to migrate to machine 1 and pay overhead: slower than the
    # failure-free ideal but bounded.
    assert stats.completion_time > 60.0 / 0.98
    assert stats.completion_time < 200.0


def test_permanent_failure_shrinks_capacity():
    sim, _ = build_sim(solo_trace(), [MachineFailure(machine_id=0, at=5.0)])
    result = sim.run()
    assert result.completed
    assert len(sim._down_gpu_ids) == 4


def test_repair_restores_capacity():
    sim, injector = build_sim(
        solo_trace(minutes=60.0),
        [MachineFailure(machine_id=0, at=10.0, duration=15.0)],
    )
    result = sim.run()
    assert result.completed
    assert injector.events_applied == 2
    assert len(sim._down_gpu_ids) == 0
    assert not injector.down_machines


def test_failed_gpus_not_rescheduled_while_down():
    """During the outage no lease may exist on the failed machine."""
    sim, _ = build_sim(
        solo_trace(minutes=200.0),
        [MachineFailure(machine_id=0, at=10.0, duration=500.0)],
        lease_minutes=5.0,
    )
    sim.engine.schedule(
        50.0,
        lambda engine, event: _assert_no_leases_on_machine(sim, 0),
        label="probe",
    )
    result = sim.run()
    assert result.completed


def _assert_no_leases_on_machine(sim, machine_id):
    for gpu in sim.cluster.gpus_on_machine(machine_id):
        assert sim.leases.lease_of(gpu) is None


def test_failure_displaces_and_fairness_recovers():
    """Two apps; one loses its machine; it must still finish (no starvation)."""
    trace = trace_of(
        trace_app("victim", 0.0, 50.0, model="vgg16"),
        trace_app("other", 0.0, 50.0, model="vgg16"),
    )
    sim, _ = build_sim(
        trace,
        [MachineFailure(machine_id=0, at=15.0, duration=30.0)],
        lease_minutes=10.0,
    )
    result = sim.run()
    assert result.completed
    for stats in result.app_stats:
        assert stats.rho < 8.0, stats.app_id


def test_contention_divides_by_in_service_gpus():
    """Satellite fix: outage shrinks the denominator, not just the pool."""
    trace = solo_trace(minutes=60.0)
    sim, _ = build_sim(
        trace, [MachineFailure(machine_id=0, at=10.0)], lease_minutes=10.0
    )
    result = sim.run()
    samples = list(result.contention_samples)
    before = [ratio for now, ratio in samples if now < 10.0]
    after = [ratio for now, ratio in samples if now >= 10.0 and ratio > 0.0]
    # 8 in-service GPUs before the outage, 4 after; app demand is 4.
    assert before and max(before) == pytest.approx(4 / 8)
    assert after and max(after) == pytest.approx(4 / 4)
    assert result.peak_contention == pytest.approx(1.0)


def test_contention_with_every_gpu_down_is_unbounded():
    trace = solo_trace(minutes=60.0)
    sim, _ = build_sim(
        trace,
        [MachineFailure(machine_id=0, at=10.0), MachineFailure(machine_id=1, at=10.0)],
        lease_minutes=10.0,
        max_minutes=50.0,  # nothing can finish with the cluster gone
    )
    result = sim.run()
    assert math.isinf(result.peak_contention)
