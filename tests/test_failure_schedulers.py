"""Failure injection exercised under every registered scheduler.

The original failure tests only covered the Themis scheduler's happy
path; these parametrise ``mark_gpus_down`` / ``mark_gpus_up`` across
the whole registry (each baseline has its own assign() path that must
survive a shrinking/growing cluster), and add the heterogeneity case
the mixed-fleet model introduces: losing the *fast* GPUs of a mixed
cluster mid-run, forcing every job onto old silicon and back.
"""

import pytest

from repro.cluster.topology import GpuType
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import machine_per_type, trace_app, trace_of, uniform_cluster

V100 = GpuType("v100", 1.0)
K80 = GpuType("k80", 0.35)


def homogeneous_cluster():
    return uniform_cluster(2, racks=2, name="fail-pair")


def mixed_cluster():
    """Machine 0: fast v100s; machine 1: slow k80s."""
    return machine_per_type(V100, K80, racks=2, name="fail-mixed")


def two_app_trace(minutes=40.0):
    return trace_of(trace_app("a", 0.0, minutes), trace_app("b", 0.0, minutes))


def run_with_failures(cluster, scheduler_name, failures, **config_kwargs):
    config_kwargs.setdefault("lease_minutes", 10.0)
    sim = ClusterSimulator(
        cluster=cluster,
        workload=two_app_trace(),
        scheduler=make_scheduler(scheduler_name),
        config=SimulationConfig(**config_kwargs),
    )
    injector = FailureInjector(failures)
    injector.install(sim)
    return sim, injector, sim.run()


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_transient_failure_under_every_scheduler(scheduler):
    """A machine fails and is repaired; every policy must finish the trace."""
    sim, injector, result = run_with_failures(
        homogeneous_cluster(),
        scheduler,
        [MachineFailure(machine_id=0, at=10.0, duration=20.0)],
    )
    assert result.completed, scheduler
    assert injector.events_applied == 2
    assert len(sim._down_gpu_ids) == 0
    for stats in result.app_stats:
        assert stats.finished_at is not None


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_permanent_failure_under_every_scheduler(scheduler):
    """Half the cluster is gone forever; the workload still drains."""
    sim, _, result = run_with_failures(
        homogeneous_cluster(),
        scheduler,
        [MachineFailure(machine_id=1, at=5.0)],
    )
    assert result.completed, scheduler
    assert len(sim._down_gpu_ids) == 4


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_losing_the_fast_gpus_of_a_mixed_cluster(scheduler):
    """Downing the v100 machine mid-run forces jobs onto the k80s.

    The run must still complete, the k80s must absorb work during the
    outage, and the makespan must not beat the failure-free run.
    """
    baseline_sim = ClusterSimulator(
        cluster=mixed_cluster(),
        workload=two_app_trace(),
        scheduler=make_scheduler(scheduler),
        config=SimulationConfig(lease_minutes=10.0),
    )
    baseline = baseline_sim.run()
    sim, injector, result = run_with_failures(
        mixed_cluster(),
        scheduler,
        [MachineFailure(machine_id=0, at=10.0, duration=60.0)],
    )
    assert result.completed, scheduler
    assert injector.events_applied == 2
    assert result.makespan >= baseline.makespan - 1e-9, scheduler
    assert result.gpu_time_by_type.get("k80", 0.0) > 0.0, scheduler


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_no_leases_on_downed_fast_machine(scheduler):
    """Mid-outage probe: the downed machine must hold zero leases."""
    sim = ClusterSimulator(
        cluster=mixed_cluster(),
        workload=two_app_trace(minutes=60.0),
        scheduler=make_scheduler(scheduler),
        config=SimulationConfig(lease_minutes=5.0),
    )
    injector = FailureInjector(
        [MachineFailure(machine_id=0, at=10.0, duration=100.0)]
    )
    injector.install(sim)
    probed = []

    def probe(engine, event):
        for gpu in sim.cluster.gpus_on_machine(0):
            assert sim.leases.lease_of(gpu) is None, scheduler
        probed.append(engine.now)

    sim.engine.schedule(50.0, probe, label="probe")
    result = sim.run()
    assert result.completed, scheduler
    assert probed == [50.0]
