"""Integration tests for the cluster simulator."""

import pytest

from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.hyperparam.hyperband import HyperBand
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.app import CompletionSemantics
from repro.workload.generator import GeneratorConfig, generate_trace
from repro.workload.trace import Trace, TraceApp, TraceJob

from helpers import trace_app, trace_of


def mini_cluster(machines=2, gpus=4):
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=machines, gpus_per_machine=gpus),),
            num_racks=min(2, machines),
            name="mini",
        )
    )


def single_job_trace(minutes=40.0, parallelism=4, arrival=0.0):
    return trace_of(trace_app("solo", arrival, minutes, parallelism))


def mini_sim(workload, scheduler="fifo", machines=2, **config):
    """``workload`` on :func:`mini_cluster` with ``SimulationConfig(**config)``."""
    return ClusterSimulator(
        mini_cluster(machines), workload, make_scheduler(scheduler), SimulationConfig(**config)
    )


def test_single_app_runs_at_full_speed():
    """Uncontended app with zero overhead finishes in its ideal time."""
    result = mini_sim(
        single_job_trace(minutes=40.0), lease_minutes=20.0, restart_overhead_minutes=0.0
    ).run()
    stats = result.stats_by_app()["solo"]
    # 4 GPUs on one machine: the NVLink-pair split costs nothing for
    # resnet50's near-1.0 machine slowdown (0.98): 40 / 0.98.
    assert stats.completion_time == pytest.approx(40.0 / 0.98, rel=1e-6)
    assert result.completed


def test_restart_overhead_delays_completion():
    fast = mini_sim(single_job_trace(), restart_overhead_minutes=0.0).run()
    slow = mini_sim(single_job_trace(), restart_overhead_minutes=2.0).run()
    assert slow.stats_by_app()["solo"].completion_time == pytest.approx(
        fast.stats_by_app()["solo"].completion_time + 2.0, rel=1e-6
    )


def test_lease_renewal_without_churn_is_seamless():
    """An uncontended app renewing its own leases pays no extra overhead."""
    result = mini_sim(
        single_job_trace(minutes=100.0), lease_minutes=10.0, restart_overhead_minutes=1.0
    ).run()
    stats = result.stats_by_app()["solo"]
    # One initial placement penalty only, despite ~10 lease renewals.
    assert stats.completion_time == pytest.approx(100.0 / 0.98 + 1.0, rel=1e-6)


def test_gpu_time_accounts_overhead_and_slowdown():
    result = mini_sim(single_job_trace(minutes=40.0), restart_overhead_minutes=0.0).run()
    stats = result.stats_by_app()["solo"]
    # GPU time = 4 GPUs x wallclock = serial / slowdown.
    assert stats.gpu_time == pytest.approx(160.0 / 0.98, rel=1e-6)


def test_max_minutes_stops_early():
    result = mini_sim(single_job_trace(minutes=500.0), max_minutes=50.0).run()
    assert not result.completed
    assert result.makespan <= 50.0 + 1e-9


def test_timeline_recording():
    result = mini_sim(single_job_trace(), record_timeline=True).run()
    assert result.timeline
    assert result.timeline[0][1] == "solo"
    assert result.timeline[-1][2] == 0  # returns to zero on completion


def test_empty_workload_rejected():
    with pytest.raises(ValueError):
        mini_sim([])


def test_contention_sampled():
    trace = generate_trace(
        GeneratorConfig(num_apps=3, seed=1, duration_scale=0.1, jobs_per_app_median=3.0)
    )
    result = mini_sim(trace).run()
    assert result.peak_contention > 0
    assert result.contention_samples


def test_first_winner_semantics_kills_losers():
    trace = Trace(
        apps=(
            TraceApp(
                "race",
                0.0,
                (
                    TraceJob(job_id="fast", model="resnet50", duration_minutes=10.0, max_parallelism=4),
                    TraceJob(job_id="slow", model="resnet50", duration_minutes=500.0, max_parallelism=4),
                ),
            ),
        )
    )
    result = mini_sim(
        trace, semantics=CompletionSemantics.FIRST_WINNER, restart_overhead_minutes=0.0
    ).run()
    assert result.completed
    app = result.apps[0]
    states = {job.job_id: job.state.value for job in app.jobs}
    assert states["fast"] == "finished"
    assert states["slow"] == "killed"


def test_hyperband_tuner_prunes_jobs():
    trace = Trace(
        apps=(
            TraceApp(
                "tune",
                0.0,
                tuple(
                    TraceJob(
                        job_id=f"tune-j{i}",
                        model="resnet50",
                        duration_minutes=60.0,
                        max_parallelism=2,
                        loss_alpha=0.3 + 0.3 * i,
                    )
                    for i in range(4)
                ),
            ),
        )
    )
    sim = mini_sim(trace, semantics=CompletionSemantics.FIRST_WINNER, lease_minutes=5.0)
    app = sim.apps[0]
    app.tuner = HyperBand(app, min_iterations=100.0)
    result = sim.run()
    assert result.completed
    killed = [job for job in app.jobs if job.state.value == "killed"]
    assert killed  # HyperBand pruned someone before the winner finished


def test_all_schedulers_conserve_work_on_generated_trace():
    trace = generate_trace(
        GeneratorConfig(num_apps=4, seed=2, duration_scale=0.1, jobs_per_app_median=4.0)
    )
    for name in ("themis", "tiresias", "fifo"):
        result = mini_sim(trace, name, machines=3, lease_minutes=10.0).run()
        assert result.completed, name
        # Every app's work got done: gpu_time >= serial work (S <= 1,
        # overhead >= 0 only inflate it).
        for stats in result.app_stats:
            assert stats.gpu_time >= stats.total_work - 1e-6, (name, stats.app_id)
