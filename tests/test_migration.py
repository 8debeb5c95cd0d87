"""Speed-aware job migration: mechanics, accounting, and the payoff.

Three layers:

* **unit mechanics** — a direct ``_migration_pass`` invocation must swap
  the gang, keep every lease invariant (each held GPU leased to the
  holding app+job, released GPUs unleased), charge the restart
  overhead, and split ``gpu_time_by_type`` honestly across the swap;
* **failure injection** — fast GPUs going down mid-run must not break
  the accounting or move the frozen result digest;
* **the acceptance scenario** — on a rate-inversion workload (two model
  families preferring different GPU generations), migration-on must
  beat migration-off on mean JCT while the Themis max finish-time
  fairness rho does not regress.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.topology import ClusterSpec, GpuType, MachineSpec, build_cluster
from repro.schedulers.registry import make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.app import App, AppState
from repro.workload.perf import ThroughputMatrixModel

from helpers import assert_golden, audit_freshness, machine_per_type, make_job

#: Rate inversion: vgg wants v100 (4x faster than p100), gan wants p100.
INVERSION = ThroughputMatrixModel(
    {
        "vgg": {"v100": 1.0, "p100": 0.25},
        "gan": {"v100": 0.6, "p100": 1.0},
    }
)


def two_generation_cluster():
    """One 4xV100 machine (m0) + one 4xP100 machine (m1), one rack."""
    return machine_per_type(GpuType("v100", 1.0), GpuType("p100", 0.6), name="two-gen")


def scenario_apps():
    """The rate-inversion workload (see the migration scenario test).

    * ``a-block`` (vgg) occupies the v100s until ~t=40;
    * ``b-gan`` (gan) runs on its preferred p100s, finishing ~t=10;
    * ``c-mig`` (vgg) arrives at t=2 into a full cluster, lands on the
      freed p100s at ~t=10 with its demand met — after the v100s free
      up at ~t=40 only migration can move it there.
    """
    a = App("a-block", 0.0, [make_job("a-j0", model="vgg16", serial_work=144.0)])
    b = App("b-gan", 0.0, [make_job("b-j0", model="dcgan", serial_work=36.0)])
    c = App("c-mig", 2.0, [make_job("c-j0", model="vgg16", serial_work=180.0)])
    return [a, b, c]


def run_scenario(scheduler_name: str, migration: bool):
    config = SimulationConfig(lease_minutes=10.0, migration=migration)
    sim = ClusterSimulator(
        cluster=two_generation_cluster(),
        workload=scenario_apps(),
        scheduler=make_scheduler(scheduler_name),
        config=config,
        perf_model=INVERSION,
    )
    return sim.run()


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
def test_migration_is_off_by_default():
    assert SimulationConfig().migration is False
    result = run_scenario("fifo", migration=False)
    assert result.num_migrations == 0


def test_migration_min_gain_validated():
    with pytest.raises(ValueError, match="migration_min_gain"):
        SimulationConfig(migration_min_gain=0.9)


def test_config_round_trips_migration_knobs():
    config = SimulationConfig(migration=True, migration_min_gain=1.5)
    restored = SimulationConfig.from_json(json.loads(json.dumps(config.to_json())))
    assert restored == config
    # Forward compatibility: payloads written before the knobs existed.
    old = {k: v for k, v in config.to_json().items()
           if k not in ("migration", "migration_min_gain")}
    assert SimulationConfig.from_json(old).migration is False


# ----------------------------------------------------------------------
# Unit mechanics: lease invariants and gpu-time accounting
# ----------------------------------------------------------------------
def unit_sim(migration_min_gain: float = 1.25):
    cluster = two_generation_cluster()
    job = make_job("u-j0", model="vgg16", serial_work=500.0)
    app = App("u-app", 0.0, [job])
    config = SimulationConfig(
        lease_minutes=20.0, migration=True, migration_min_gain=migration_min_gain
    )
    sim = ClusterSimulator(
        cluster=cluster,
        workload=[app],
        scheduler=make_scheduler("fifo"),
        config=config,
        perf_model=INVERSION,
    )
    # Arrive the app and install the job on the (slow-for-vgg) p100s.
    app.state = AppState.RUNNING
    sim.active_apps[app.app_id] = app
    job.last_update = 0.0
    p100s = [gpu for gpu in cluster.gpus if gpu.gpu_type.name == "p100"]
    job.set_allocation(0.0, Allocation(p100s), overhead=0.0)
    sim._track_held_job(job)
    sim._refresh_leases(0.0, app, job, job.allocation)
    return sim, app, job


def assert_lease_invariants(sim, app, job):
    """Every held GPU leased to exactly this app+job; nothing dangling."""
    for gpu in job.allocation:
        lease = sim.leases.lease_of(gpu)
        assert lease is not None, f"held GPU {gpu.gpu_id} has no lease"
        assert lease.app_id == app.app_id
        assert lease.job_id == job.job_id
    held_ids = set(job.allocation.gpu_ids)
    for gpu in sim.cluster.gpus:
        lease = sim.leases.lease_of(gpu)
        if lease is not None and lease.job_id == job.job_id:
            assert gpu.gpu_id in held_ids, (
                f"GPU {gpu.gpu_id} leased to {job.job_id} but not held"
            )


def test_migration_pass_swaps_gang_mid_lease():
    sim, app, job = unit_sim()
    # Accrue 10 minutes on the p100s first (mid-lease: lease runs to 20).
    sim.engine._now = 10.0  # type: ignore[attr-defined]
    sim._advance_active_jobs(10.0)
    work_before = job.remaining_work
    sim._migration_pass(10.0)
    assert sim.num_migrations == 1
    # The whole gang moved to the v100 machine.
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"v100"}
    assert job.allocation.size == 4
    assert_lease_invariants(sim, app, job)
    # Old p100s are free again (unleased) for the next consumer.
    for gpu in sim.cluster.machines[1].gpus:
        assert sim.leases.lease_of(gpu) is None
    # The swap charged the checkpoint/restore overhead.
    assert job.overhead_remaining == pytest.approx(
        sim.config.restart_overhead_minutes
    )
    # Device time split by generation is honest: 10 minutes on 4 p100s
    # so far, no v100 minutes yet (the swap happened at t=10 sharp).
    assert job.gpu_time_by_type == pytest.approx({"p100": 40.0})
    # Progress: 10 min at rate 4 * 0.25 * 0.90 = 0.9/min.
    assert work_before == pytest.approx(500.0 - 9.0)
    # After 10 more minutes the v100 time shows up, gpu_time totals agree.
    sim.engine._now = 20.0  # type: ignore[attr-defined]
    sim._advance_active_jobs(20.0)
    assert job.gpu_time_by_type == pytest.approx({"p100": 40.0, "v100": 40.0})
    assert sum(job.gpu_time_by_type.values()) == pytest.approx(job.gpu_time)


def test_migration_declines_when_overhead_outweighs_gain():
    # A nearly finished job must not trade a checkpoint stall for a
    # faster gang it barely uses: 4x rate gain, but the job has ~0.09
    # minutes of runtime left and the restart overhead costs 0.5.
    sim, app, job = unit_sim()
    job.remaining_work = 0.08  # 0.08 / 0.9 ≈ 0.09 min at the slow rate
    sim._migration_pass(0.0)
    assert sim.num_migrations == 0
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"p100"}
    assert_lease_invariants(sim, app, job)


def test_migration_declines_insufficient_gain():
    # With the v100s occupied by... nothing, but an absurd gain bar, the
    # 4x rate jump (0.9 -> 3.6) is still below the threshold: no swap.
    sim, app, job = unit_sim(migration_min_gain=5.0)
    sim._migration_pass(0.0)
    assert sim.num_migrations == 0
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"p100"}
    assert_lease_invariants(sim, app, job)


def test_migration_ignores_down_and_leased_gpus():
    sim, app, job = unit_sim()
    # Take the fast machine down: migration must not touch its GPUs.
    sim.mark_gpus_down(sim.cluster.machines[0].gpus)
    sim._migration_pass(0.0)
    assert sim.num_migrations == 0
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"p100"}
    # Repair it, and the next pass migrates.
    sim.mark_gpus_up(sim.cluster.machines[0].gpus)
    sim._migration_pass(0.0)
    assert sim.num_migrations == 1
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"v100"}
    assert_lease_invariants(sim, app, job)


def test_fast_gpus_down_after_migration_keeps_accounting_honest():
    sim, app, job = unit_sim()
    sim._migration_pass(0.0)
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"v100"}
    sim.engine._now = 5.0  # type: ignore[attr-defined]
    sim._advance_active_jobs(5.0)
    # The fast machine fails mid-lease: the job loses its whole gang.
    sim.mark_gpus_down(sim.cluster.machines[0].gpus)
    assert job.allocation.size == 0
    assert job.gpu_time_by_type == pytest.approx({"v100": 20.0})
    assert sum(job.gpu_time_by_type.values()) == pytest.approx(job.gpu_time)
    assert_lease_invariants(sim, app, job)  # vacuously: nothing held


def held_jobs_sim(cluster, placements):
    """A migration-on simulator whose vgg16 jobs already hold GPUs.

    ``placements`` maps a job id to the GPUs it holds at t=0; each job
    runs in its own app.  Returns the simulator and the jobs by id.
    """
    jobs = {
        job_id: make_job(job_id, model="vgg16", serial_work=500.0)
        for job_id in placements
    }
    apps = {job_id: App(f"{job_id}-app", 0.0, [job]) for job_id, job in jobs.items()}
    sim = ClusterSimulator(
        cluster=cluster,
        workload=list(apps.values()),
        scheduler=make_scheduler("fifo"),
        config=SimulationConfig(lease_minutes=20.0, migration=True),
        perf_model=INVERSION,
    )
    for job_id, gpus in placements.items():
        app, job = apps[job_id], jobs[job_id]
        app.state = AppState.RUNNING
        sim.active_apps[app.app_id] = app
        job.last_update = 0.0
        job.set_allocation(0.0, Allocation(gpus), overhead=0.0)
        sim._track_held_job(job)
        sim._refresh_leases(0.0, app, job, job.allocation)
    return sim, jobs


def test_migration_prefers_smaller_faster_gang():
    # Only 2 v100s free: 2 x 1.0 x 0.9(machine) = 1.8 beats 4 p100s at
    # 0.9 — the "possibly smaller" trade of the ROADMAP follow-on.
    cluster = two_generation_cluster()
    sim, jobs = held_jobs_sim(
        cluster,
        {
            "blk-j0": list(cluster.machines[0].gpus[:2]),
            "u-j0": list(cluster.machines[1].gpus),
        },
    )
    blocker, job = jobs["blk-j0"], jobs["u-j0"]
    app = sim.active_apps["u-j0-app"]
    sim._migration_pass(0.0)
    # blk holds 2 v100 (rate 1.8) and won't move to 4 p100 (rate 0.9);
    # u-j0 trades 4 p100 (0.9) for the 2 free v100s (1.8 = 2x gain).
    assert {gpu.gpu_type.name for gpu in blocker.allocation} == {"v100"}
    assert {gpu.gpu_type.name for gpu in job.allocation} == {"v100"}
    assert job.allocation.size == 2
    assert sim.num_migrations == 1
    assert_lease_invariants(sim, app, job)


def test_migration_memo_forgets_the_gang_a_migration_took():
    # Two vgg16 jobs of one cap on p100 machines, one free v100 machine.
    # The sweep prices the free gang once for both; the lower job id
    # takes it, so the other must re-price the pool (its own kind of
    # p100s now: no gain) instead of reusing the stale v100 answer.
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=(
                MachineSpec(count=1, gpus_per_machine=4, gpu_type=GpuType("v100", 1.0)),
                MachineSpec(count=2, gpus_per_machine=4, gpu_type=GpuType("p100", 0.6)),
            ),
            num_racks=1,
            name="one-fast",
        )
    )
    sim, jobs = held_jobs_sim(
        cluster,
        {"a-j0": list(cluster.machines[1].gpus), "b-j0": list(cluster.machines[2].gpus)},
    )
    sim._migration_pass(0.0)
    assert sim.num_migrations == 1
    assert {gpu.machine_id for gpu in jobs["a-j0"].allocation} == {0}
    assert {gpu.machine_id for gpu in jobs["b-j0"].allocation} == {2}
    for job in jobs.values():
        assert_lease_invariants(sim, sim._job_owner[job.job_id], job)


def test_migration_memo_keys_on_the_runtime_cap():
    # One model, two caps: the tuner holds "lim-j0" to one GPU, which it
    # already has on the v100 machine (no gain from one more v100), while
    # "u-j0" trades its four p100s (0.9) for the three free v100s (2.7).
    # Pricing u-j0 with lim-j0's one-GPU answer (1.0 < 1.25 x 0.9) would
    # keep it on the p100s.
    cluster = two_generation_cluster()
    sim, jobs = held_jobs_sim(
        cluster,
        {
            "lim-j0": list(cluster.machines[0].gpus[:1]),
            "u-j0": list(cluster.machines[1].gpus),
        },
    )
    limited, job = jobs["lim-j0"], jobs["u-j0"]
    limited.parallelism_limit = 1
    assert limited.max_parallelism != job.max_parallelism
    sim._migration_pass(0.0)
    assert sim.num_migrations == 1
    assert [gpu.gpu_id for gpu in limited.allocation] == [cluster.machines[0].gpus[0].gpu_id]
    assert {gpu.gpu_id for gpu in job.allocation} == {
        gpu.gpu_id for gpu in cluster.machines[0].gpus[1:]
    }


# ----------------------------------------------------------------------
# The acceptance scenario: rate inversion + migration payoff
# ----------------------------------------------------------------------
def mean(values):
    return sum(values) / len(values)


@pytest.mark.parametrize("scheduler_name", ("themis", "fifo"))
def test_migration_beats_no_migration_on_rate_inversion(scheduler_name):
    off = run_scenario(scheduler_name, migration=False)
    on = run_scenario(scheduler_name, migration=True)
    assert off.completed and on.completed
    assert off.num_migrations == 0
    assert on.num_migrations >= 1
    # Migration-on strictly improves mean JCT...
    assert mean(on.completion_times()) < mean(off.completion_times())
    # ...without regressing the max finish-time-fairness rho.
    assert max(on.rhos()) <= max(off.rhos()) + 1e-9


def test_scenario_actually_inverts_rates():
    """The workload is a real inversion, not a uniformly-faster matrix."""
    v100 = GpuType("v100", 1.0)
    p100 = GpuType("p100", 0.6)
    assert INVERSION.speedup("vgg", v100) > INVERSION.speedup("vgg", p100)
    assert INVERSION.speedup("gan", p100) > INVERSION.speedup("gan", v100)


def test_migration_golden_digests():
    """The migration pass is orthogonal to the cross-round caches."""
    for migration in (False, True):
        result = run_scenario("themis", migration=migration)
        assert_golden(f"migration/{'on' if migration else 'off'}/themis", result)


def test_migration_under_failure_injection_full_run():
    """Fast GPUs marked down mid-run: completion + honest accounting."""
    sim = ClusterSimulator(
        cluster=two_generation_cluster(),
        workload=scenario_apps(),
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(lease_minutes=10.0, migration=True),
        perf_model=INVERSION,
    )
    # The v100 machine (m0) fails at t=45 — right after the
    # migration window opens — and comes back at t=75.
    FailureInjector([MachineFailure(machine_id=0, at=45.0, duration=30.0)]).install(
        sim
    )
    audited = audit_freshness(sim)
    result = sim.run()
    assert result.completed and audited
    for stats in result.app_stats:
        assert sum(stats.gpu_time_by_type.values()) == pytest.approx(
            stats.gpu_time
        )
    assert_golden("migration/on+failure/themis", result)
