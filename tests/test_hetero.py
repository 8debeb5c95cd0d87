"""Unit tests for the heterogeneity model: GpuType, capacity, carves,
speed-aware fills, affinity, and the per-type metrics."""

import math

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.topology import (
    DEFAULT_GPU_MIX,
    DEFAULT_GPU_TYPE,
    ClusterCapacity,
    ClusterSpec,
    Gpu,
    GpuType,
    Machine,
    MachineSpec,
    build_cluster,
    mixed_sim_cluster,
    resolve_gpu_type,
    split_by_mix,
)
from repro.core.assignment import take_packed
from repro.core.fairness import carve_allotments
from repro.experiments.config import hetero_scenario
from repro.metrics.hetero import is_heterogeneous, per_type_rows
from repro.workload.generator import GeneratorConfig, generate_trace
from repro.workload.models import effective_gpus, get_model, throughput
from repro.workload.trace import Trace, TraceApp, TraceJob

from helpers import machine_per_type, make_app, make_job, split, trace_app, trace_of

V100 = GpuType("v100", 1.0)
K80 = GpuType("k80", 0.35)


def two_speed_cluster():
    """Machine 0: 4x v100; machine 1: 4x k80 (one rack each)."""
    return machine_per_type(V100, K80, racks=2, name="two-speed")


# ----------------------------------------------------------------------
# Types and topology
# ----------------------------------------------------------------------
def test_gpu_type_validation():
    with pytest.raises(ValueError):
        GpuType("", 1.0)
    with pytest.raises(ValueError):
        GpuType("x", 0.0)
    assert resolve_gpu_type("V100").speed == 1.0
    assert resolve_gpu_type(K80) is K80
    with pytest.raises(KeyError):
        resolve_gpu_type("a100-from-the-future")


def test_default_gpu_is_speed_one():
    gpu = Gpu(0, 0, 0, 0)
    assert gpu.gpu_type is DEFAULT_GPU_TYPE
    assert gpu.speed == 1.0


def test_machines_must_be_internally_homogeneous():
    mixed = [
        Gpu(0, 0, 0, 0, gpu_type=V100),
        Gpu(1, 0, 0, 0, gpu_type=K80),
    ]
    with pytest.raises(ValueError, match="homogeneous"):
        Machine(machine_id=0, rack_id=0, gpus=mixed)


def test_split_by_mix_preserves_totals():
    for count in (0, 1, 7, 32, 40):
        split = split_by_mix(count, DEFAULT_GPU_MIX)
        assert sum(n for _, n in split) == count
    names = [t.name for t, _ in split_by_mix(4, DEFAULT_GPU_MIX)]
    assert names == ["v100", "p100", "k80"]


def test_split_by_mix_validates():
    with pytest.raises(ValueError):
        split_by_mix(4, ())
    with pytest.raises(ValueError):
        split_by_mix(4, (("v100", 0.0),))


def test_mixed_sim_cluster_matches_paper_shape():
    cluster = mixed_sim_cluster()
    assert cluster.num_gpus == 256  # 40x4 + 32x2 + 32x1
    by_type = cluster.gpus_by_type()
    assert set(by_type) == {"v100", "p100", "k80"}
    assert sum(by_type.values()) == 256
    # Every machine is internally homogeneous by construction.
    for machine in cluster.machines:
        assert len({g.gpu_type for g in machine.gpus}) == 1
    assert cluster.capacity.total < cluster.num_gpus  # slower generations present


def test_cluster_capacity_prefix_sums():
    cap = ClusterCapacity([1.0, 0.35, 0.6])
    assert cap.num_gpus == 3
    assert cap.fastest(0) == 0.0
    assert cap.fastest(1) == 1.0
    assert cap.fastest(2) == pytest.approx(1.6)
    assert cap.fastest(99) == cap.total == pytest.approx(1.95)
    uniform = ClusterCapacity.uniform(5)
    assert uniform.fastest(3) == 3.0
    with pytest.raises(ValueError):
        ClusterCapacity.uniform(0)


# ----------------------------------------------------------------------
# Progress model
# ----------------------------------------------------------------------
def test_effective_gpus_caps_drop_slowest():
    cluster = two_speed_cluster()
    fast = list(cluster.gpus_on_machine(0))
    slow = list(cluster.gpus_on_machine(1))
    assert effective_gpus(fast) == 4.0
    assert effective_gpus(slow) == pytest.approx(4 * 0.35)
    # Cap 2 over a mixed set keeps the two fast GPUs.
    assert effective_gpus(fast[:2] + slow[:2], cap=2) == pytest.approx(2.0)


def test_throughput_scales_with_speed():
    cluster = two_speed_cluster()
    profile = get_model("resnet50")
    fast = throughput(profile, cluster.gpus_on_machine(0))
    slow = throughput(profile, cluster.gpus_on_machine(1))
    assert slow == pytest.approx(fast * 0.35)


def test_job_rate_uses_effective_compute():
    # 4 GPUs of one machine span two NVLink slots: machine-level
    # slowdown (0.98 for resnet50) applies on top of the speed factor.
    machine_s = get_model("resnet50").sensitivity.machine
    cluster = two_speed_cluster()
    job = make_job(model="resnet50", max_parallelism=4)
    job.set_allocation(0.0, Allocation(cluster.gpus_on_machine(1)))
    assert job.rate() == pytest.approx(4 * 0.35 * machine_s)
    job2 = make_job(job_id="j2", model="resnet50", max_parallelism=4)
    job2.set_allocation(0.0, Allocation(cluster.gpus_on_machine(0)))
    assert job2.rate() == pytest.approx(4.0 * machine_s)


def test_attained_service_is_speed_weighted():
    cluster = two_speed_cluster()
    job = make_job(model="resnet50", max_parallelism=4)
    job.set_allocation(0.0, Allocation(cluster.gpus_on_machine(1)))
    job.advance_to(10.0)
    assert job.gpu_time == pytest.approx(40.0)  # device minutes
    assert job.attained_service == pytest.approx(40.0 * 0.35)  # effective
    assert job.gpu_time_by_type == {"k80": pytest.approx(40.0)}


def test_ideal_running_time_on_fastest_n():
    cluster = two_speed_cluster()
    app = make_app(num_jobs=1, serial_work=100.0, max_parallelism=4)
    # Fastest 4 GPUs are the v100s: ideal rate 4.0, not 4 * avg speed.
    assert app.ideal_running_time(cluster.capacity) == pytest.approx(
        max(100.0 / 4.0, 100.0 / cluster.capacity.total)
    )
    # Legacy int capacity still accepted.
    assert app.ideal_running_time(4) == pytest.approx(25.0)


# ----------------------------------------------------------------------
# Carves and fills
# ----------------------------------------------------------------------
def test_carve_prefers_effective_compute():
    cluster = two_speed_cluster()
    rack_of = {m.machine_id: m.rack_id for m in cluster.machines}
    speed_of = cluster.machine_speeds()
    job = make_job(model="resnet50", max_parallelism=4)
    allotments = carve_allotments(
        [job], {0: 4, 1: 4}, rack_of, speed_of=speed_of
    )
    assert len(allotments) == 1
    # The fast machine wins even though both offer 4 free GPUs.
    machine_s = get_model("resnet50").sensitivity.machine
    assert allotments[0].gpus == 4
    assert allotments[0].effective == pytest.approx(4.0)
    assert allotments[0].rate == pytest.approx(4.0 * machine_s)


def test_carve_effective_reflects_slow_gpus():
    cluster = two_speed_cluster()
    rack_of = {m.machine_id: m.rack_id for m in cluster.machines}
    speed_of = cluster.machine_speeds()
    job = make_job(model="resnet50", max_parallelism=4)
    allotments = carve_allotments([job], {1: 4}, rack_of, speed_of=speed_of)
    assert allotments[0].gpus == 4
    assert allotments[0].effective == pytest.approx(4 * 0.35)


def test_take_packed_prefers_faster_machines():
    cluster = two_speed_cluster()
    pool = {
        0: list(cluster.gpus_on_machine(0)),
        1: list(cluster.gpus_on_machine(1)),
    }
    taken = take_packed(pool, 4, speed_of=cluster.machine_speeds())
    assert all(gpu.machine_id == 0 for gpu in taken)
    # Without speeds the tie breaks to the lower machine id anyway, but
    # with a bigger slow machine the speed weighting must dominate.
    big_slow = build_cluster(
        ClusterSpec(
            machine_specs=(
                MachineSpec(count=1, gpus_per_machine=2, gpu_type=V100),
                MachineSpec(count=1, gpus_per_machine=4, gpu_type=K80),
            ),
            num_racks=1,
            name="big-slow",
        )
    )
    pool = {
        0: list(big_slow.gpus_on_machine(0)),
        1: list(big_slow.gpus_on_machine(1)),
    }
    taken = take_packed(pool, 2, speed_of=big_slow.machine_speeds())
    assert all(gpu.machine_id == 0 for gpu in taken)  # 2x1.0 > 4x0.35


def test_distribute_honours_gpu_type_affinity():
    cluster = two_speed_cluster()
    trace_jobs = (
        TraceJob(job_id="slowpref", model="resnet50", duration_minutes=10.0,
                 max_parallelism=4, gpu_type="k80"),
        TraceJob(job_id="any", model="resnet50", duration_minutes=10.0,
                 max_parallelism=4),
    )
    app = TraceApp("aff", 0.0, trace_jobs).to_app()
    granted = Allocation(cluster.gpus)
    jobs = split(app, granted)
    slow_types = {g.gpu_type.name for g in jobs["slowpref"]}
    assert slow_types == {"k80"}
    assert {g.gpu_type.name for g in jobs["any"]} == {"v100"}


# ----------------------------------------------------------------------
# Per-type metrics and scenario plumbing
# ----------------------------------------------------------------------
def test_per_type_rows_sum_to_totals():
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.simulator import ClusterSimulator, SimulationConfig

    trace = trace_of(trace_app("solo", 0.0, 20.0))
    sim = ClusterSimulator(
        cluster=two_speed_cluster(),
        workload=trace,
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(lease_minutes=10.0),
    )
    result = sim.run()
    assert is_heterogeneous(result)
    rows = per_type_rows(result)
    assert [row["gpu_type"] for row in rows] == ["k80", "v100"]
    assert sum(row["gpu_time"] for row in rows) == pytest.approx(
        result.total_gpu_time
    )
    assert sum(row["gpu_time_share"] for row in rows) == pytest.approx(1.0)
    for row in rows:
        if row["gpu_time"] > 0:
            assert math.isfinite(row["weighted_rho"])


def test_generator_affinity_knob_and_default_stability():
    base = GeneratorConfig(num_apps=6, seed=3)
    assert generate_trace(base) == generate_trace(base)
    with pytest.raises(ValueError):
        GeneratorConfig(num_apps=2, gpu_type_affinity_fraction=0.5)
    pinned = base.replace(
        gpu_type_affinities=("v100", "k80"), gpu_type_affinity_fraction=1.0
    )
    trace = generate_trace(pinned)
    affinities = {job.gpu_type for app in trace.apps for job in app.jobs}
    assert affinities <= {"v100", "k80"}
    assert affinities  # at fraction 1.0 every app is pinned
    # Jobs within an app share the affinity (apps share model structure).
    for app in trace.apps:
        assert len({job.gpu_type for job in app.jobs}) == 1
    # Enabling the (separately streamed) affinity draw must not perturb
    # the rest of the workload.
    plain = generate_trace(base)
    assert [a.arrival_minutes for a in trace.apps] == [
        a.arrival_minutes for a in plain.apps
    ]
    assert [j.duration_minutes for a in trace.apps for j in a.jobs] == [
        j.duration_minutes for a in plain.apps for j in a.jobs
    ]


def test_trace_round_trips_gpu_type(tmp_path):
    pinned = GeneratorConfig(
        num_apps=3,
        seed=1,
        gpu_type_affinities=("p100",),
        gpu_type_affinity_fraction=1.0,
    )
    trace = generate_trace(pinned)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    restored = Trace.from_jsonl(path)
    assert restored.apps == trace.apps


def test_hetero_scenario_builds_mixed_cluster():
    scenario = hetero_scenario(num_apps=2, gpu_mix=(("v100", 0.5), ("k80", 0.5)))
    cluster = scenario.build_cluster()
    assert set(cluster.gpus_by_type()) == {"v100", "k80"}
    # Different mixes fingerprint differently (the sweep axis works).
    from repro.sweep import SweepTask

    a = SweepTask(scenario=scenario)
    b = SweepTask(scenario=hetero_scenario(num_apps=2, gpu_mix=(("v100", 1.0),)))
    assert a.fingerprint() != b.fingerprint()
