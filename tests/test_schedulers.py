"""Unit tests for the baseline scheduler policies."""

import pytest

from repro.cluster.topology import ordered_sum
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.schedulers.slaq import _BundleUtility
from repro.schedulers.tiresias import take_scattered
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import group_pool, trace_app, trace_of, uniform_cluster


def two_app_trace(model="resnet50"):
    return trace_of(
        trace_app("early", 0.0, 30.0, model=model), trace_app("late", 5.0, 30.0, model=model)
    )


def small_cluster():
    return uniform_cluster(2, racks=2, name="pair")


def bound_scheduler(name, trace=None, **kwargs):
    """Scheduler bound to a live simulator mid-flight (after arrivals)."""
    sim = ClusterSimulator(
        cluster=small_cluster(),
        workload=trace or two_app_trace(),
        scheduler=make_scheduler(name, **kwargs),
        config=SimulationConfig(lease_minutes=10.0),
    )
    return sim


def test_registry_knows_all_names():
    assert set(SCHEDULER_NAMES) == {
        "themis",
        "gandiva",
        "tiresias",
        "slaq",
        "optimus",
        "strawman",
        "drf",
        "fifo",
    }
    with pytest.raises(KeyError):
        make_scheduler("nope")


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_every_scheduler_completes_the_trace(name):
    sim = bound_scheduler(name)
    result = sim.run()
    assert result.completed
    assert all(stats.finished_at is not None for stats in result.app_stats)


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_assignments_stay_within_pool(name):
    sim = bound_scheduler(name)
    # Run to completion; the simulator itself raises on any assignment
    # outside the pool or double-assignment.
    result = sim.run()
    assert result.num_rounds > 0


def test_fifo_serves_earliest_first():
    sim = bound_scheduler("fifo")
    result = sim.run()
    stats = result.stats_by_app()
    assert stats["early"].finished_at <= stats["late"].finished_at


def test_tiresias_orders_by_attained_service():
    sim = ClusterSimulator(
        cluster=small_cluster(),
        workload=two_app_trace(),
        scheduler=make_scheduler("tiresias"),
        config=SimulationConfig(lease_minutes=10.0, max_minutes=6.0),
    )
    sim.run()
    apps = sim.scheduler.active_apps()
    assert len(apps) == 2
    # "early" accumulated service since t=0; "late" has none yet.
    assert apps["early"].attained_service() > 0
    assert apps["early"].attained_service() > apps["late"].attained_service()


def test_take_scattered_round_robins():
    cluster = small_cluster()
    pool = group_pool(cluster.gpus)
    taken = take_scattered(pool, 4)
    machines = [gpu.machine_id for gpu in taken]
    # Alternating across the two machines.
    assert machines[:4] == [0, 1, 0, 1]


def test_strawman_single_winner():
    sim = bound_scheduler("strawman")
    scheduler = sim.scheduler
    sim.engine.run(until=5.0)  # both apps arrived, cluster contended
    pool = sim.leases.pool_for_auction(sim.engine.now)
    if pool:
        grants = scheduler.assign(sim.engine.now, pool)
        assert len(grants) <= 1


def test_drf_waterfills_equally():
    sim = bound_scheduler("drf")
    result = sim.run()
    # Both apps demanded 4 on an 8-GPU cluster: DRF should never let one
    # app starve while the other holds everything.
    stats = result.stats_by_app()
    assert stats["early"].gpu_time > 0
    assert stats["late"].gpu_time > 0


def test_bundle_utility_is_the_utility_of_the_effective_compute():
    """Two-speed fleet: machines 0-1 run at 1.0, machines 2-3 at 0.5."""

    def utility(held, extra):
        return (held + extra) ** 0.5

    speed_of = {0: 1.0, 1: 1.0, 2: 0.5, 3: 0.5}
    of_bundle = _BundleUtility(utility, 1.5, speed_of)
    # One fast GPU, either fast machine, or two slow ones: 1.0 each way.
    equal = [{0: 1}, {1: 1}, {2: 2}, {2: 1, 3: 1}]
    assert len({of_bundle(bundle) for bundle in equal}) == 1
    assert of_bundle({0: 1, 2: 1}) != of_bundle({0: 1})
    # Bit for bit the utility of the bundle's ordered effective compute.
    for bundle in equal + [{0: 1, 2: 1}, {0: 3, 3: 1}, {}]:
        extra = ordered_sum(count * speed_of[m] for m, count in bundle.items())
        assert of_bundle(bundle) == (1.5 + extra) ** 0.5


def test_themis_kwargs_forwarded():
    scheduler = make_scheduler("themis", fairness_knob=0.5, noise_theta=0.1)
    assert scheduler.config.fairness_knob == 0.5
    assert scheduler.config.noise_theta == 0.1


def test_gandiva_packs_sensitive_jobs():
    sim = bound_scheduler("gandiva", trace=two_app_trace(model="vgg16"))
    result = sim.run()
    # Each 4-GPU job fits one machine; Gandiva should keep placement
    # scores at machine locality or better most of the time.
    for stats in result.app_stats:
        assert stats.mean_placement_score >= 0.7
