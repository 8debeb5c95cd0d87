"""Edge-case and failure-injection tests for the simulator."""

import pytest

from repro.cluster.allocation import Allocation
from repro.experiments.config import tiny_scenario
from repro.obs import Observability, RingTracer
from repro.schedulers.base import InterAppScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import SimulationError
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import make_app, simulator, split, trace_app, trace_of, uniform_cluster


def pair_cluster():
    return uniform_cluster(2, racks=2, name="pair")


def pair_sim(scheduler, *apps, **config):
    """``apps`` on :func:`pair_cluster` under ``scheduler`` (a registry
    name or an instance) with ``SimulationConfig(**config)``."""
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler)
    return ClusterSimulator(pair_cluster(), trace_of(*apps), scheduler, SimulationConfig(**config))


class _RogueScheduler(InterAppScheduler):
    """Deliberately misbehaving scheduler used to test validation."""

    name = "rogue"

    def __init__(self, mode: str) -> None:
        super().__init__()
        self.mode = mode

    def assign(self, now, grouped):
        apps = list(self.active_apps())
        pool = [gpu for gpus in grouped.values() for gpu in gpus]
        if not apps or not pool:
            return {}
        if self.mode == "outside-pool":
            all_gpus = list(self.sim.cluster.gpus)
            outside = [g for g in all_gpus if g.gpu_id not in {p.gpu_id for p in pool}]
            if outside:
                return {apps[0]: [outside[0]]}
            # First round: lease part of the pool so a later round sees
            # GPUs outside its (smaller) pool and tries to steal one.
            return {apps[0]: pool[:4]}
        if self.mode == "double-assign":
            if len(apps) >= 2:
                return {apps[0]: [pool[0]], apps[1]: [pool[0]]}
            return {}
        if self.mode == "unknown-app":
            return {"ghost-app": [pool[0]]}
        raise AssertionError(f"unknown mode {self.mode}")


@pytest.mark.parametrize("mode", ["double-assign", "unknown-app"])
def test_rogue_scheduler_rejected(mode):
    sim = pair_sim(_RogueScheduler(mode), trace_app("a", 0.0, 30.0), trace_app("b", 0.0, 30.0))
    with pytest.raises(SimulationError):
        sim.run()


def test_rogue_outside_pool_rejected():
    # Outside-pool grabbing only fails once some GPUs are leased (the
    # first round offers the whole cluster), so use two rounds.
    sim = pair_sim(
        _RogueScheduler("outside-pool"),
        trace_app("a", 0.0, 60.0),
        trace_app("b", 5.0, 60.0),
        lease_minutes=100.0,
    )
    with pytest.raises(SimulationError):
        sim.run()


def test_simultaneous_arrivals_share_cluster():
    result = pair_sim(
        "themis",
        trace_app("a", 0.0, 30.0, parallelism=4),
        trace_app("b", 0.0, 30.0, parallelism=4),
        restart_overhead_minutes=0.0,
    ).run()
    assert result.completed
    stats = result.stats_by_app()
    # 8 GPUs, 2 apps wanting 4 each: both run immediately at full speed.
    for app_id in ("a", "b"):
        assert stats[app_id].completion_time == pytest.approx(30.0 / 0.98, rel=1e-6)


def test_preemption_transfers_gpus_between_apps():
    """A starved newcomer takes GPUs from the incumbent at lease expiry."""
    result = pair_sim(
        "themis",
        trace_app("incumbent", 0.0, 200.0, parallelism=4, jobs=2),  # wants all 8
        trace_app("newcomer", 5.0, 30.0, parallelism=4),
        lease_minutes=10.0,
    ).run()
    assert result.completed
    stats = result.stats_by_app()
    # The newcomer did not wait for the incumbent's 200-minute jobs.
    assert stats["newcomer"].finished_at < stats["incumbent"].finished_at
    # And the incumbent still finished (no starvation).
    assert stats["incumbent"].rho < 10.0


def test_distribute_declines_harmful_spread():
    """A VGG app refuses a cross-rack straggler GPU that would slow it."""
    cluster = pair_cluster()
    app = make_app("vgg", num_jobs=1, model="vgg16", max_parallelism=4)
    # Job holds an NVLink pair on machine 0 (rate 2.0); a lone GPU on
    # machine 1 (other rack) would drop the rate to 3 * 0.24 = 0.72.
    app.jobs[0].set_allocation(0.0, Allocation(cluster.gpus_on_machine(0)[:2]))
    granted = Allocation(
        list(cluster.gpus_on_machine(0)[:2]) + [cluster.gpus_on_machine(1)[0]]
    )
    result = split(app, granted)
    assert result[app.jobs[0].job_id].size == 2  # straggler declined


def test_distribute_accepts_helpful_spread_for_insensitive_model():
    """A ResNet app takes the same straggler: 3 * 0.92 > 2 * 1.0."""
    cluster = pair_cluster()
    app = make_app("resnet", num_jobs=1, model="resnet50", max_parallelism=4)
    app.jobs[0].set_allocation(0.0, Allocation(cluster.gpus_on_machine(0)[:2]))
    granted = Allocation(
        list(cluster.gpus_on_machine(0)[:2]) + [cluster.gpus_on_machine(1)[0]]
    )
    result = split(app, granted)
    assert result[app.jobs[0].job_id].size == 3


def test_declined_gpus_return_to_free_pool():
    """GPUs an app declines become schedulable for other apps."""
    result = pair_sim(
        "themis",
        trace_app("vgg-app", 0.0, 60.0, parallelism=4, model="vgg16", jobs=2),
        trace_app("resnet-app", 1.0, 30.0, parallelism=4, model="resnet50"),
        lease_minutes=10.0,
    ).run()
    assert result.completed


def test_zero_overhead_and_tiny_lease():
    result = pair_sim(
        "fifo", trace_app("a", 0.0, 20.0), lease_minutes=0.5, restart_overhead_minutes=0.0
    ).run()
    assert result.completed
    # Many lease renewals, all seamless.
    assert result.stats_by_app()["a"].completion_time == pytest.approx(
        20.0 / 0.98, rel=1e-6
    )


def test_app_arriving_after_everything_finished():
    result = pair_sim(
        "themis", trace_app("first", 0.0, 10.0), trace_app("straggler", 500.0, 10.0)
    ).run()
    assert result.completed
    stats = result.stats_by_app()
    # The straggler had the idle cluster to itself: rho ~= 1.
    assert stats["straggler"].rho < 1.3


def test_lowered_cap_is_applied_at_lease_renewal():
    """A renewal to the same GPUs is not seamless for a job over its cap.

    The tuner halves the job's parallelism mid-lease; at the next
    expiry the grant equals the app's holdings, but the job must shed
    down to its new cap instead of renewing all four leases.
    """

    class HalveAt:
        def __init__(self, app, at):
            self.app, self.at = app, at

        def step(self, now):
            if now >= self.at:
                self.app.jobs[0].parallelism_limit = 2
            return []

    app = make_app("a0", num_jobs=1, serial_work=400.0, max_parallelism=4)
    sim = ClusterSimulator(
        cluster=uniform_cluster(1, name="one"),
        workload=[app],
        scheduler=make_scheduler("fifo"),
        config=SimulationConfig(lease_minutes=10.0, record_timeline=True),
    )
    app.tuner = HalveAt(app, at=5.0)
    result = sim.run()
    assert result.completed
    sizes = [(time, size) for time, _app, size in result.timeline]
    assert sizes[0] == (0.0, 4)
    assert (10.0, 2) in sizes
    assert all(size <= 2 for time, size in sizes if time >= 10.0)


class _CountingScheduler(InterAppScheduler):
    """Grants nothing; records the pool of every round it is asked about."""

    name = "counting"

    def __init__(self) -> None:
        super().__init__()
        self.pools: list[list[int]] = []

    def assign(self, now, pool):
        self.pools.append([gpu.gpu_id for gpus in pool.values() for gpu in gpus])
        return {}


def test_same_instant_guard_skips_only_an_identical_pool():
    """A round that repeats the last one's instant *and* pool is skipped
    (the livelock guard); a changed pool, or a later instant, runs."""
    scheduler = _CountingScheduler()
    sim = pair_sim(scheduler, trace_app("late", 100.0, 30.0))
    sim._run_round(0.0)
    sim._run_round(0.0)
    assert sim.num_rounds == 1 and len(scheduler.pools) == 1
    sim.leases.grant(sim.cluster.gpu(0), "late", "late-j0", 0.0, 10.0)
    sim._run_round(0.0)
    assert sim.num_rounds == 2 and scheduler.pools[-1] == list(range(1, 8))
    sim._run_round(0.0)
    assert sim.num_rounds == 2
    sim._run_round(1.0)
    assert sim.num_rounds == 3 and scheduler.pools[-1] == list(range(1, 8))


class _ScrambledFifo(InterAppScheduler):
    """FIFO's grants, each app's GPUs handed back in reverse order."""

    name = "fifo"  # the same policy: results carry the name, so keep it

    def __init__(self) -> None:
        super().__init__()
        self.inner = make_scheduler("fifo")

    def on_bind(self) -> None:
        self.inner.bind(self.sim)

    def assign(self, now, pool):
        return {app: gpus[::-1] for app, gpus in self.inner.assign(now, pool).items()}


def test_grants_install_in_gpu_id_order_whatever_assign_returns():
    """The same grants returned scrambled install identically: same
    result, same trace, and each job's lease grants in gpu_id order."""
    scenario = tiny_scenario(num_apps=3, seed=9)

    def traced(scheduler):
        tracer = RingTracer(capacity=1 << 20)
        return simulator(scenario, scheduler, obs=Observability(tracer=tracer)).run(), tracer.events

    plain, plain_events = traced(make_scheduler("fifo"))
    scrambled, scrambled_events = traced(_ScrambledFifo())
    assert scrambled.digest() == plain.digest()
    assert scrambled_events == plain_events
    grants: dict = {}
    for event in plain_events:
        if event["kind"] == "lease_grant":
            grants.setdefault((event["t"], event["job"]), []).append(event["gpu"])
    assert grants and all(ids == sorted(ids) for ids in grants.values())
