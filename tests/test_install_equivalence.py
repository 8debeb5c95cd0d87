"""The simulator's delta install leaves what the full per-job pass left.

``ClusterSimulator._install_app_allocation`` visits only the jobs
``App.distribute`` reports changed plus the unchanged jobs holding a
lease of the round's renewal set, and skips ``distribute`` for an offer
it already found to be a no-op at the app's epoch.
``helpers.full_install`` re-splits every offer from scratch and walks
every active job.  Two simulators built from one scenario take the same
rounds, one through each install, and must agree on every job, every
lease, the free index, the pending events (sequence numbers included,
so same-instant ties break alike), ``_held_jobs``, the timeline and the
lease / job trace records.  The scenarios draw GPU-type affinities,
caps lowered by a tuner between rounds, leases that expire under jobs
the offer leaves unchanged, and repeated offers; the memo tests change
the app between two equal offers the way a round can.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import full_install, grouped_ids
from repro.cluster.allocation import Allocation
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.obs import Observability, RingTracer
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.app import App, AppState
from repro.workload.job import Job, JobSpec

CLUSTER = build_cluster(
    ClusterSpec(
        machine_specs=(
            MachineSpec(count=3, gpus_per_machine=4, gpu_type=GPU_TYPES["v100"]),
            MachineSpec(count=2, gpus_per_machine=2, gpu_type=GPU_TYPES["k80"]),
        ),
        num_racks=2,
        name="install-equiv",
    )
)

MODELS = ("vgg16", "resnet50", "dcgan")
LEASE = 6.0
TRACED = ("lease_grant", "job_state_change")


def build(jobs):
    """A simulator mid-run: one running app, ``jobs`` as
    ``(model, cap, affinity, held ids, lease minutes)`` leased from t=0."""
    app = App(
        "a",
        0.0,
        [
            Job(spec=JobSpec(job_id=f"j{i}", model=model, serial_work=500.0,
                             max_parallelism=cap, gpu_type=affinity))
            for i, (model, cap, affinity, _held, _lease) in enumerate(jobs)
        ],
    )
    sim = ClusterSimulator(
        CLUSTER,
        [app],
        object(),
        config=SimulationConfig(lease_minutes=LEASE, record_timeline=True),
        obs=Observability(tracer=RingTracer()),
    )
    app.state = AppState.RUNNING
    sim.active_apps[app.app_id] = app
    for job, (_m, _c, _a, held, lease) in zip(app.jobs, jobs):
        gpus = [CLUSTER.gpu(i) for i in held]
        job.set_allocation(0.0, Allocation(gpus))
        sim._track_held_job(job)
        for gpu in gpus:
            sim.leases.grant(gpu, app.app_id, job.job_id, 0.0, lease)
    return sim, app


def start_round(sim, now, limits=()):
    """The round's opening as ``_run_round`` does it: clock, advance,
    then a tuner's cap changes (which invalidate the app)."""
    sim.engine._now = now
    sim._advance_active_jobs(now)
    app = sim.active_apps["a"]
    for index, limit in limits:
        app.jobs[index].parallelism_limit = limit
        app.invalidate()


def offer(sim, now, ids):
    """The round's pool, as ``_run_round`` builds it, and its GPUs among
    ``ids``, which go to the app; the rest of its expired leases fall
    back to it, as ``_apply_assignment`` rules."""
    pool = sim.leases.pool_for_auction(now)
    if sim._down_gpu_ids:
        pool = sim._in_service(pool)
    pool_ids = {gpu.gpu_id for gpus in pool.values() for gpu in gpus}
    assigned = [CLUSTER.gpu(i) for i in sorted(pool_ids & set(ids))]
    return pool, assigned


def retained(sim, now):
    """What the app keeps of its holdings, by the rule ``_apply_assignment``
    applies (held minus its expired leases) and by the rule it replaced
    (held minus every GPU id of the round's pool)."""
    pool, _ = offer(sim, now, ())
    pool_ids = {gpu.gpu_id for gpus in pool.values() for gpu in gpus}
    expired = {lease.gpu.gpu_id for lease in sim.leases.expired_leases(now)}
    held = sim.active_apps["a"].allocation().gpu_ids
    return sorted(held - expired), sorted(held - pool_ids)


def install(sim, now, ids):
    """One round's grant through the production path."""
    pool, assigned = offer(sim, now, ids)
    renewable = sim.leases.expired_leases(now)
    sim._apply_assignment(now, pool, renewable, {"a": assigned} if assigned else {})


def install_reference(sim, now, ids):
    """The same grant through ``helpers.full_install``.  One app holds
    every lease, so its grant is what it holds plus what it won; it is
    installed when it won a GPU or holds an expired lease."""
    _pool, assigned = offer(sim, now, ids)
    if assigned or sim.leases.expired_leases(now):
        app = sim.active_apps["a"]
        full_install(sim, now, app, Allocation(list(app.allocation()) + assigned))


def state(sim):
    jobs = [
        (job.job_id, job.state, sorted(job.allocation.gpu_ids), job.overhead_remaining,
         job.remaining_work, job.gpu_time, job.last_update, job.started_at)
        for app in sim.apps
        for job in app.jobs
    ]
    leases = [
        (lease.gpu.gpu_id, lease.app_id, lease.job_id, lease.start, lease.expiry)
        for lease in map(sim.leases.lease_of, CLUSTER.gpus)
        if lease is not None
    ]
    events = sorted(
        (entry[:3], entry[3].label)
        for entry in sim.engine._heap
        if not entry[3].cancelled
    )
    traced = [event for event in sim.tracer.events if event["kind"] in TRACED]
    return {
        "jobs": jobs,
        "leases": leases,
        "free": grouped_ids(sim.leases.free_by_machine),
        "events": events,
        "held": sorted(sim._held_jobs),
        "timeline": list(sim.timeline),
        "trace": traced,
    }


@st.composite
def scenarios(draw):
    free = list(draw(st.permutations(range(CLUSTER.num_gpus))))
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        cap = draw(st.integers(min_value=1, max_value=4))
        held = [free.pop() for _ in range(draw(st.integers(0, cap)))]
        jobs.append((
            draw(st.sampled_from(MODELS)),
            cap,
            draw(st.sampled_from([None, "v100", "k80"])),
            held,
            draw(st.sampled_from([2.0, 4.0, 8.0])),
        ))
    rounds = []
    ids: list[int] = []
    for now in sorted(draw(st.lists(st.sampled_from([2.0, 4.0, 4.0, 8.0, 9.0]),
                                    min_size=1, max_size=4))):
        if not rounds or not draw(st.booleans()):  # else: the same offer again
            ids = draw(st.lists(st.integers(0, CLUSTER.num_gpus - 1), max_size=8))
        limits = []
        if draw(st.integers(0, 3)) == 0:
            index = draw(st.integers(0, len(jobs) - 1))
            limits.append((index, draw(st.integers(1, jobs[index][1]))))
        rounds.append((now, ids, limits))
    return jobs, rounds


def replay(jobs, rounds):
    fast, _ = build(jobs)
    reference, _ = build(jobs)
    for now, ids, limits in rounds:
        for sim in (fast, reference):
            start_round(sim, now, limits)
        before = set(fast.active_apps["a"].allocation().gpu_ids)
        counts = dict(fast.placement_counts)
        by_renewals, by_pool_ids = retained(fast, now)
        assert by_renewals == by_pool_ids, f"t={now}"
        _pool, assigned = offer(fast, now, ids)
        install(fast, now, ids)
        install_reference(reference, now, ids)
        assert state(fast) == state(reference), f"t={now}"
        # Granted: assigned GPUs new to the app; installed: those a job took.
        fresh = {gpu.gpu_id for gpu in assigned} - before
        taken = fresh & set(fast.active_apps["a"].allocation().gpu_ids)
        assert fast.placement_counts["gpus_granted"] - counts["gpus_granted"] == len(fresh)
        assert fast.placement_counts["gpus_installed"] - counts["gpus_installed"] == len(taken)
        declined = fast.placement_counts["installs_fully_declined"] - counts[
            "installs_fully_declined"
        ]
        assert declined == (1 if fresh and not taken else 0)
    return fast


@settings(max_examples=200, deadline=None)
@given(scenarios())
# j0's lease runs out at t=2 while the offer leaves it whole: it renews
# just that GPU; the repeated offer at t=4 hits the memo and renews j1's.
@example((
    [("resnet50", 2, None, [0, 1], 2.0), ("resnet50", 2, None, [4, 5], 4.0)],
    [(2.0, [], []), (4.0, [], [])],
))
# A tuner drops j0's cap under an expired lease: the GPU it sheds goes to
# the GPU-less k80 job only if nothing better claims it.
@example((
    [("vgg16", 4, "v100", [0, 1, 2, 3], 2.0), ("resnet50", 2, "k80", [], 2.0)],
    [(2.0, [12], []), (2.0, [12], [(0, 2)]), (4.0, [12, 13], [])],
))
def test_install_matches_full_pass(scenario):
    replay(*scenario)


def test_retained_set_matches_the_pool_rule_after_an_outage():
    """Machine 1 goes down under j1 and j0's leases expire: the app keeps
    its held GPUs minus its expired leases, which are its held GPUs
    outside the round's pool, and both installs agree on the round."""
    jobs = [("resnet50", 2, None, [0, 1], 2.0), ("vgg16", 4, None, [4, 5, 12], 8.0)]
    fast, app = build(jobs)
    reference, _ = build(jobs)
    for sim in (fast, reference):
        start_round(sim, 1.0)
        sim.mark_gpus_down(CLUSTER.gpus_on_machine(1))
        start_round(sim, 2.0)
    assert sorted(app.jobs[1].allocation.gpu_ids) == [12]
    assert retained(fast, 2.0) == ([12], [12])
    install(fast, 2.0, [0, 6, 13])
    install_reference(reference, 2.0, [0, 6, 13])
    assert state(fast) == state(reference)
    assert 6 not in app.allocation().gpu_ids


#: j0 at its cap on machine 0's first pair, j1 (vgg16, cap 4) on its
#: second: both decline the k80 GPU 12, so offering it changes nothing.
NOOP_JOBS = (("resnet50", 2, None, [0, 1], 8.0), ("vgg16", 4, None, [2, 3], 8.0))


def _noop_then(change, ids):
    """Offer GPU 12 at t=1 (a no-op install, memoised), apply ``change``
    to the app, then at t=2 offer ``ids``, which makes the grant equal
    the memoised one again; both paths must agree."""
    fast, _ = build(list(NOOP_JOBS))
    reference, _ = build(list(NOOP_JOBS))
    for sim, run in ((fast, install), (reference, install_reference)):
        start_round(sim, 1.0)
        run(sim, 1.0, [12])
    memo = fast._noop_installs["a"]
    assert memo[:2] == (fast.active_apps["a"].epoch, frozenset([0, 1, 2, 3, 12]))
    for sim, run in ((fast, install), (reference, install_reference)):
        start_round(sim, 2.0)
        change(sim)
        run(sim, 2.0, ids)
    assert state(fast) == state(reference)
    return fast.active_apps["a"].jobs


def _tune(sim, step):
    """One tuner step at t=2, as ``_run_round`` takes it."""
    app = sim.active_apps["a"]
    app.tuner = SimpleNamespace(step=lambda now: step(app))
    sim._process_tuners(2.0)
    app.tuner = None


def test_memo_misses_after_a_job_finishes():
    def finish(sim):
        job = sim.active_apps["a"].jobs[0]
        job.remaining_work = 0.0
        sim._complete_job(2.0, job)

    # j1 grows into the GPUs j0 left.
    jobs = _noop_then(finish, [0, 1, 12])
    assert sorted(jobs[1].allocation.gpu_ids) == [0, 1, 2, 3]


def test_memo_misses_after_a_tuner_kill_or_cap_drop():
    jobs = _noop_then(lambda sim: _tune(sim, lambda app: [app.jobs[0]]), [0, 1, 12])
    assert sorted(jobs[1].allocation.gpu_ids) == [0, 1, 2, 3]

    def drop(app):
        app.jobs[1].parallelism_limit = 1
        return []

    jobs = _noop_then(lambda sim: _tune(sim, drop), [12])
    assert sorted(jobs[1].allocation.gpu_ids) == [2]


def test_memo_misses_after_a_machine_failure():
    def fail_and_repair(sim):
        gpu = CLUSTER.gpu(1)
        sim.mark_gpus_down([gpu])
        sim.mark_gpus_up([gpu])

    # j0 lost GPU 1 to the outage and takes it back from the re-offer.
    jobs = _noop_then(fail_and_repair, [1, 12])
    assert sorted(jobs[0].allocation.gpu_ids) == [0, 1]


def test_memo_is_pruned_when_the_app_completes():
    fast, app = build([NOOP_JOBS[0]])
    start_round(fast, 1.0)
    install(fast, 1.0, [12])
    assert "a" in fast._noop_installs
    app.jobs[0].remaining_work = 0.0
    fast._complete_job(1.0, app.jobs[0])
    assert fast._noop_installs == {}
