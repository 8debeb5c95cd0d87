"""The incremental valuation pipeline: carve oracle + cross-round caches.

Two layers of guarantees:

* the sorted-order :func:`~repro.core.fairness._carve_fast` replays the
  dict-scan :func:`~repro.core.fairness._carve_reference` byte-for-byte
  under scalar and per-family speeds, over ``helpers.carve_instances``
  (homogeneous and speed-weighted, narrow and up to 104 machines wide),
  and conserves GPUs;
* :class:`~repro.core.fairness.AppValuationState` honours its reuse
  rule — verbatim reuse while the app is clean and unallocated; the
  snapshot kept while every sorted job stays active with its cap and
  the order (or, re-sorted, the kernel signature) holds; kernel caches
  kept while the signature does — and always returns exactly what a
  freshly constructed state returns;
* the two baselines that read valuations through a state — Gandiva's
  packing kernel (:meth:`~repro.core.fairness.AppValuationState.kernel_of`
  of a ``packing`` state) and the strawman's ``current_rho`` — answer,
  round after round, bit for bit what the packing score of the
  reference carve and :meth:`~repro.core.fairness.FairnessEstimator.rho`
  answer, and a baseline holds a state only while its app is active.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.placement import LocalityLevel
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.bids import Bid
from repro.core.fairness import (
    AppValuationState,
    FairnessEstimator,
    _carve_fast,
    _carve_reference,
    _job_tuples,
    _packing_score,
    bundle_shape,
    carve_allotments,
)
from repro.experiments.config import tiny_scenario
from repro.workload.app import App, CompletionSemantics
from repro.workload.perf import (
    DEFAULT_PERF_MODEL,
    PERF_MATRIX_PRESETS,
    ThroughputMatrixModel,
)

from helpers import MODELS, carve_instances, make_app, make_job, simulator, uniform_cluster


def small_cluster(machines=3, gpus=4, racks=1):
    return uniform_cluster(machines, gpus, racks=racks, name="inc")


# ----------------------------------------------------------------------
# Carve oracle
# ----------------------------------------------------------------------
@settings(max_examples=500, deadline=None)
@given(carve_instances())
def test_carve_fast_matches_reference_on_random_instances(case):
    for setup in ("scalar", "family"):
        args = case.args(setup)
        assert _carve_fast(*args) == _carve_reference(*args)
    # Each family its own copy of the scalar map carves like one shared
    # map: re-keying on equal speeds changes nothing.
    assert _carve_fast(*case.args("degenerate")) == _carve_fast(*case.args("scalar"))
    # Conservation: one allotment per job, each within its cap, and the
    # carve hands out min(sum of caps, pool) GPUs, so adding GPUs never
    # hands out fewer.  Speeds are <= 1, so rate <= effective <= gpus.
    allotments = carve_allotments(case.jobs, *case.args("scalar")[1:])
    caps = {job.job_id: job.max_parallelism for job in case.jobs}
    assert sorted(a.job_id for a in allotments) == sorted(caps)
    assert sum(a.gpus for a in allotments) == min(
        sum(caps.values()), sum(case.counts.values())
    )
    for item in allotments:
        assert 0 <= item.gpus <= caps[item.job_id]
        assert 0.0 <= item.slowdown <= 1.0
        assert item.rate <= item.effective <= item.gpus


def test_family_change_rekeys_from_the_live_counts():
    """Three jobs alternating two families with inverted rows.  The
    first leaves machine 0 partially drained, so each family change
    rebuilds the effective-compute order from the *live* counts."""
    rows = {"vgg": {0: 1.0, 1: 0.25}, "gan": {0: 0.3, 1: 1.0}}
    profile = make_job().model_profile.sensitivity
    tuples = [
        (10.0, 3, profile, "j0", "vgg"),
        (20.0, 2, profile, "j1", "gan"),
        (30.0, 4, profile, "j2", "vgg"),
    ]
    args = (tuples, {0: 4, 1: 4}, {0: 0, 1: 0}, rows.__getitem__)
    carved, next_index = _carve_fast(*args)
    assert (carved, next_index) == _carve_reference(*args)
    assert [(gpus, effective) for _job, gpus, _level, _rate, effective in carved] == [
        (3, 3.0),  # machine 0 (4.0 vs 1.0 for vgg), one GPU left on it
        (2, 2.0),  # machine 1 (4.0 vs 0.3 for gan), two left
        (3, 1.5),  # the last of machine 0 (1.0), then machine 1 (2 x 0.25)
    ]


def test_carve_fast_matches_reference_multi_rack_spill():
    # Deterministic case exercising the racks-already-used preference.
    rack_of = {0: 0, 1: 0, 2: 1, 3: 1}
    counts = {0: 2, 1: 1, 2: 3, 3: 1}
    tuples = _job_tuples([make_job("a", max_parallelism=5), make_job("b", max_parallelism=4)])[0]
    fast = _carve_fast(tuples, counts, rack_of, lambda family: {})
    reference = _carve_reference(tuples, counts, rack_of, lambda family: {})
    assert fast == reference


def test_carve_falls_back_to_global_head_when_used_racks_drain():
    # Effective compute: m0 4.0 and m1 1.0 on rack 0; m2 3.0 and m3
    # 8 x 0.5 = 4.0 on rack 1.  Job a (cap 7) drains m0, then its rack's
    # last machine m1, then falls back to the global head m3 (4.0 beats
    # m2's 3.0, and m2 has the lower id) for its last 2 GPUs.
    # Job b (cap 3) then sees m2 and m3 tied at 3.0 and takes the lower
    # id, m2.
    rack_of = {0: 0, 1: 0, 2: 1, 3: 1}
    counts = {0: 4, 1: 1, 2: 3, 3: 8}
    speed_of = {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.5}
    profile = make_job().model_profile.sensitivity
    tuples = [(10.0, 7, profile, "a", "resnet"), (20.0, 3, profile, "b", "resnet")]
    args = (tuples, counts, rack_of, lambda family: speed_of)
    carved, next_index = _carve_fast(*args)
    assert (carved, next_index) == _carve_reference(*args)
    assert [(gpus, level, effective) for _job, gpus, level, _rate, effective in carved] == [
        (7, LocalityLevel.CLUSTER, 4.0 + 1.0 + 2 * 0.5),
        (3, LocalityLevel.MACHINE, 3.0),
    ]
    assert next_index == 2


# ----------------------------------------------------------------------
# AppValuationState
# ----------------------------------------------------------------------
def fresh_state(app: App, like: AppValuationState) -> AppValuationState:
    """A refreshed state over ``app`` with nothing to reuse, on a new
    estimator of ``like``'s cluster and semantics."""
    estimator = like.estimator
    state = AppValuationState(
        app, FairnessEstimator(estimator.cluster, estimator.semantics, estimator.perf_model)
    )
    state.refresh()
    return state


def test_state_reuses_snapshot_while_clean_and_unallocated():
    estimator = FairnessEstimator(small_cluster())
    state = AppValuationState(make_app("a0", num_jobs=2), estimator)
    first = state.refresh()
    assert estimator.rebuild_count == 1
    assert state.refresh() is first  # verbatim reuse
    assert estimator.rebuild_count == 1


def _move_own_gpus(app):
    gpus = app.jobs[0].allocation.gpus
    app.jobs[0].set_allocation(0.0, Allocation())
    app.jobs[1].set_allocation(0.0, Allocation(gpus))


def _finish(app):
    app.jobs[0].remaining_work = 0.0
    app.jobs[0].finish(0.0)


def _lower_cap(app):
    app.jobs[1].parallelism_limit = 1
    app.invalidate()  # the contract for writes behind the mutators


#: Epoch bumps, and whether the snapshot must be rebuilt after them.
BUMPS = {
    "no-op": (lambda app: app.invalidate(), False),
    "own-gpus-moved": (_move_own_gpus, False),
    "finish": (_finish, True),
    "kill": (lambda app: app.jobs[2].kill(0.0), True),
    "cap": (_lower_cap, True),
}


def test_state_rebuilds_on_an_epoch_bump_only_when_a_job_left_or_changed_cap():
    """A bump that leaves every sorted job active with its cap keeps the
    snapshot — a no-op ``invalidate()``, or an install that only moves
    the app's GPUs between its own jobs; a finish, a kill or a cap change
    rebuilds it.  Either way the probe is a fresh state's."""
    cluster = small_cluster()
    for name, (bump, rebuilds) in BUMPS.items():
        estimator = FairnessEstimator(cluster)
        app = make_app("a0", num_jobs=3)
        app.jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:2]))
        state = AppValuationState(app, estimator)
        snap = state.refresh()
        bump(app)
        assert (state.refresh() is not snap) == rebuilds, name
        assert estimator.rebuild_count == 1 + rebuilds, name
        assert state.current_rho(10.0) == fresh_state(app, state).current_rho(10.0), name


def test_state_drift_path_skips_rebuild_while_holding_gpus():
    # A held app's remaining work drains between rounds without an epoch
    # bump (advance_to never calls on_mutate).  As long as the
    # shortest-remaining-first job order is intact, the drift fast path
    # re-sums the total instead of rebuilding the snapshot.
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster)
    app = make_app("a0", num_jobs=1)
    job = app.jobs[0]
    job.set_allocation(0.0, Allocation(cluster.machines[0].gpus[:2]))
    state = AppValuationState(app, estimator)
    first = state.refresh()
    assert state.refresh() is first  # nothing drained: verbatim reuse
    assert estimator.rebuild_count == 1
    job.remaining_work -= 7.0
    drifted = state.refresh()
    assert estimator.rebuild_count == 1  # no full rebuild...
    assert drifted.total_remaining == job.remaining_work  # ...the total re-summed


@pytest.mark.parametrize(
    "ids, caps, rebuilds",
    [(("j0", "j1"), (2, 2), 1), (("j1", "j0"), (2, 2), 1), (("j1", "j0"), (2, 4), 2)],
    ids=["in-order", "out-of-order", "out-of-order-reshaped"],
)
def test_state_drift_path_reads_ids_only_to_break_work_ties(ids, caps, rebuilds):
    """Two held jobs drained to equal remaining work sort by ``(work,
    id)``.  In id order the walk keeps the snapshot as it is; out of id
    order it re-sorts the jobs, and keeps the snapshot only while the
    re-sorted caps, profiles and families read as before."""
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster)
    jobs = [
        make_job(ids[0], serial_work=100.0, max_parallelism=caps[0]),
        make_job(ids[1], serial_work=200.0, max_parallelism=caps[1]),
    ]
    app = App("a0", 0.0, jobs)
    jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:2]))
    state = AppValuationState(app, estimator)
    first = state.refresh()
    jobs[1].remaining_work = jobs[0].remaining_work = 60.0
    snap = state.refresh()
    assert estimator.rebuild_count == rebuilds
    assert (snap is first) == (rebuilds == 1)
    assert snap.total_remaining == 120.0
    assert [job[3] for job in snap.job_tuples] == ["j0", "j1"]
    bundle = ((1, 3),)
    assert state.rho_at(10.0, bundle) == fresh_state(app, state).rho_at(10.0, bundle)


def test_state_drift_path_rebuilds_when_a_work_tie_reorders_the_jobs():
    """Jobs sort by (remaining work, id): a drain that only *ties* the
    work of two jobs still puts the lower id first, and the carve gives
    that job its GPUs first — so the drift path must rebuild."""
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster)
    jobs = [
        make_job("j0", serial_work=200.0, max_parallelism=1),
        make_job("j1", serial_work=100.0, max_parallelism=4),
    ]
    app = App("a0", 0.0, jobs)
    jobs[1].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:3]))
    state = AppValuationState(app, estimator)
    state.refresh()
    jobs[0].remaining_work = jobs[1].remaining_work
    assert state.current_rho(10.0) == AppValuationState(app, estimator).current_rho(10.0)


# ----------------------------------------------------------------------
# A warm state against a cold one, step after step
# ----------------------------------------------------------------------
def shaped_world(rng: random.Random, kernel: str):
    """One app of 2-5 jobs whose caps (2 or 4), models (two families)
    and work repeat, so jobs often share a shape and tie on work; its
    first job holds two GPUs.  Half the worlds run a v100/k80 fleet
    under the rate-inversion matrix, where the family picks the speeds."""
    if rng.random() < 0.5:
        cluster, perf_model = small_cluster(machines=4, racks=2), DEFAULT_PERF_MODEL
    else:
        specs = tuple(
            MachineSpec(count=2, gpus_per_machine=4, gpu_type=GPU_TYPES[kind])
            for kind in ("v100", "k80")
        )
        cluster = build_cluster(ClusterSpec(machine_specs=specs, num_racks=2, name="shaped"))
        perf_model = ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
    semantics = (
        CompletionSemantics.FIRST_WINNER if kernel == "first-winner" else CompletionSemantics.ALL_JOBS
    )
    jobs = [
        make_job(
            f"s-j{i}",
            model=rng.choice(("resnet50", "vgg16")),
            serial_work=rng.choice((60.0, 90.0, 120.0)),
            max_parallelism=rng.choice((2, 4)),
        )
        for i in range(rng.randint(2, 5))
    ]
    jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:2]))
    return cluster, perf_model, App("s", 0.0, jobs, semantics)


def shaped_step(rng: random.Random, app: App, cluster) -> None:
    """A drain of any job (while the app holds GPUs, so that it can
    drain), a tie of two jobs' work, an install, a finish or kill, a cap
    change, or a no-op epoch bump."""
    active = app.active_jobs()
    job = rng.choice(active)
    op = rng.choice(("drain", "drain", "tie", "install", "finish", "kill", "cap", "bump"))
    if op in ("drain", "tie"):
        if app.allocation().size:
            if op == "drain":
                job.remaining_work *= rng.uniform(0.3, 1.0)
            else:
                job.remaining_work = rng.choice(active).remaining_work
    elif op == "install":
        held = [other for other in active if other.allocation.size]
        taken = {gpu.gpu_id for other in app.jobs for gpu in other.allocation.gpus}
        free = [gpu for gpu in cluster.gpus if gpu.gpu_id not in taken]
        choice = rng.random()
        if held and choice < 0.4:
            # The app's own GPUs change jobs: its per-machine counts stay.
            donor = rng.choice(held)
            gpus = donor.allocation.gpus
            donor.set_allocation(0.0, Allocation())
            job.set_allocation(0.0, job.allocation.union(gpus))
        elif free and choice < 0.8:
            job.set_allocation(0.0, Allocation(rng.sample(free, rng.randint(1, min(4, len(free))))))
        else:
            job.set_allocation(0.0, Allocation())
    elif op == "finish":
        job.remaining_work = 0.0
        job.finish(0.0)
    elif op == "kill":
        job.kill(0.0)
    elif op == "cap":
        job.parallelism_limit = rng.choice((1, 2, 4))
        app.invalidate()  # the contract for writes behind the mutators
    else:
        app.invalidate()


def state_reads(state: AppValuationState, now: float, keys) -> list[float]:
    """The holdings' rho and each key's, and under the packing kernel
    also the holdings' and each key's utility, the values Gandiva reads."""
    reads = [state.current_rho(now)] + [state.rho_at(now, key) for key in keys]
    if state.packing:
        reads += [state.kernel_of(state.base_key)] + [state.kernel_of(key) for key in keys]
    return reads


def assert_matches_a_fresh_state_everywhere(seed: int, kernel: str) -> None:
    """12 rounds of :func:`shaped_step`: after every step a warm state
    reads, on the holdings, on three keys read every round (so cached
    kernels are read again) and on a new one, what a state with nothing
    to reuse reads."""
    rng = random.Random(seed)
    cluster, perf_model, app = shaped_world(rng, kernel)

    def state():
        estimator = FairnessEstimator(cluster, semantics=app.semantics, perf_model=perf_model)
        return AppValuationState(app, estimator, packing=kernel == "packing")

    warm = state()
    machines = [machine.machine_id for machine in cluster.machines]
    keys = [random_key(rng, machines) for _ in range(3)]
    for round_index in range(12):
        if round_index:
            shaped_step(rng, app, cluster)
        if not app.active_jobs():
            break
        now = 5.0 * round_index
        probe = keys + [random_key(rng, machines)]
        assert state_reads(warm, now, probe) == state_reads(state(), now, probe), round_index


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1 << 20), kernel=st.sampled_from(("all-jobs", "packing")))
def test_state_matches_a_fresh_state_everywhere(seed, kernel):
    assert_matches_a_fresh_state_everywhere(seed, kernel)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1 << 20))
def test_first_winner_state_matches_a_fresh_state_everywhere(seed):
    assert_matches_a_fresh_state_everywhere(seed, "first-winner")


def cached_bundle_value(app):
    """A state over ``app``, its first job holding one GPU, that has valued
    one bundle: ``(state, bundle, value)``; the estimator counts carves."""
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster, semantics=app.semantics)
    app.jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:1]))
    state = AppValuationState(app, estimator)
    state.refresh()
    bundle = ((1, 2),)
    return state, bundle, state.rho_at(10.0, bundle)


def assert_cache_survives_order_preserving_drain(app):
    """Same job order, less work: the cached rate (ALL_JOBS) or ``(job_id,
    rate)`` pairs (FIRST_WINNER) are reused, and the value is re-derived
    from the *current* remaining work."""
    state, bundle, first = cached_bundle_value(app)
    carves = state.estimator.carve_count
    app.jobs[0].remaining_work -= 5.0
    state.refresh()
    assert state.rho_at(20.0, bundle) != first
    assert state.estimator.carve_count == carves


def assert_cache_invalidated_on_reorder(app):
    """The longer job drops below the shorter one and the signature moves
    with it (the caps, or the ids of a pairs kernel): the cache no longer
    describes the carve, so the bundle is carved again."""
    state, bundle, _ = cached_bundle_value(app)
    carves = state.estimator.carve_count
    app.jobs[1].remaining_work = app.jobs[0].remaining_work - 30.0
    state.refresh()
    assert state.rho_at(20.0, bundle) == fresh_state(app, state).rho_at(20.0, bundle)
    assert state.estimator.carve_count == carves + 1


def test_state_rate_cache_survives_order_preserving_drain():
    assert_cache_survives_order_preserving_drain(make_app("a0", num_jobs=2))


def test_state_rate_cache_invalidated_when_job_order_flips():
    jobs = [make_job("a0-j0", max_parallelism=1), make_job("a0-j1", max_parallelism=4)]
    assert_cache_invalidated_on_reorder(App("a0", 0.0, jobs))


def test_state_rate_cache_survives_a_reorder_of_equal_shapes():
    """Jobs of one cap, profile and family swap places: the rate reads
    no id, so the kernel cache and the snapshot stay, and the bundle's
    value is a fresh state's."""
    state, bundle, _ = cached_bundle_value(make_app("a0", num_jobs=2))
    carves, snap = state.estimator.carve_count, state.snapshot
    app = state.app
    app.jobs[1].remaining_work = app.jobs[0].remaining_work - 30.0
    assert state.refresh() is snap
    assert state.rho_at(20.0, bundle) == fresh_state(app, state).rho_at(20.0, bundle)
    assert state.estimator.carve_count == carves


def test_starved_app_pays_one_carve_across_rounds():
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster)
    app = make_app("a0", num_jobs=2)  # holds nothing
    state = AppValuationState(app, estimator)
    state.refresh()
    bundle = ((0, 2), (1, 1))
    state.rho_at(10.0, bundle)
    carves = estimator.carve_count
    for now in (20.0, 30.0, 40.0):
        state.refresh()
        rho = state.rho_at(now, bundle)
        assert not math.isinf(rho)
    assert estimator.carve_count == carves


def test_first_winner_delta_cache_dropped_on_rebuild():
    """A FIRST_WINNER delta divides by remaining work: it follows the
    work an epoch bump's walk re-reads."""
    cluster = small_cluster()
    estimator = FairnessEstimator(cluster, semantics=CompletionSemantics.FIRST_WINNER)
    app = first_winner_app()
    state = AppValuationState(app, estimator)
    state.refresh()
    bundle = ((1, 2),)
    before = state.rho_at(10.0, bundle)
    for job in app.jobs:
        job.remaining_work /= 2.0
    app.invalidate()
    state.refresh()
    oracle = FairnessEstimator(cluster, semantics=CompletionSemantics.FIRST_WINNER)
    after = state.rho_at(10.0, bundle)
    assert after == oracle.rho_from_snapshot(oracle.snapshot(app), 10.0, dict(bundle))
    assert after != before


# ----------------------------------------------------------------------
# FIRST_WINNER rate-signature cache (per-job pair kernels)
# ----------------------------------------------------------------------
def first_winner_app(serial_works=(40.0, 120.0)):
    jobs = [
        make_job(f"fw-j{i}", serial_work=work, max_parallelism=3)
        for i, work in enumerate(serial_works)
    ]
    return App(
        app_id="fw0",
        arrival_time=0.0,
        jobs=jobs,
        semantics=CompletionSemantics.FIRST_WINNER,
    )


def test_first_winner_pair_cache_survives_order_preserving_drain():
    assert_cache_survives_order_preserving_drain(first_winner_app())


def test_first_winner_pair_cache_invalidated_on_reorder():
    assert_cache_invalidated_on_reorder(first_winner_app())


# ----------------------------------------------------------------------
# The round's probe, reused by the bid at the same instant
# ----------------------------------------------------------------------
def held_world():
    """A state over two held jobs of different work (the drift walk runs)
    and one job waiting, on two machines."""
    cluster = small_cluster(machines=2, racks=2)
    estimator = FairnessEstimator(cluster)
    jobs = [
        make_job("j0", serial_work=100.0, max_parallelism=2),
        make_job("j1", serial_work=200.0, max_parallelism=2),
        make_job("j2", serial_work=300.0, max_parallelism=2),
    ]
    app = App("a0", 0.0, jobs)
    jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:2]))
    jobs[1].set_allocation(0.0, Allocation(cluster.machines[1].gpus[:1]))
    return cluster, app, AppValuationState(app, estimator)


def assert_probe_is_fresh(state, now):
    """The rho a bid at ``now`` starts from is a fresh state's probe."""
    fresh = AppValuationState(state.app, state.estimator).current_rho(now)
    assert state.held_rho(now) == fresh
    bid = Bid(state.app, state.estimator, now, {0: 1}, state=state)
    assert bid.current_rho == fresh


def _drift(app, work):
    app.jobs[0].remaining_work -= work


def _reorder(app, _work):
    app.jobs[1].remaining_work = app.jobs[0].remaining_work - 1.0


def _bump(app, _work):
    app.invalidate()


def _release(app, _work):
    job = app.jobs[1]
    job.set_allocation(job.last_update, Allocation())


CHANGES = {"drift": _drift, "reorder": _reorder, "epoch-bump": _bump, "new-holdings": _release}


@pytest.mark.parametrize(
    "change, when",
    [(name, when) for name in CHANGES for when in ("next-instant", "external-refresh")]
    + [("epoch-bump", "same-instant"), ("new-holdings", "same-instant")],
)
def test_the_round_probe_is_reused_only_while_it_is_fresh(change, when):
    """A probe is reused at its own instant only: a drift, a reorder that
    re-sorts the snapshot, an epoch bump and new holdings each answer
    what a fresh state answers, whether the change falls between two
    instants, before an external ``refresh()`` at the probe's instant
    (after which the epochs match again: the epoch alone is not enough),
    or, for a change that bumps the epoch, just after the probe."""
    _cluster, app, state = held_world()
    now = 10.0
    state.current_rho(5.0 if when == "next-instant" else now)
    CHANGES[change](app, 7.0)
    if when == "external-refresh":
        state.refresh()
    assert_probe_is_fresh(state, now)


def test_a_bid_at_the_probes_instant_reads_no_job_again(monkeypatch):
    """After the round's probe, the bid neither refreshes the state nor
    asks the estimator again: its current rho is the probe's."""
    _cluster, app, state = held_world()
    rho = state.current_rho(10.0)
    calls = []
    monkeypatch.setattr(AppValuationState, "refresh", lambda self: calls.append(self))
    bid = Bid(app, state.estimator, 10.0, {0: 2}, state=state)
    assert bid.current_rho == rho and calls == []
    assert (bid.rho_lookups, bid.rho_probes) == (1, 0)


# ----------------------------------------------------------------------
# The carving baselines' reads, over many rounds
# ----------------------------------------------------------------------
def baseline_world(rng: random.Random, fleet: str, semantics: CompletionSemantics):
    """A small fleet and one mixed-model app on it."""
    if fleet == "homogeneous":
        specs = (MachineSpec(count=rng.randint(4, 8), gpus_per_machine=4),)
    else:
        specs = tuple(
            MachineSpec(count=rng.randint(2, 4), gpus_per_machine=4, gpu_type=GPU_TYPES[kind])
            for kind in ("v100", "p100", "k80")
        )
    cluster = build_cluster(
        ClusterSpec(machine_specs=specs, num_racks=rng.randint(1, 3), name="rounds")
    )
    perf_model = (
        ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
        if fleet == "rate-inversion"
        else DEFAULT_PERF_MODEL
    )
    jobs = [
        make_job(
            f"b-j{i}",
            model=rng.choice(MODELS),
            serial_work=rng.uniform(20.0, 400.0),
            max_parallelism=rng.randint(1, 4),
        )
        for i in range(rng.randint(1, 4))
    ]
    return cluster, perf_model, App("b", 0.0, jobs, semantics)


def step_app(rng: random.Random, app: App, cluster, now: float) -> None:
    """One thing that happens to an app between two scheduling rounds."""
    active = app.active_jobs()
    held = [job for job in active if job.allocation.size]
    taken = {gpu.gpu_id for job in app.jobs for gpu in job.allocation.gpus}
    free = [gpu for gpu in cluster.gpus if gpu.gpu_id not in taken]
    op = rng.choice(("drain", "drain", "reorder", "grant", "revoke", "finish",
                     "kill", "cap", "idle"))
    if op == "drain" and held:
        # Work drains only on jobs that hold GPUs, and bumps no epoch.
        for job in held:
            job.remaining_work *= rng.uniform(0.5, 1.0)
    elif op == "reorder" and held and len(active) > 1:
        job = rng.choice(held)
        job.remaining_work = min(j.remaining_work for j in active) * rng.uniform(0.3, 0.9)
    elif op == "grant" and free:
        job = rng.choice(active)
        gpus = rng.sample(free, rng.randint(1, min(4, len(free))))
        job.set_allocation(0.0, job.allocation.union(gpus))
    elif op == "revoke" and held:
        rng.choice(held).set_allocation(0.0, Allocation())
    elif op == "finish":
        job = rng.choice(active)
        job.remaining_work = 0.0
        job.finish(now)
    elif op == "kill":
        rng.choice(active).kill(now)
    elif op == "cap":
        job = rng.choice(active)
        job.parallelism_limit = rng.randint(1, job.spec.max_parallelism)
        app.invalidate()  # the contract for writes behind the mutators


def random_key(rng: random.Random, machines: list[int]) -> tuple:
    chosen = rng.sample(machines, rng.randint(0, min(4, len(machines))))
    return tuple(sorted((m, rng.randint(1, 4)) for m in chosen))


def equal_shape_twin(key: tuple, reads, num_machines: int):
    """The same bundle shifted onto other machine ids, if its shape survives."""
    for shift in range(1, num_machines if key else 0):
        twin = tuple((m + shift, c) for m, c in key)
        if twin[-1][0] < num_machines and bundle_shape(twin, reads) == bundle_shape(
            key, reads
        ):
            return twin
    return None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 20),
    fleet=st.sampled_from(("homogeneous", "hetero", "rate-inversion")),
    semantics=st.sampled_from(list(CompletionSemantics)),
)
def test_baseline_reads_equal_the_uncached_oracles_every_round(seed, fleet, semantics):
    rng = random.Random(seed)
    cluster, perf_model, app = baseline_world(rng, fleet, semantics)
    estimator = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
    oracle = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
    state = AppValuationState(app, estimator)
    packing = AppValuationState(app, estimator, packing=True)
    rack_of = {machine.machine_id: machine.rack_id for machine in cluster.machines}
    speeds_of = perf_model.machine_speed_index(cluster)
    machines = sorted(rack_of)
    seen: list[tuple] = []
    signature = None
    for round_index in range(10):
        now = 10.0 * round_index + rng.random()
        if round_index:
            step_app(rng, app, cluster, now)
        if not app.active_jobs():
            break
        state.refresh()
        packing.refresh()
        carves = estimator.carve_count
        if packing.rate_signature == signature:
            # Job order unchanged since the last round: no seen bundle
            # is carved again, whatever drained or moved in between.
            for key in seen:
                packing.kernel_of(key)
            assert estimator.carve_count == carves
        else:
            seen = []
        signature = packing.rate_signature
        # The shape labels: what an estimator with no memo reads.
        fresh = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
        assert state.machine_reads == fresh.machine_reads(state.snapshot.job_tuples)
        # The strawman's read.
        assert state.current_rho(now) == oracle.rho(app, now)
        # Gandiva's reads: the holdings alone and merged with a bundle.
        tuples = _job_tuples(app.jobs)[0]

        def packing_oracle(key):
            carved, _ = _carve_reference(tuples, dict(key), rack_of, speeds_of)
            return _packing_score(carved)

        keys = [packing.base_key] + [random_key(rng, machines) for _ in range(4)]
        for key in keys:
            expected = packing_oracle(key)
            assert packing.kernel_of(key) == expected
            twin = equal_shape_twin(key, packing.machine_reads, len(machines))
            if twin is not None:
                carves = estimator.carve_count
                assert packing.kernel_of(twin) == packing_oracle(twin) == expected
                assert estimator.carve_count == carves  # served by shape
        seen += keys


@pytest.mark.parametrize("name", ["gandiva", "strawman"])
def test_carving_baseline_drops_a_finished_apps_state(name):
    """A state lives while its app is active (``audit_freshness`` checks
    that every round); after the last finish there is none left."""
    sim = simulator(tiny_scenario(num_apps=3, seed=4), name)
    assert sim.run().completed
    assert sim.scheduler.states == {}
