"""Shape symmetry: a bundle is carved per *shape*, a row scored per *class*.

Three layers, matching where the symmetry is used:

* **the lemma** (:func:`repro.core.fairness.bundle_shape`) — all three
  carve kernels read machine ids only for *order* and rack ids only for
  *equality*, so any order-preserving relabelling that keeps the rack
  equality pattern and every per-machine speed leaves the allotments
  bit-identical (hypothesis property, scalar and per-family speeds);
* **why order position is in the class** — the pinned counterexample
  where two free machines of the same rack, speed and free count carve
  to 4.0 vs 5.2 because one sorts below the holdings and one above;
* **the solver** — on markets with >= 32 interchangeable machines the
  class-grouped row pass replays the full-rescan solver's outcome
  byte-for-byte, with and without valuation noise (noise keys on
  machine ids, so the class must degenerate to the machine), under
  scalar and ``rate-inversion`` perf models, ``ALL_JOBS`` and
  ``FIRST_WINNER``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.auction as auction_module
from repro.cluster.placement import SensitivityProfile
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import PartialAllocationAuction, rescan_fair_allocation
from repro.core.bids import build_bid
from repro.core.fairness import (
    AppValuationState,
    FairnessEstimator,
    _carve_fast,
    _carve_fast_family,
    _carve_reference,
    bundle_shape,
)
from repro.workload.app import App, CompletionSemantics
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import make_app, make_job

FAMILIES = ("cnn", "rnn", "attention")
PROFILES = (
    SensitivityProfile(machine=0.9, rack=0.8, cluster=0.5),
    SensitivityProfile(machine=1.0, rack=0.95, cluster=0.9),
    SensitivityProfile(machine=0.7, rack=0.4, cluster=0.2),
)
SPEEDS = (0.35, 0.6, 1.0)


# ----------------------------------------------------------------------
# (a) the lemma, on every kernel
# ----------------------------------------------------------------------
def all_kernels(tuples, key, rack_of, nvlink, speed_of, family_fn):
    """Every kernel's result for one bundle, scalar then per-family."""
    counts = dict(key)
    return {
        "fast": _carve_fast(tuples, counts, rack_of, nvlink, speed_of),
        "reference": _carve_reference(tuples, counts, rack_of, nvlink, speed_of),
        "fast_family": _carve_fast_family(tuples, counts, rack_of, nvlink, family_fn),
        "reference_family": _carve_reference(
            tuples, counts, rack_of, nvlink, None, family_fn
        ),
    }


@st.composite
def relabelled_bundles(draw):
    """A bundle and an order-preserving relabelling of it."""
    size = draw(st.integers(1, 6))
    ids_a = sorted(draw(st.sets(st.integers(0, 40), min_size=size, max_size=size)))
    ids_b = sorted(draw(st.sets(st.integers(0, 40), min_size=size, max_size=size)))
    racks = [draw(st.integers(0, 2)) for _ in range(size)]
    # Rack ids are relabelled by an injective map: equality pattern kept.
    rack_map = dict(zip((0, 1, 2), draw(st.permutations((7, 8, 9)))))
    counts = [draw(st.integers(1, 4)) for _ in range(size)]
    speeds = [draw(st.sampled_from(SPEEDS)) for _ in range(size)]
    family_speeds = [
        {family: draw(st.sampled_from(SPEEDS)) for family in FAMILIES}
        for _ in range(size)
    ]
    jobs = []
    for index in range(draw(st.integers(1, 4))):
        jobs.append(
            (
                float(index + 1),
                draw(st.integers(1, 6)),
                draw(st.sampled_from(PROFILES)),
                f"j{index}",
                draw(st.sampled_from(FAMILIES)),
            )
        )
    nvlink = draw(st.sampled_from((1, 2, 4)))

    def world(ids, rack_ids):
        by_family = {
            family: {m: row[family] for m, row in zip(ids, family_speeds)}
            for family in FAMILIES
        }
        return {
            "key": tuple(zip(ids, counts)),
            "rack_of": dict(zip(ids, rack_ids)),
            "speed_of": dict(zip(ids, speeds)),
            "family_fn": by_family.__getitem__,
        }

    return (
        tuple(jobs),
        nvlink,
        world(ids_a, racks),
        world(ids_b, [rack_map[r] for r in racks]),
    )


@settings(max_examples=150, deadline=None)
@given(relabelled_bundles())
def test_all_kernels_are_pure_in_the_bundle_shape(case):
    tuples, nvlink, first, second = case
    shapes = []
    for world in (first, second):
        for speeds in (
            world["speed_of"],
            {
                m: tuple(world["family_fn"](family)[m] for family in FAMILIES)
                for m in world["rack_of"]
            },
        ):
            reads = {m: (world["rack_of"][m], speeds[m]) for m in world["rack_of"]}
            shapes.append(bundle_shape(world["key"], reads))
    assert shapes[0] == shapes[2] and shapes[1] == shapes[3]
    got = [
        all_kernels(
            tuples, w["key"], w["rack_of"], nvlink, w["speed_of"], w["family_fn"]
        )
        for w in (first, second)
    ]
    assert got[0] == got[1]
    # And the kernels agree with each other, so "the carve" is one function.
    for suffix in ("", "_family"):
        names = [n for n in got[0] if n.endswith("_family") == bool(suffix)]
        assert all(got[0][name] == got[0][names[0]] for name in names)


# ----------------------------------------------------------------------
# (b) order position is part of the class
# ----------------------------------------------------------------------
def test_same_rack_same_free_machines_differ_by_id_order():
    """ROADMAP's (rack relation, generation, free count) class is unsound.

    Holdings ``{4: 2 (rack B), 6: 2 (rack A)}``; machines 1 and 9 are
    both rack A, both 2 free, both absent from the holdings — one coarse
    class.  The first job breaks its effective-compute tie toward the
    lowest id: with machine 1 in the bundle it drains rack A and the
    second job is left straddling racks (CLUSTER, 0.5); with machine 9
    it drains machine 4 and the second job stays inside rack A (RACK,
    0.8).  Aggregate rate 4.0 vs 5.2.
    """
    rack_of = {1: 0, 4: 1, 6: 0, 9: 0}
    profile = SensitivityProfile(machine=0.9, rack=0.8, cluster=0.5)
    tuples = ((10.0, 2, profile, "j0", "cnn"), (20.0, 4, profile, "j1", "cnn"))
    low = ((1, 2), (4, 2), (6, 2))
    high = ((4, 2), (6, 2), (9, 2))
    for kernel in (_carve_fast, _carve_reference):
        rates = [
            sum(rate for *_rest, rate, _eff in kernel(tuples, dict(key), rack_of, 2)[0])
            for key in (low, high)
        ]
        assert rates == [4.0, 5.2]
    reads = {m: (rack, 1.0) for m, rack in rack_of.items()}
    assert bundle_shape(low, reads) == ((0, 1.0, 2), (1, 1.0, 2), (0, 1.0, 2))
    assert bundle_shape(high, reads) == ((0, 1.0, 2), (1, 1.0, 2), (1, 1.0, 2))


def test_solver_separates_machines_that_differ_only_by_id_order():
    """The same counterexample as a market: the class carries position.

    Racks are ``machine_id % 2``; the app holds 2 GPUs on machines 3
    (rack 1) and 4 (rack 0) and wants 2 more.  Machines 0, 2 and 6 are
    all rack 0 with 2 free — but 0 and 2 sort below the holdings and 6
    above, and only 6 keeps the second job inside one rack.
    """
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=8, gpus_per_machine=4),),
            num_racks=2,
            name="order",
        )
    )
    estimator = FairnessEstimator(cluster)
    jobs = [
        make_job("a-j0", model="transformer", serial_work=50.0, max_parallelism=2),
        make_job("a-j1", model="transformer", serial_work=100.0, max_parallelism=4),
    ]
    app = App(app_id="a", arrival_time=0.0, jobs=jobs)
    for job, machine_id in zip(jobs, (3, 4)):
        take = cluster.machines[machine_id].gpus[:2]
        job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
    rival = make_app("b", num_jobs=1, max_parallelism=2)
    pool = {0: 2, 1: 2, 2: 2, 5: 2, 6: 2, 7: 2}

    def bids():
        return {
            x.app_id: build_bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (app, rival)
        }

    bid = bids()["a"]
    value = {m: bid.value_from_key(((m, 2),)) for m in pool}
    assert value[0] == value[2] < value[6]
    assignment = PartialAllocationAuction().proportional_fair_allocation(pool, bids())
    assert assignment == rescan_fair_allocation(pool, bids())
    assert assignment["a"] == {6: 2}


# ----------------------------------------------------------------------
# layer 1: one carve per shape
# ----------------------------------------------------------------------
def wide_cluster(hetero: bool):
    if hetero:
        specs = tuple(
            MachineSpec(count=12, gpus_per_machine=4, gpu_type=GPU_TYPES[kind])
            for kind in ("v100", "p100", "k80")
        )
    else:
        specs = (MachineSpec(count=36, gpus_per_machine=4),)
    return build_cluster(ClusterSpec(machine_specs=specs, num_racks=3, name="wide"))


@pytest.mark.parametrize("semantics", list(CompletionSemantics))
def test_state_carves_once_per_shape(semantics):
    cluster = wide_cluster(hetero=False)
    estimator = FairnessEstimator(cluster, semantics=semantics)
    app = make_app("a0", num_jobs=3, semantics=semantics)
    state = AppValuationState(app, estimator)
    state.refresh()
    reference = FairnessEstimator(cluster, semantics=semantics)
    machines = [m.machine_id for m in cluster.machines]
    before = estimator.carve_count
    for machine_id in machines:
        key = ((machine_id, 3),)
        assert state.delta_of(key) == reference.shared_delta_from_snapshot(
            state.snapshot, dict(key)
        )
    assert estimator.carve_count == before + 1
    # Two-machine bundles: same rack vs different racks are two shapes.
    rack_of = estimator.rack_map
    before = estimator.carve_count
    shapes = set()
    low = machines[0]
    for high in machines[1:]:
        key = ((low, 2), (high, 2))
        shapes.add(rack_of[low] == rack_of[high])
        assert state.delta_of(key) == reference.shared_delta_from_snapshot(
            state.snapshot, dict(key)
        )
    assert estimator.carve_count == before + len(shapes) == before + 2


# ----------------------------------------------------------------------
# (c) the solver on wide, symmetric markets
# ----------------------------------------------------------------------
MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")


def wide_market(seed: int, perf_matrix: bool, semantics, noise_theta: float):
    """36 machines in 3 racks, a few apps, some already holding GPUs."""
    rng = random.Random(seed)
    cluster = wide_cluster(hetero=perf_matrix or rng.random() < 0.5)
    perf_model = (
        ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
        if perf_matrix
        else None
    )
    estimator = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
    apps = [
        make_app(
            app_id=f"a{i}",
            num_jobs=rng.randint(1, 3),
            model=rng.choice(MODELS),
            serial_work=rng.uniform(20.0, 400.0),
            max_parallelism=rng.randint(2, 4),
            semantics=semantics,
        )
        for i in range(rng.randint(3, 5))
    ]
    machines = list(cluster.machines)
    rng.shuffle(machines)
    held = machines[: rng.randint(0, 4)]
    for slot, machine in enumerate(held):
        job = apps[slot % len(apps)].jobs[0]
        take = machine.gpus[: rng.randint(1, 2)]
        job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
    pool = {
        machine.machine_id: rng.randint(1, machine.num_gpus)
        for machine in machines[len(held):]
    }
    now = rng.uniform(10.0, 200.0)

    def bids_factory():
        return {
            app.app_id: build_bid(
                app, estimator, now, pool, noise_theta=noise_theta, noise_salt=seed
            )
            for app in apps
            if app.unmet_demand() > 0
        }

    return pool, bids_factory


@pytest.mark.parametrize("semantics", list(CompletionSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("perf_matrix", [False, True], ids=["scalar", "rate-inversion"])
@pytest.mark.parametrize("noise_theta", [0.0, 0.2], ids=["exact", "noisy"])
def test_class_grouped_rows_match_rescan(
    noise_theta, perf_matrix, semantics, monkeypatch
):
    for seed in (11, 12, 13):
        pool, bids_factory = wide_market(seed, perf_matrix, semantics, noise_theta)
        assert len(pool) >= 32
        # AuctionOutcome equality: proportional_fair, payments, winners,
        # leftover, participants and nash_log_welfare, floats included.
        outcome = PartialAllocationAuction().run(pool, bids_factory())
        rescan = PartialAllocationAuction(solver="rescan").run(pool, bids_factory())
        assert outcome == rescan
        # The reduction engages exactly when it is sound: against the
        # same solve with every pool counted as too narrow to group,
        # same moves — from fewer scores, unless noise (which hashes
        # the machine-id key) already forced the row per machine.
        def solve():
            auction = PartialAllocationAuction()
            _, moves = auction._solve(pool, bids_factory(), stats=auction.last_stats)
            return moves, auction.last_stats.pair_scores

        moves, grouped_scores = solve()
        with monkeypatch.context() as patch:
            patch.setattr(auction_module, "_CLASS_MIN_POOL", len(pool) + 1)
            per_machine_moves, per_machine_scores = solve()
        assert moves == per_machine_moves
        if noise_theta > 0.0:
            assert grouped_scores == per_machine_scores
        else:
            assert grouped_scores < per_machine_scores
