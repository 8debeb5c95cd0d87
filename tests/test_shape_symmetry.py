"""Shape symmetry: a bundle is carved per *shape*, a row scored per *class*.

Three layers, matching where the symmetry is used:

* **the lemma** (:func:`repro.core.fairness.bundle_shape`) — the carve
  kernel and its reference read machine ids only for *order* and rack
  ids only for *equality*, so any order-preserving relabelling that
  keeps the rack equality pattern and every per-machine speed leaves
  the allotments bit-identical (hypothesis property over
  ``helpers.carve_instances``, every speed setup);
* **why order position is in the class** — the pinned counterexample
  where two free machines of the same rack, speed and free count carve
  to 4.0 vs 5.2 because one sorts below the holdings and one above;
* **class-native rows** — a class owns *one* heap entry: pinned markets
  where a competitor consumes the representative (a successor must be
  materialised) and where a member touched by a column event must be
  skipped, and bit-equality of the spliced-shape probe with the id-key
  probe.  Whole outcomes on wide markets against the rescan reference
  are the market property of tests/test_auction_equivalence.py.
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
    _carve_reference,
    bundle_shape,
    shape_of_entries,
)
from repro.workload.app import App, CompletionSemantics
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import MODELS, CarveInstance, carve_instances, make_app, make_job, rescan_auction


# ----------------------------------------------------------------------
# (a) the lemma, on the kernel and its reference
# ----------------------------------------------------------------------
@st.composite
def relabelled_carves(draw):
    """A carve instance and an order-preserving relabelling of it: new
    machine ids in the same order, rack ids under an injective map."""
    case = draw(carve_instances())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    machines = sorted(case.rack_of)
    new_id = dict(zip(machines, sorted(rng.sample(range(4 * len(machines)), len(machines)))))
    racks = sorted(set(case.rack_of.values()))
    new_rack = dict(zip(racks, rng.sample(range(100, 200), len(racks))))

    def move(speeds):
        return {new_id[m]: speed for m, speed in speeds.items()}

    twin = CarveInstance(
        case.jobs,
        move(case.counts),
        {new_id[m]: new_rack[r] for m, r in case.rack_of.items()},
        case.nvlink,
        None if case.speed_of is None else move(case.speed_of),
        {family: move(row) for family, row in case.family_rows.items()},
    )
    return case, twin


def shapes(case):
    """The bundle's shape under the scalar reads and the family reads."""
    key = tuple((m, c) for m, c in sorted(case.counts.items()) if c > 0)
    scalar = case.speed_of or {}
    rows = list(case.family_rows.values())
    return (
        bundle_shape(key, {m: (r, scalar.get(m, 1.0)) for m, r in case.rack_of.items()}),
        bundle_shape(
            key, {m: (r, tuple(row[m] for row in rows)) for m, r in case.rack_of.items()}
        ),
    )


@settings(max_examples=150, deadline=None)
@given(relabelled_carves())
def test_all_kernels_are_pure_in_the_bundle_shape(pair):
    case, twin = pair
    assert shapes(case) == shapes(twin)
    for setup in ("scalar", "family", "degenerate"):
        for kernel in (_carve_fast, _carve_reference):
            assert kernel(*case.args(setup)) == kernel(*twin.args(setup))


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
# (c) class-native rows: one heap entry per class, successors on demand
# ----------------------------------------------------------------------
def one_rack_cluster(machines: int):
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=machines, gpus_per_machine=4),),
            num_racks=1,
            name="class-rows",
        )
    )


def solve_spying_on_successors(pool, bids, monkeypatch):
    """One full-market solve from fresh bids; returns (assignment, stamps).

    ``stamps`` lists ``(app, from_machine, to_machine)`` for every score
    moved to another class member.  Within a single solve from fresh
    bids a row is built once per ``current_key``, so the class memo
    never restamps and each stamp is a successor materialised by the
    pop loop.
    """
    stamps = []
    stamped = auction_module._stamped

    def spy(key, move, machine_id):
        stamps.append((move[0], move[1], machine_id))
        return stamped(key, move, machine_id)

    with monkeypatch.context() as patch:
        patch.setattr(auction_module, "_stamped", spy)
        assignment = PartialAllocationAuction().proportional_fair_allocation(pool, bids)
    return assignment, stamps


def test_successor_stands_in_when_a_competitor_takes_the_representative(monkeypatch):
    """Five indistinguishable one-GPU machines, two apps on the gain path.

    Both rows are one class ``{0, 1, 2, 3, 4}`` represented by machine
    0.  ``a`` wins it; ``b``'s entry for machine 0 is now a placeholder
    whose pop must materialise machine 1 — the only way ``b`` can reach
    it, because an exhausted machine gets no column entry.  ``a``'s
    rebuilt row is then represented by machine 1, which ``b`` takes, and
    so on: every move but the first is won through a successor.
    """
    cluster = one_rack_cluster(6)
    estimator = FairnessEstimator(cluster)
    pool = {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    def bids():
        a = make_app("a", num_jobs=2, serial_work=400.0, max_parallelism=3)
        b = make_app("b", num_jobs=1, serial_work=100.0, max_parallelism=4)
        for app, gpu in ((a, 0), (b, 1)):
            job = app.jobs[0]
            held = (cluster.machines[5].gpus[gpu],)
            job.set_allocation(0.0, job.allocation.union(held), overhead=0.0)
        return {
            x.app_id: build_bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (a, b)
        }

    assignment, stamps = solve_spying_on_successors(pool, bids(), monkeypatch)
    assert assignment == {"a": {0: 1, 2: 1, 3: 1}, "b": {1: 1, 4: 1}}
    assert stamps[:2] == [("b", 0, 1), ("a", 1, 2)]
    outcome = PartialAllocationAuction().run(pool, bids())
    assert outcome == rescan_auction().run(pool, bids())


def test_member_touched_by_a_column_event_is_skipped_by_the_walk(monkeypatch):
    """``b``'s class is ``{0, 1, 2, 3}`` (2 free each), represented by 0.

    ``a`` takes both GPUs of machine 0 and one of machine 1 before
    ``b``'s entry is popped.  Machine 1 was re-scored for ``b`` by the
    column pass (one GPU left: another step bound, another score), so
    the walk must pass over it and hand the class score to machine 2;
    ``b`` then wins machine 1 through its own entry and machine 2
    through the successor.
    """
    cluster = one_rack_cluster(7)
    estimator = FairnessEstimator(cluster)
    pool = {0: 2, 1: 2, 2: 2, 3: 2}

    def bids():
        a = make_app("a", num_jobs=1, serial_work=400.0, max_parallelism=4)
        b = make_app("b", num_jobs=2, serial_work=100.0, max_parallelism=4)
        for app, machine, count in ((a, 5, 1), (b, 6, 4)):
            job = app.jobs[0]
            held = cluster.machines[machine].gpus[:count]
            job.set_allocation(0.0, job.allocation.union(held), overhead=0.0)
        return {
            x.app_id: build_bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (a, b)
        }

    assignment, stamps = solve_spying_on_successors(pool, bids(), monkeypatch)
    assert assignment == {"a": {0: 2, 1: 1}, "b": {1: 1, 2: 2, 3: 1}}
    assert ("b", 0, 2) in stamps
    assert all(to_machine != 1 for _app, _from, to_machine in stamps)
    outcome = PartialAllocationAuction().run(pool, bids())
    assert outcome == rescan_auction().run(pool, bids())


@st.composite
def spliced_probes(draw):
    """An app with holdings, a bundle so far, and one more machine."""
    perf_matrix = draw(st.booleans())
    semantics = draw(st.sampled_from(list(CompletionSemantics)))
    seed = draw(st.integers(0, 1 << 20))
    rng = random.Random(seed)
    cluster = wide_cluster(hetero=perf_matrix or rng.random() < 0.5)
    perf_model = (
        ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
        if perf_matrix
        else None
    )
    machines = [m.machine_id for m in cluster.machines]
    ids = draw(st.lists(st.sampled_from(machines), min_size=1, max_size=6, unique=True))
    return cluster, perf_model, semantics, seed, ids, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(spliced_probes())
def test_spliced_shape_probe_is_bit_equal_to_the_id_key_probe(case):
    cluster, perf_model, semantics, seed, ids, step = case
    rng = random.Random(seed)
    *others, machine_id = ids
    rng.shuffle(others)
    held, bundle = others[: len(others) // 2], others[len(others) // 2 :]
    pool = {m: 4 for m in [machine_id, *bundle]}
    current_key = tuple(sorted((m, rng.randint(1, 3)) for m in bundle))

    def fresh_bid():
        """Own estimator and state, so nothing is shared between doors."""
        estimator = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
        app = make_app(
            "a",
            num_jobs=3,
            model=MODELS[seed % len(MODELS)],
            max_parallelism=4,
            semantics=semantics,
        )
        for job, machine in zip(app.jobs * 2, held):
            take = cluster.machines[machine].gpus[:1]
            job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
        return build_bid(app, estimator, now=40.0, offered_counts=pool)

    by_shape, by_key = fresh_bid(), fresh_bid()
    total_key, entries = by_shape.state.row_context(current_key)
    position = sum(1 for machine, _count in total_key if machine < machine_id)
    reads = by_shape.state.machine_reads
    spliced_key = (
        total_key[:position] + ((machine_id, step),) + total_key[position:]
    )
    shape = shape_of_entries(
        entries[:position] + [(*reads[machine_id], step)] + entries[position:]
    )
    assert shape == bundle_shape(spliced_key, reads)
    assert by_shape.state.delta_of(spliced_key, shape) == by_key.state.delta_of(spliced_key)
    bundle_key = tuple(sorted(current_key + ((machine_id, step),)))
    assert by_shape.value_from_shape(shape, spliced_key) == by_key.value_from_key(bundle_key)
    assert by_shape.rho_probes == by_key.rho_probes
