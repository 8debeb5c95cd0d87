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
  skipped, bit-equality of the row table's class probes with the id-key
  probe, and a job reorder dropping the row tables.  Whole outcomes on
  wide markets against the rescan reference are the market property of
  tests/test_auction_equivalence.py.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.auction as auction_module
import repro.core.bids as bids_module
from repro.cluster.allocation import Allocation
from repro.cluster.placement import SensitivityProfile
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import PartialAllocationAuction, rescan_fair_allocation
from repro.core.bids import Bid
from repro.core.fairness import (
    AppValuationState,
    FairnessEstimator,
    RowProbe,
    _carve_fast,
    _carve_reference,
    bundle_shape,
    merge_keys,
    shape_classes,
)
from repro.workload.app import App, CompletionSemantics
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import (
    MODELS,
    CarveInstance,
    RescanAuction,
    carve_instances,
    make_app,
    make_job,
    uniform_cluster,
)


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
            sum(rate for *_rest, rate, _eff in kernel(tuples, dict(key), rack_of)[0])
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
    cluster = uniform_cluster(8, racks=2, name="order")
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
            x.app_id: Bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (app, rival)
        }

    bid = bids()["a"]
    value = {m: bid.value_from_key(((m, 2),)) for m in pool}
    assert value[0] == value[2] < value[6]
    assignment = PartialAllocationAuction().run(pool, bids(), apply_hidden_payments=False).proportional_fair
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
        assert state.rho_at(10.0, key) == reference.rho_from_snapshot(
            state.snapshot, 10.0, dict(key)
        )
    assert estimator.carve_count == before + 1
    # Two-machine bundles: same rack vs different racks are two shapes.
    rack_of = {m.machine_id: m.rack_id for m in cluster.machines}
    before = estimator.carve_count
    shapes = set()
    low = machines[0]
    for high in machines[1:]:
        key = ((low, 2), (high, 2))
        shapes.add(rack_of[low] == rack_of[high])
        assert state.rho_at(10.0, key) == reference.rho_from_snapshot(
            state.snapshot, 10.0, dict(key)
        )
    assert estimator.carve_count == before + len(shapes) == before + 2


# ----------------------------------------------------------------------
# (c) class-native rows: one heap entry per class, successors on demand
# ----------------------------------------------------------------------
def one_rack_cluster(machines: int):
    return uniform_cluster(machines, name="class-rows")


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
        assignment = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False).proportional_fair
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
            x.app_id: Bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (a, b)
        }

    assignment, stamps = solve_spying_on_successors(pool, bids(), monkeypatch)
    assert assignment == {"a": {0: 1, 2: 1, 3: 1}, "b": {1: 1, 4: 1}}
    assert stamps[:2] == [("b", 0, 1), ("a", 1, 2)]
    outcome = PartialAllocationAuction().run(pool, bids())
    assert outcome == RescanAuction().run(pool, bids())


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
            x.app_id: Bid(x, estimator, now=30.0, offered_counts=pool)
            for x in (a, b)
        }

    assignment, stamps = solve_spying_on_successors(pool, bids(), monkeypatch)
    assert assignment == {"a": {0: 2, 1: 1}, "b": {1: 1, 2: 2, 3: 1}}
    assert ("b", 0, 2) in stamps
    assert all(to_machine != 1 for _app, _from, to_machine in stamps)
    outcome = PartialAllocationAuction().run(pool, bids())
    assert outcome == RescanAuction().run(pool, bids())


@st.composite
def row_probes(draw):
    """An app and its bundle so far against a pool of free machines.

    Plain data, so an ``@example`` can pin a case: ``(perf_matrix,
    hetero, semantics, model, held, bundle, free, cap, seed)``.  Machine
    ids are drawn from :func:`wide_cluster`'s 36 machines, whose rack is
    ``id % 3``, so any rack pattern can come up; ``held`` may be empty
    (a starved app).
    """
    perf_matrix = draw(st.booleans())
    hetero = perf_matrix or draw(st.booleans())
    semantics = draw(st.sampled_from(list(CompletionSemantics)))
    machines = st.sampled_from(range(36))
    held = draw(st.lists(machines, max_size=2, unique=True))
    bundle = draw(
        st.lists(st.tuples(machines, st.integers(1, 3)), max_size=4, unique_by=lambda x: x[0])
    )
    free = draw(st.lists(machines, min_size=1, max_size=10, unique=True))
    return (
        perf_matrix,
        hetero,
        semantics,
        draw(st.integers(0, len(MODELS) - 1)),
        held,
        sorted(bundle),
        free,
        draw(st.integers(1, 4)),
        draw(st.integers(0, 1 << 20)),
    )


def probe_bid(cluster, perf_model, semantics, model, held, pool):
    """A bid of one three-job app holding a GPU on each ``held`` machine;
    its own estimator, so two of them share nothing."""
    estimator = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)
    app = make_app(
        "a", num_jobs=3, model=MODELS[model], max_parallelism=4, semantics=semantics
    )
    for job, machine in zip(app.jobs * 2, held):
        take = cluster.machines[machine].gpus[:1]
        job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
    return Bid(app, estimator, now=40.0, offered_counts=pool)


# Racks [A, B, A] held as the row, and a free B machine (1) that sorts
# first: the splice relabels B to 0 and A to 1.  Machine 0 (rack A) has
# the same position and machine 7 (rack B) the same rack label.
@example((False, False, CompletionSemantics.ALL_JOBS, 0, [],
          [(3, 2), (4, 2), (6, 2)], [1, 0, 7, 9], 2, 0))
@example((True, True, CompletionSemantics.FIRST_WINNER, 2, [4],
          [(3, 1), (6, 2)], [1, 0, 7, 9], 3, 1))
@settings(max_examples=150, deadline=None)
@given(row_probes())
def test_row_table_values_are_bit_equal_to_the_spliced_key_probe(case):
    """Every class probe, through the row's table, against the id key.

    Members of a class and the steps up to its bound are probed in a
    shuffled order, so most answers are served by a table slot another
    member filled; the id-key side builds each bundle's key and values
    it through its own estimator.  Both carve once per shape.
    """
    perf_matrix, hetero, semantics, model, held, bundle, free, cap, seed = case
    cluster = wide_cluster(hetero=hetero)
    perf_model = (
        ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
        if perf_matrix
        else None
    )
    current_key = tuple(bundle)
    remaining = {m: 4 for m in sorted(free)}
    pool = {**remaining, **dict(current_key)}
    by_table, by_key = (
        probe_bid(cluster, perf_model, semantics, model, held, pool) for _ in range(2)
    )
    # Every pool width is grouped, so the bid hands out its class probe.
    with mock.patch.object(bids_module, "_CLASS_MIN_POOL", 1):
        _own, classes, class_probe = by_table.row(
            dict(current_key), current_key, remaining, cap
        )
    probes = [
        (member, machine_class, step)
        for machine_class, members in classes.items()
        for member in members
        for step in range(1, machine_class[3] + 1)
    ]
    random.Random(seed).shuffle(probes)
    for member, machine_class, step in probes:
        key = merge_keys(current_key, ((member, step),))
        assert class_probe(member, machine_class, step) == by_key.value_from_key(key)
    assert by_table.rho_probes == by_key.rho_probes


def test_a_zero_rate_kernel_values_zero_through_the_class_probe():
    """A bundle nothing progresses on (aggregate rate 0) has unbounded
    rho: the row's class probe values it 0, as the id-key probe does,
    instead of dividing by the rate."""
    pool = {m: 4 for m in range(8)}
    bid = probe_bid(wide_cluster(hetero=False), None, CompletionSemantics.ALL_JOBS, 0, [], pool)
    bid.state._carve = lambda snapshot, counts: 0.0
    _own, classes, class_probe = bid.row({}, (), pool, 4)
    for machine_class, members in classes.items():
        assert class_probe(members[0], machine_class, 1) == 0.0
        assert bid.value_from_key(((members[0], 1),)) == 0.0


def test_a_job_reorder_drops_the_row_tables():
    """A rate-signature change (the carve's job order flips) must drop
    the row tables with the kernel caches: a slot filled under the old
    order would serve the old order's rate for the same row shape."""
    cluster = one_rack_cluster(4)
    estimator = FairnessEstimator(cluster)
    jobs = [
        make_job("j0", serial_work=100.0, max_parallelism=1),
        make_job("j1", serial_work=300.0, max_parallelism=4),
    ]
    app = App("a0", 0.0, jobs)
    jobs[0].set_allocation(0.0, Allocation(cluster.machines[0].gpus[:1]), overhead=0.0)
    state = AppValuationState(app, estimator)
    state.refresh()
    remaining = {m.machine_id: 4 for m in cluster.machines[1:]}

    def first_class_kernel():
        row = RowProbe(state, ())
        _own, classes = shape_classes(row, remaining, 4)
        ((machine_class, members),) = classes.items()
        return row.kernel(members[0], machine_class, 3), ((0, 1), (members[0], 3))

    before, key = first_class_kernel()
    # The held app drains: j1 drops below j0, the epoch stays.
    jobs[1].remaining_work = jobs[0].remaining_work - 50.0
    state.refresh()
    after, _ = first_class_kernel()
    fresh = AppValuationState(app, FairnessEstimator(cluster))
    fresh.refresh()
    assert after == fresh.kernel_of(key)
    assert after != before
