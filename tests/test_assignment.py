"""Unit tests for shared assignment helpers."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import MODELS, group_pool, make_job, rescan_utility_assign, uniform_cluster
from repro.cluster.topology import GPU_TYPES, Cluster, Gpu, Machine
from repro.core.assignment import (
    AdditiveWelfare,
    UtilityBid,
    concretise,
    drainable,
    take_packed,
)
from repro.core.auction import greedy_solve
from repro.core.fairness import (
    AppValuationState,
    FairnessEstimator,
    _carve_reference,
    _packing_score,
    merge_keys,
)
from repro.schedulers.gandiva import GandivaScheduler, _PackingUtility
from repro.schedulers.slaq import _BundleUtility
from repro.workload.app import App


def utility_assign(pool, utilities, caps):
    """The baselines' market on the one greedy solver: each utility a
    :class:`UtilityBid` capped at ``caps`` (0 when missing), the result
    in ``utilities`` order without empty bundles, as
    ``rescan_utility_assign`` returns it."""
    bids = {a: UtilityBid(u, caps.get(a, 0)) for a, u in utilities.items()}
    assignment, _, _ = greedy_solve(pool, bids, AdditiveWelfare)
    return {a: assignment[a] for a in utilities if assignment[a]}


def test_concretise_grants_match_counts(small_cluster):
    grouped = group_pool(small_cluster.gpus)
    grants = concretise({"a": {0: 2}, "b": {0: 2, 2: 1}}, grouped)
    assert len(grants["a"]) == 2
    assert len(grants["b"]) == 3
    ids_a = {gpu.gpu_id for gpu in grants["a"]}
    ids_b = {gpu.gpu_id for gpu in grants["b"]}
    assert not ids_a & ids_b


def test_concretise_largest_bundle_gets_contiguous_slots(small_cluster):
    grouped = group_pool(small_cluster.gpus)
    grants = concretise({"big": {0: 2}, "small": {0: 1}}, grouped)
    big_slots = {gpu.slot_id for gpu in grants["big"]}
    assert len(big_slots) == 1  # an intact NVLink pair


def test_concretise_overdraw_raises(small_cluster):
    grouped = group_pool(small_cluster.gpus)
    with pytest.raises(RuntimeError):
        concretise({"a": {0: 5}}, grouped)


def test_concretise_negative_raises(small_cluster):
    grouped = group_pool(small_cluster.gpus)
    with pytest.raises(ValueError):
        concretise({"a": {0: -1}}, grouped)


def test_greedy_utility_respects_caps():
    pool = {0: 4}
    utilities = {"a": lambda b: float(sum(b.values()))}
    result = utility_assign(pool, utilities, caps={"a": 2})
    assert sum(result["a"].values()) == 2


def test_greedy_utility_prefers_higher_marginal():
    pool = {0: 2}
    utilities = {
        "low": lambda b: 1.0 * sum(b.values()),
        "high": lambda b: 5.0 * sum(b.values()),
    }
    result = utility_assign(pool, utilities, caps={"low": 2, "high": 2})
    assert sum(result.get("high", {}).values()) == 2
    assert "low" not in result


def test_greedy_utility_stops_at_zero_marginal():
    pool = {0: 4}
    utilities = {"a": lambda b: min(2.0, float(sum(b.values())))}
    result = utility_assign(pool, utilities, caps={"a": 4})
    assert sum(result["a"].values()) == 2  # marginal drops to zero after 2


def test_utility_bid_hands_the_utility_its_bundle_in_move_order():
    """SLAQ and Optimus sum effective compute in the bundle's order, so
    the adapter passes the app's bundle in move order: a machine new to
    it last, a held one grown in place."""
    seen = []

    def utility(bundle):
        seen.append(list(bundle.items()))
        return float(len(seen))

    bid = UtilityBid(utility, 8)
    held, key = {3: 1, 0: 2}, ((0, 2), (3, 1))  # grew on machine 3 first
    for machine_id, step in ((5, 1), (0, 1), (1, 2), (5, 1)):
        bid.value_after(held, key, machine_id, step)
    assert seen == [[(3, 1), (0, 2), (5, 1)], [(3, 1), (0, 3)], [(3, 1), (0, 2), (1, 2)]]


def test_a_gain_below_the_threshold_is_no_gain():
    """A utility growing by 1e-13 a GPU gains nothing: the additive
    key counts a gain only above 1e-12."""
    utilities = {"a": lambda b: 1e-13 * sum(b.values()), "b": lambda b: 1e-11 * sum(b.values())}
    assert utility_assign({0: 4}, utilities, {"a": 4, "b": 2}) == {"b": {0: 2}}
    assert rescan_utility_assign({0: 4}, utilities, {"a": 4, "b": 2}) == {"b": {0: 2}}


# ----------------------------------------------------------------------
# The incremental solver against the full-rescan reference
# ----------------------------------------------------------------------
def _additive(weights):
    return lambda b: math.fsum(weights[m % len(weights)] * c for m, c in b.items())


def _concave(weights):
    # Diminishing in the total, with a fixed cost per machine touched
    # (so a chunk on a new machine can beat a single GPU there).
    return lambda b: weights[0] * math.sqrt(sum(b.values())) - 0.125 * weights[1] * len(b)


def _non_monotone(weights):
    # Packing pays (convex per machine, so the chunk step beats step 1
    # and apps race for a machine's last GPUs), every GPU costs more
    # than the last: a lone GPU can lose where a chunk gains, and
    # growth stops short of the cap.
    return lambda b: (
        sum(c * c for c in b.values()) - 0.25 * weights[0] * sum(b.values()) ** 1.5
    )


def _integer_valued(weights):
    # Small integer values: whole groups of moves tie on gain exactly,
    # so the (step, app_id, machine_id) tie-break decides.
    return lambda b: float(sum((1 + (m + int(weights[0])) % 2) * c for m, c in b.items()))


_FAMILIES = (_additive, _concave, _non_monotone, _integer_valued)
_weights = st.lists(
    st.integers(min_value=0, max_value=12).map(lambda n: n / 4), min_size=2, max_size=3
)

# Utilities that declare machine classes, so the greedy scores one
# machine per class.  Speeds are not dyadic: a held machine's term
# grown in place and a new machine's term summed last round apart.
_SPEEDS = (0.1, 0.3, 0.7, 1.0, 1.3)
_CURVES = (
    lambda held, extra: math.sqrt(held + extra),
    lambda held, extra: min(3.0, held + extra),
    lambda held, extra: 2.0 * (held + extra) - 0.2 * (held + extra) ** 2,
    # Convex: a chunk gains more per GPU than one GPU does.
    lambda held, extra: (held + extra) ** 2,
)


@st.composite
def _effective_compute(draw):
    """SLAQ's and Optimus' utility over a random speed map."""
    speed_of = draw(st.dictionaries(st.integers(0, 7), st.sampled_from(_SPEEDS)))
    held = draw(st.sampled_from((0.0, 0.7, 2.0)))
    return _BundleUtility(draw(st.sampled_from(_CURVES)), held, speed_of)


def _packing(cluster, jobs, held):
    """Gandiva's utility of an app whose job ``i`` holds ``held[i]``
    ``(machine, gpus)`` (or nothing), through a valuation state built as
    Gandiva builds its states."""
    app = App(app_id="a", arrival_time=0.0, jobs=jobs)
    for job, (machine_id, gpus) in zip(jobs, held):
        take = cluster.machines[machine_id].gpus[:gpus]
        job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
    state = AppValuationState(
        app, FairnessEstimator(cluster), packing=GandivaScheduler.packing
    )
    state.refresh()
    return _PackingUtility(state)


@st.composite
def _rack_packing(draw):
    """Gandiva's utility on 8 machines of random racks and GPU types."""
    racks = draw(st.lists(st.integers(0, 2), min_size=8, max_size=8))
    kinds = draw(st.lists(st.sampled_from(("v100", "k80")), min_size=8, max_size=8))
    cluster = Cluster(
        Machine(
            machine_id=m,
            rack_id=rack,
            gpus=[
                Gpu(
                    gpu_id=8 * m + i,
                    machine_id=m,
                    rack_id=rack,
                    slot_id=i // 2,
                    gpu_type=GPU_TYPES[kind],
                )
                for i in range(8)
            ],
        )
        for m, (rack, kind) in enumerate(zip(racks, kinds))
    )
    jobs = [
        make_job(
            f"j{i}",
            model=draw(st.sampled_from(MODELS)),
            serial_work=draw(st.sampled_from((50.0, 100.0, 400.0))),
            max_parallelism=draw(st.integers(1, 6)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    machines = draw(st.lists(st.integers(0, 7), unique=True, max_size=len(jobs)))
    held = [(m, draw(st.integers(1, 2))) for m in machines]
    return _packing(cluster, jobs, held)


_UTILITIES = st.one_of(
    *[st.builds(family, _weights) for family in _FAMILIES],
    _effective_compute(),
    _rack_packing(),
)


def _order_market():
    """tests/test_shape_symmetry.py's 4.0-vs-5.2 rack market, for Gandiva.

    Racks are ``machine_id % 2``; the app holds 2 GPUs on machines 3
    (rack 1) and 4 (rack 0) and wants 2 more, for a third job.  Machines
    0, 2 and 6 are all rack 0 with 2 free, but 0 and 2 sort below the
    holdings and 6 above: only 6 leaves every job's GPUs packed well
    enough to gain, and a class without the position scores 6 as 0.
    """
    cluster = uniform_cluster(8, racks=2, name="order")
    jobs = [
        make_job("a-j0", model="transformer", serial_work=50.0, max_parallelism=2),
        make_job("a-j1", model="transformer", serial_work=100.0, max_parallelism=3),
        make_job("a-j2", model="transformer", serial_work=200.0, max_parallelism=2),
    ]
    utility = _packing(cluster, jobs, [(3, 2), (4, 2)])
    pool = {0: 2, 1: 2, 2: 2, 5: 2, 6: 2, 7: 2}
    return pool, {"a": utility}, {"a": 2}


@st.composite
def markets(draw):
    pool = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=6),
        )
    )
    app_ids = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=6))
    utilities = {a: draw(_UTILITIES) for a in app_ids}
    # Caps of 0, missing, and beyond the whole supply.
    caps = {
        a: draw(st.integers(min_value=0, max_value=sum(pool.values()) + 2))
        for a in app_ids
        if draw(st.integers(min_value=0, max_value=5))
    }
    return pool, utilities, caps


def _ordered(assignment):
    """The result with its dict orders, which ``concretise`` walks."""
    return [(a, list(bundle.items())) for a, bundle in assignment.items()]


@settings(max_examples=300, deadline=None)
@given(markets())
# The column re-score on its own: "a" takes 3 of machine 0's 5 GPUs, so
# "b"'s chunk there shrinks from 3 to 2 — a stale entry overdraws the pool.
@example(
    ({0: 5}, {"a": _non_monotone([0.0]), "b": _non_monotone([1.0])}, {"a": 3, "b": 3})
)
# Position in the shape class: machine 6 packs better than 0 and 2.
@example(_order_market())
# The step bound in the class: machine 1's chunk of 4 beats machine 0's
# one free GPU, at the same speed.
@example(({0: 1, 1: 4}, {"a": _BundleUtility(_CURVES[3], 0.0, {})}, {"a": 4}))
# A class whose first member stops gaining drops the others' entries:
# at 3 GPUs on machine 0 the capped curve is flat, and machine 2 must
# not keep the gain it had in the row before.
@example(({0: 4, 1: 4, 2: 4}, {"a": _BundleUtility(_CURVES[1], 0.0, {})}, {"a": 8}))
# A held machine is its own class: holding machine 0's GPU and one of
# machine 1's, a second there sums 1.0 + 2 * 0.1 in place, one on
# machine 2 (also 0.1) adds 0.1 last, and the two totals round apart.
@example(
    ({0: 1, 1: 3, 2: 2}, {"a": _BundleUtility(_CURVES[0], 0.0, {0: 1.0, 1: 0.1, 2: 0.1})}, {"a": 3})
)
def test_incremental_greedy_matches_rescan(market):
    pool, utilities, caps = market
    assert _ordered(utility_assign(pool, utilities, caps)) == _ordered(
        rescan_utility_assign(pool, utilities, caps)
    )


def test_position_splits_the_shape_class():
    """The order market's answer: the rack-0 machine above the holdings."""
    assert utility_assign(*_order_market()) == {"a": {6: 2}}


def test_gandiva_values_a_bundle_by_its_packing_score():
    """Gandiva's states carry the packing kernel: the utility of the
    holdings plus a bundle is the placement-weighted effective compute
    of the reference carve, not the aggregate rate."""
    cluster = uniform_cluster(6, racks=2, name="pack")
    jobs = [
        make_job("a-j0", model="vgg16", serial_work=50.0, max_parallelism=4),
        make_job("a-j1", model="resnet50", serial_work=80.0, max_parallelism=6),
    ]
    utility = _packing(cluster, jobs, [(0, 1)])
    state = utility.state
    rack_of = {machine.machine_id: machine.rack_id for machine in cluster.machines}
    for bundle in ({1: 3}, {0: 2, 2: 3}, {1: 2, 3: 2, 4: 2}):
        key = merge_keys(state.base_key, tuple(sorted(bundle.items())))
        carved, _ = _carve_reference(
            state.snapshot.job_tuples, dict(key), rack_of, cluster.machine_speeds()
        )
        assert utility(bundle) == _packing_score(carved)


def test_classed_row_scores_one_machine_per_class():
    """Eight equal machines: a row pass probes one of them, per step.

    The app takes one GPU (gain 1 beats sqrt(2) / 2 for the pair), then
    its row re-scores the machine it holds on its own, from what that
    pair remembers, and the seven others as one class.  Per-pair rows
    would ask for 24 effective computes.
    """
    extras = []

    def curve(held, extra):
        extras.append(extra)
        return math.sqrt(held + extra)

    utility = _BundleUtility(curve, 0.0, {})
    result = utility_assign({m: 4 for m in range(8)}, {"a": utility}, {"a": 2})
    assert result == {"a": {0: 2}}
    # {}, the class at steps 1 and 2, then the class at step 1.
    assert extras == [0, 1.0, 2.0, 2.0]


def _logged(calls, app_id, utility):
    def wrapped(bundle):
        calls.append((app_id, tuple(sorted(bundle.items()))))
        return utility(bundle)

    return wrapped


@settings(max_examples=200, deadline=None)
@given(markets())
def test_incremental_greedy_evaluates_no_bundle_twice(market):
    """Nor any bundle the rescan (whose memo spans the call) would not."""
    pool, utilities, caps = market
    calls, reference_calls = [], []
    for log, solve in (
        (calls, utility_assign),
        (reference_calls, rescan_utility_assign),
    ):
        solve(pool, {a: _logged(log, a, u) for a, u in utilities.items()}, caps)
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(reference_calls)


def test_incremental_greedy_evaluation_count_is_pinned():
    """Three apps on four machines, one of them at cap 0.

    Each distinct bundle once, as the rescan's memo did, minus the
    ``{}`` probe of the app that cannot move — the rescan makes 33.
    """
    calls = []
    utilities = {
        "a": _logged(calls, "a", _concave([4.0, 2.0])),
        "b": _logged(calls, "b", _additive([1.0, 0.75])),
        "c": _logged(calls, "c", _non_monotone([2.0])),
    }
    result = utility_assign({0: 4, 1: 2, 2: 3, 3: 1}, utilities, {"a": 6, "b": 0, "c": 4})
    assert result == {"a": {0: 1, 1: 2, 2: 3}, "c": {0: 3}}
    assert len(calls) == len(set(calls)) == 32


def test_incremental_greedy_leaves_untouched_pairs_alone():
    """A move costs evaluations on its own row and column only.

    ``a`` (worth 5 a GPU, cap 2) takes machine 0 one GPU at a time —
    exact ties go to the smaller step — then ``b`` fills in behind it.
    """
    calls = []
    utilities = {
        "a": _logged(calls, "a", lambda b: 5.0 * sum(b.values())),
        "b": _logged(calls, "b", lambda b: 1.0 * sum(b.values())),
    }
    result = utility_assign({0: 6, 1: 3}, utilities, {"a": 2, "b": 4})
    assert result == {"a": {0: 2}, "b": {0: 4}}
    first_scan = [
        ("a", ()), ("a", ((0, 1),)), ("a", ((0, 2),)), ("a", ((1, 1),)), ("a", ((1, 2),)),
        ("b", ()), ("b", ((0, 1),)), ("b", ((0, 4),)), ("b", ((1, 1),)), ("b", ((1, 3),)),
    ]
    assert calls[:10] == first_scan
    assert sorted(calls[10:]) == [
        # a's row after its first GPU: {0: 2} is remembered from the scan.
        # b is not asked again while a moves: its bundle is unchanged and
        # machine 0 keeps its chunk of 4 free.
        ("a", ((0, 1), (1, 1))),
        # b's own moves, {0: 4} remembered likewise.
        ("b", ((0, 1), (1, 1))),
        ("b", ((0, 1), (1, 3))),
        ("b", ((0, 2),)),
        ("b", ((0, 2), (1, 1))),
        ("b", ((0, 2), (1, 2))),
        ("b", ((0, 3),)),
        ("b", ((0, 3), (1, 1))),
    ]


def test_take_packed_prefers_preferred_machines(small_cluster):
    pool = group_pool(small_cluster.gpus)
    taken = take_packed(pool, 2, preferred_machines=[2])
    assert all(gpu.machine_id == 2 for gpu in taken)


def test_take_packed_drains_biggest_first(small_cluster):
    pool = group_pool(small_cluster.gpus)
    taken = take_packed(pool, 4)
    assert {gpu.machine_id for gpu in taken} == {0}


def test_take_packed_mutates_pool(small_cluster):
    pool = group_pool(small_cluster.gpus)
    take_packed(pool, 4)
    assert 0 not in pool
    remaining = sum(len(gpus) for gpus in pool.values())
    assert remaining == small_cluster.num_gpus - 4


def test_drainable_copy_leaves_the_pool_alone(small_cluster):
    pool = {m: tuple(gpus) for m, gpus in group_pool(small_cluster.gpus).items()}
    copy = drainable(pool)
    take_packed(copy, 6)
    assert sum(len(gpus) for gpus in pool.values()) == small_cluster.num_gpus
    assert {m: list(gpus) for m, gpus in pool.items()} == group_pool(small_cluster.gpus)


def test_take_packed_partial_when_pool_small(small_cluster):
    pool = group_pool(small_cluster.gpus[:3])
    taken = take_packed(pool, 10)
    assert len(taken) == 3
    assert not pool
