"""Property-based tests (hypothesis) on core invariants.

The carve's conservation bounds and the auction's §5.1 invariants are
asserted with their oracles, over the shared generators of
``tests/helpers.py``: tests/test_incremental_valuation.py and
tests/test_auction_equivalence.py.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.hyperparam.curves import LossCurve
from repro.metrics.fairness import jain_index
from repro.metrics.jct import cdf, percentile
from repro.simulation.engine import SimulationEngine

CLUSTER = build_cluster(
    ClusterSpec(
        machine_specs=(
            MachineSpec(count=3, gpus_per_machine=4),
            MachineSpec(count=2, gpus_per_machine=2),
        ),
        num_racks=2,
        name="prop",
    )
)

gpu_indices = st.lists(
    st.integers(min_value=0, max_value=CLUSTER.num_gpus - 1), max_size=10
)


# ----------------------------------------------------------------------
# Allocation algebra
# ----------------------------------------------------------------------
@given(gpu_indices, gpu_indices)
def test_allocation_union_commutes(ids_a, ids_b):
    a = Allocation(CLUSTER.gpu(i) for i in ids_a)
    b = Allocation(CLUSTER.gpu(i) for i in ids_b)
    assert (a | b) == (b | a)
    assert (a | b).size <= a.size + b.size


@given(gpu_indices, gpu_indices)
def test_allocation_difference_disjoint(ids_a, ids_b):
    a = Allocation(CLUSTER.gpu(i) for i in ids_a)
    b = Allocation(CLUSTER.gpu(i) for i in ids_b)
    diff = a - b
    assert not diff.gpu_ids & b.gpu_ids
    assert (diff | (a - diff)) == a


@given(gpu_indices)
def test_allocation_score_in_range(ids):
    alloc = Allocation(CLUSTER.gpu(i) for i in ids)
    score = alloc.score()
    assert score == 0.0 if not alloc else 0.25 <= score <= 1.0


# ----------------------------------------------------------------------
# Loss curves
# ----------------------------------------------------------------------
curve_params = st.tuples(
    st.floats(min_value=1.0, max_value=10.0),  # initial above floor
    st.floats(min_value=0.0, max_value=0.9),  # floor
    st.floats(min_value=0.1, max_value=2.0),  # alpha
)


@given(curve_params, st.floats(min_value=0.0, max_value=1e6))
def test_loss_curve_monotone_and_bounded(params, iteration):
    spread, floor, alpha = params
    curve = LossCurve(initial=floor + spread, floor=floor, alpha=alpha)
    loss = curve.loss_at(iteration)
    assert floor <= loss <= curve.initial
    assert curve.loss_at(iteration + 100.0) <= loss + 1e-12


@given(curve_params, st.floats(min_value=0.05, max_value=0.95))
def test_loss_curve_inversion_roundtrip(params, fraction):
    spread, floor, alpha = params
    curve = LossCurve(initial=floor + spread, floor=floor, alpha=alpha)
    target = floor + fraction * spread
    iterations = curve.iterations_to(target)
    if not math.isinf(iterations):
        assert curve.loss_at(iterations) <= target + 1e-6


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
positive_floats = st.lists(
    st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=30
)


@given(positive_floats)
def test_jain_index_bounds(values):
    index = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


@given(positive_floats)
def test_cdf_is_monotone_and_complete(values):
    points = cdf(values)
    assert points[-1][1] == 1.0
    xs = [p[0] for p in points]
    fs = [p[1] for p in points]
    assert xs == sorted(xs)
    assert fs == sorted(fs)


@given(positive_floats, st.floats(min_value=0, max_value=100))
def test_percentile_within_range(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)


# ----------------------------------------------------------------------
# Engine determinism
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_engine_fires_in_nondecreasing_time_order(times):
    engine = SimulationEngine()
    fired = []
    for t in times:
        engine.schedule(t, lambda e, ev: fired.append(e.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
