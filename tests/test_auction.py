"""Unit tests for the partial-allocation auction mechanism."""

import math

import pytest

from repro.core.auction import (
    PartialAllocationAuction,
    exhaustive_nash_allocation,
)
from repro.core.bids import Bid
from repro.core.fairness import FairnessEstimator, extend_key

from helpers import make_app


@pytest.fixture
def estimator(small_cluster):
    return FairnessEstimator(small_cluster)


def bids_for(estimator, offered, specs):
    """Build bids for apps described as (app_id, num_jobs, elapsed)."""
    out = {}
    for app_id, num_jobs, elapsed in specs:
        app = make_app(app_id=app_id, num_jobs=num_jobs, max_parallelism=2)
        out[app_id] = Bid(app, estimator, now=elapsed, offered_counts=offered)
    return out


def assert_within_pool(outcome, pool):
    used: dict[int, int] = {}
    for bundle in outcome.winners.values():
        for machine_id, count in bundle.items():
            used[machine_id] = used.get(machine_id, 0) + count
    for machine_id, count in used.items():
        assert count <= pool.get(machine_id, 0)


def test_empty_pool_or_no_bids():
    auction = PartialAllocationAuction()
    outcome = auction.run({}, {})
    assert outcome.winners == {}
    assert outcome.total_leftover == 0


def test_single_bidder_keeps_whole_allocation(estimator):
    pool = {0: 4}
    bids = bids_for(estimator, pool, [("a", 2, 10.0)])
    outcome = PartialAllocationAuction().run(pool, bids)
    # No competitors: c = 1, no hidden payment.
    assert outcome.payments["a"] == pytest.approx(1.0)
    assert sum(outcome.winners["a"].values()) == 4
    assert outcome.total_leftover == 0


def test_a_winner_bundle_larger_than_the_pool_raises(estimator):
    """The over-allocation guard fires: a solver that hands out more
    GPUs on a machine than the pool holds is an invariant violation."""

    class OverAllocating(PartialAllocationAuction):
        def _solve(self, pool, bids, exclude=None, resume=None, checkpoints=None, stats=None):
            assignment = {app_id: {0: pool[0] + 1} for app_id in bids if app_id != exclude}
            return assignment, [], {app_id: 1.0 for app_id in assignment}

    # The bid was offered more than the pool holds, so it can price
    # the oversized bundle.
    bids = bids_for(estimator, {0: 4}, [("a", 2, 10.0)])
    with pytest.raises(RuntimeError, match="over-allocated"):
        OverAllocating().run({0: 2}, bids)


def test_allocations_are_disjoint_and_within_pool(estimator):
    pool = {0: 4, 1: 2, 2: 4}
    bids = bids_for(
        estimator, pool, [("a", 3, 30.0), ("b", 2, 20.0), ("c", 2, 10.0)]
    )
    outcome = PartialAllocationAuction().run(pool, bids)
    assert_within_pool(outcome, pool)
    allocated = outcome.total_allocated + outcome.total_leftover
    assert allocated == sum(pool.values())


def test_payments_between_zero_and_one(estimator):
    pool = {0: 4, 2: 2}
    bids = bids_for(estimator, pool, [("a", 2, 30.0), ("b", 2, 30.0)])
    outcome = PartialAllocationAuction().run(pool, bids)
    for c in outcome.payments.values():
        assert 0.0 <= c <= 1.0


def test_hidden_payments_withhold_gpus(estimator):
    # Two symmetric contenders on a contended pool: each imposes an
    # externality on the other, so c < 1 and some GPUs are withheld.
    pool = {0: 4}
    bids = bids_for(estimator, pool, [("a", 2, 30.0), ("b", 2, 30.0)])
    outcome = PartialAllocationAuction().run(pool, bids)
    assert outcome.total_leftover > 0
    for app_id, c in outcome.payments.items():
        if outcome.proportional_fair.get(app_id):
            assert c < 1.0


def test_disable_hidden_payments(estimator):
    pool = {0: 4}
    bids = bids_for(estimator, pool, [("a", 2, 30.0), ("b", 2, 30.0)])
    outcome = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False)
    assert outcome.total_leftover == 0
    assert all(c == 1.0 for c in outcome.payments.values())


def test_leftover_fraction_bounded(estimator):
    """PA guarantees at most 1/e of resources withheld in the worst case;
    the paper observes much less in practice.  Allow the theoretical bound."""
    pool = {0: 4, 1: 2, 2: 4, 3: 2}
    bids = bids_for(
        estimator, pool, [("a", 3, 40.0), ("b", 3, 30.0), ("c", 2, 20.0)]
    )
    outcome = PartialAllocationAuction().run(pool, bids)
    assert outcome.total_leftover <= math.ceil(sum(pool.values()) / math.e) + 1


def test_starved_apps_win_first(estimator):
    # App "starving" has been waiting 100 minutes with nothing; app
    # "fresh" just arrived.  Max-Nash-welfare rescues the starved app.
    pool = {0: 2}
    bids = bids_for(estimator, pool, [("starving", 1, 100.0), ("fresh", 1, 0.1)])
    pf = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False).proportional_fair
    assert sum(pf.get("starving", {}).values()) >= 1


def test_demand_caps_respected(estimator):
    pool = {0: 4, 1: 2, 2: 4, 3: 2}
    bids = bids_for(estimator, pool, [("a", 1, 10.0)])  # demand = 2
    outcome = PartialAllocationAuction().run(pool, bids)
    assert sum(outcome.winners["a"].values()) <= 2


def test_greedy_matches_exhaustive_on_small_instance(estimator):
    pool = {0: 2, 2: 2}
    bids = bids_for(estimator, pool, [("a", 1, 20.0), ("b", 1, 20.0)])
    greedy = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False).proportional_fair
    exact = exhaustive_nash_allocation(pool, bids)

    def welfare(assignment):
        positive = 0
        log_product = 0.0
        for app_id, bid in bids.items():
            value = bid.value_of(assignment.get(app_id, {}))
            if value > 0:
                positive += 1
                log_product += math.log(value)
        return positive, log_product

    g_pos, g_log = welfare(greedy)
    e_pos, e_log = welfare(exact)
    assert g_pos == e_pos
    assert g_log >= e_log - 0.05  # within 5% log-welfare of optimal


def test_exhaustive_guards_state_explosion(estimator):
    pool = {m: 4 for m in range(10)}
    bids = bids_for(estimator, pool, [("a", 2, 1.0), ("b", 2, 1.0), ("c", 2, 1.0)])
    with pytest.raises(ValueError):
        exhaustive_nash_allocation(pool, bids, max_states=100)


def test_shrink_bundle_drops_fragmented_machines_first():
    auction = PartialAllocationAuction()
    bundle = {0: 4, 1: 1, 2: 2}
    shrunk = auction._shrink_bundle(bundle, keep=5)
    # The singleton machine goes first, then the pair.
    assert shrunk == {0: 4, 2: 1}
    assert sum(shrunk.values()) == 5


def test_shrink_bundle_noop_when_keep_covers():
    auction = PartialAllocationAuction()
    bundle = {0: 3}
    assert auction._shrink_bundle(bundle, keep=3) == {0: 3}
    assert auction._shrink_bundle(bundle, keep=5) == {0: 3}


class TableBid:
    """A bid priced from a table: values no carve produces, to pin the
    solver's tie-breaks on exact ties."""

    noise_theta = 0.0
    _estimator = None

    def __init__(self, demand, values):
        self.demand = demand
        self.values = values
        self._pair_memo = {}

    def value_from_key(self, key):
        return self.values[key]

    def value_after(self, held, key, machine_id, step):
        return self.values[extend_key(key, machine_id, step)]

    def row(self, held, key, remaining, cap):
        return None  # every machine its own class

    def value_of(self, bundle):
        return self.values[tuple(sorted(bundle.items()))]


def test_an_exact_gain_tie_goes_to_the_smaller_step():
    """(log 4 - log 1) / 2 == log 2 - log 1 in floating point, so one
    and two GPUs of machine 0 tie on log gain per GPU; like the rescan
    solver's key, the lazy solver's takes the smaller step."""
    assert (math.log(4.0) - math.log(1.0)) / 2 == math.log(2.0) - math.log(1.0)
    bids = {"a": TableBid(2, {(): 1.0, ((0, 1),): 2.0, ((0, 2),): 4.0})}
    _, moves, _ = PartialAllocationAuction()._solve({0: 2}, bids)
    assert moves == [("a", 0, 1, 2.0), ("a", 0, 1, 4.0)]
