"""Unit tests for bid construction and valuation tables."""

import math

import pytest

from repro.cluster.allocation import Allocation
from repro.core.agent import Agent
from repro.core.bids import Bid, _noise_factor
from repro.core.fairness import AppValuationState, FairnessEstimator

from helpers import make_app


@pytest.fixture
def estimator(small_cluster):
    return FairnessEstimator(small_cluster)


def test_bid_current_rho_inf_when_starved(estimator):
    app = make_app()
    bid = Bid(app, estimator, now=10.0, offered_counts={0: 4})
    assert math.isinf(bid.current_rho)
    assert bid.value_of({}) == 0.0


def test_bid_value_improves_with_gpus(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 4})
    assert bid.value_of({0: 4}) > bid.value_of({0: 2}) > bid.value_of({})


def test_bid_rejects_overdraw(estimator):
    app = make_app()
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 2})
    with pytest.raises(ValueError):
        bid.rho_of({0: 3})
    with pytest.raises(ValueError):
        bid.rho_of({5: 1})


def test_bid_demand_is_unmet_demand(estimator):
    app = make_app(num_jobs=3, max_parallelism=4)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 4})
    assert bid.demand == 12


def test_table_contains_empty_and_per_machine_rows(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 2, 2: 2})
    table = bid.table()
    bundles = {entry.bundle for entry in table}
    assert () in bundles  # the "no new allocation" row of Figure 3(b)
    assert ((0, 1),) in bundles
    assert ((0, 2),) in bundles
    assert ((2, 2),) in bundles


def test_table_respects_max_entries(estimator):
    app = make_app(num_jobs=4, max_parallelism=4)
    bid = Bid(
        app, estimator, now=0.0, offered_counts={0: 4, 1: 2, 2: 4, 3: 2}
    )
    table = bid.table(max_entries=5)
    assert len(table) <= 5


def test_table_entries_have_consistent_values(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 4})
    for entry in bid.table():
        if math.isinf(entry.rho):
            assert entry.value == 0.0
        else:
            assert entry.value == pytest.approx(1.0 / entry.rho)


def test_noise_zero_means_exact(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    exact = Bid(app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.0)
    noisy = Bid(
        app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.2, noise_salt=1
    )
    rho_exact = exact.rho_of({0: 2})
    rho_noisy = noisy.rho_of({0: 2})
    assert rho_noisy != rho_exact
    assert abs(rho_noisy - rho_exact) / rho_exact <= 0.2 + 1e-9


def test_noise_errs_both_ways_within_theta(estimator):
    app = make_app(num_jobs=2, max_parallelism=4)
    offer = {0: 4, 1: 4, 2: 2, 3: 2}
    exact = Bid(app, estimator, now=5.0, offered_counts=offer)
    noisy = Bid(
        app, estimator, now=5.0, offered_counts=offer, noise_theta=0.2, noise_salt=3
    )
    bundles = [{m: c} for m, free in offer.items() for c in range(1, free + 1)]
    factors = [noisy.rho_of(bundle) / exact.rho_of(bundle) for bundle in bundles]
    assert min(factors) < 1.0 < max(factors)
    assert all(0.8 - 1e-9 <= factor <= 1.2 + 1e-9 for factor in factors)


def test_bundles_on_held_machines_add_to_the_holdings(small_cluster, estimator):
    """A bid prices holdings plus bundle, summed per machine, exactly
    as the estimator's own merge does."""
    app = make_app(num_jobs=2, max_parallelism=4)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.machines[0].gpus[:1]))
    bid = Bid(app, estimator, now=5.0, offered_counts={0: 3, 2: 2})
    for bundle in ({0: 2}, {0: 3, 2: 1}):
        assert bid.rho_of(bundle) == estimator.rho(app, 5.0, bundle)


@pytest.mark.parametrize("theta", [0.0, 0.2])
def test_bid_after_a_probe_prices_the_empty_bundle_as_a_fresh_state(
    small_cluster, estimator, theta
):
    """The round probes an agent, then asks it for a bid at the same
    instant: the bid refreshes the state the probe just drifted, and its
    empty-bundle rho equals a fresh state's, under the bid's own noise."""
    app = make_app(num_jobs=2, max_parallelism=4)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.machines[0].gpus[:2]))
    agent = Agent(AppValuationState(app, estimator), noise_theta=theta)
    offer = {1: 4, 2: 2}
    for salt, now in enumerate((5.0, 10.0, 15.0), start=1):
        app.jobs[0].remaining_work -= 3.0  # a drain between rounds
        agent.report_rho(now, salt)
        bid = agent.prepare_bid(now, offer, salt)
        fresh = Bid(
            app, FairnessEstimator(small_cluster), now, offer, noise_theta=theta,
            noise_salt=salt,
        )
        assert bid.current_rho == fresh.current_rho == bid.rho_of({})
        noise = _noise_factor(salt, app.app_id, (), theta)
        assert bid.current_rho == estimator.rho(app, now, {}) * noise
    assert estimator.rebuild_count == 1  # every round took the drift path


def test_noise_deterministic_within_auction(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    a = Bid(app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.1, noise_salt=7)
    b = Bid(app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.1, noise_salt=7)
    assert a.rho_of({0: 2}) == b.rho_of({0: 2})


def test_noise_varies_across_salts(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    a = Bid(app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.1, noise_salt=1)
    b = Bid(app, estimator, now=0.0, offered_counts={0: 4}, noise_theta=0.1, noise_salt=2)
    assert a.rho_of({0: 2}) != b.rho_of({0: 2})


def test_starved_rho_not_noised(estimator):
    app = make_app()
    bid = Bid(app, estimator, now=5.0, offered_counts={0: 4}, noise_theta=0.2)
    assert math.isinf(bid.rho_of({}))


def test_zero_rho_value_clamped_to_finite_ceiling(estimator):
    """rho <= 0 (all work done at arrival) must not produce an inf value:
    the auction's greedy gains and nash_log_welfare take log(V)."""
    from repro.core.fairness import VALUE_CEILING

    app = make_app(num_jobs=2)
    for job in app.jobs:
        job.kill(0.0)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 4})
    assert bid.rho_of({}) == 0.0
    value = bid.value_of({})
    assert value == VALUE_CEILING
    assert math.isfinite(value)
    assert math.isfinite(math.log(value))


def test_table_values_come_from_the_one_conversion(estimator):
    """The table prices a rho-0 row like ``value_of`` does, not ``1/0``:
    an app whose only job was killed at its arrival instant."""
    from repro.core.fairness import VALUE_CEILING

    app = make_app(num_jobs=1)
    app.jobs[0].kill(0.0)
    bid = Bid(app, estimator, now=0.0, offered_counts={0: 4})
    table = bid.table()
    assert [entry.rho for entry in table] == [0.0, 0.0]
    assert [entry.value for entry in table] == [VALUE_CEILING, VALUE_CEILING]
    assert all(entry.value == bid.value_of(dict(entry.bundle)) for entry in table)


def test_injected_zero_rho_bundle_clamped(estimator):
    """Any bundle whose (possibly noisy) rho degenerates to <= 0 clamps."""
    from repro.core.fairness import VALUE_CEILING

    app = make_app(num_jobs=2, max_parallelism=2)
    bid = Bid(app, estimator, now=10.0, offered_counts={0: 4})
    bid._rho_cache[((0, 2),)] = 0.0
    assert bid.value_of({0: 2}) == VALUE_CEILING
    # The clamped value must be cached and stable.
    assert bid.value_of({0: 2}) == VALUE_CEILING


def test_value_cache_shared_across_probes(estimator):
    app = make_app(num_jobs=2, max_parallelism=2)
    bid = Bid(app, estimator, now=10.0, offered_counts={0: 4})
    before = bid.rho_probes
    first = bid.value_of({0: 2})
    probes_after_first = bid.rho_probes
    assert probes_after_first == before + 1
    assert bid.value_of({0: 2}) == first
    assert bid.value_from_key(((0, 2),)) == first
    assert bid.rho_probes == probes_after_first  # all cache hits
    assert bid.rho_lookups >= probes_after_first
