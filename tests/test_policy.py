"""Tests for the exact offline max-min fairness solver (Section 4)."""

import math

import pytest

from repro.core.auction import PartialAllocationAuction
from repro.core.bids import Bid
from repro.core.fairness import FairnessEstimator
from repro.core.policy import solve_offline_max_min

from helpers import make_app


@pytest.fixture
def estimator(small_cluster):
    return FairnessEstimator(small_cluster)


def test_single_app_gets_everything_useful(estimator):
    app = make_app("solo", num_jobs=1, max_parallelism=4)
    solution = solve_offline_max_min([app], {0: 4}, estimator, now=10.0)
    assert sum(solution.allocation["solo"].values()) == 4
    assert not math.isinf(solution.max_rho)


def test_symmetric_apps_split_evenly(estimator):
    apps = [make_app(f"a{i}", num_jobs=1, max_parallelism=2) for i in range(2)]
    solution = solve_offline_max_min(apps, {0: 2, 2: 2}, estimator, now=10.0)
    sizes = sorted(sum(b.values()) for b in solution.allocation.values())
    assert sizes == [2, 2]
    rhos = list(solution.rhos.values())
    assert rhos[0] == pytest.approx(rhos[1], rel=1e-9)


def test_minimises_the_maximum(estimator):
    # A long-waiting app and a fresh one: the solver must not leave the
    # waiter starved even if serving the fresh app alone yields a
    # better product.
    waiter = make_app("waiter", num_jobs=1, arrival=0.0, max_parallelism=2)
    fresh = make_app("fresh", num_jobs=1, arrival=99.0, max_parallelism=2)
    solution = solve_offline_max_min(
        [waiter, fresh], {0: 2}, estimator, now=100.0
    )
    assert sum(solution.allocation.get("waiter", {}).values()) >= 1
    assert not math.isinf(solution.max_rho)


def test_online_auction_close_to_offline_optimum(estimator):
    """The PA auction's max rho stays near the exact offline solution."""
    apps = [
        make_app("x", num_jobs=1, arrival=0.0, max_parallelism=2),
        make_app("y", num_jobs=2, arrival=20.0, max_parallelism=2),
    ]
    pool = {0: 2, 2: 2}
    offline = solve_offline_max_min(apps, pool, estimator, now=50.0)
    bids = {
        app.app_id: Bid(app, estimator, now=50.0, offered_counts=pool)
        for app in apps
    }
    outcome = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False)
    online_rhos = []
    for app in apps:
        bundle = outcome.winners.get(app.app_id, {})
        online_rhos.append(estimator.rho(app, 50.0, bundle))
    assert max(online_rhos) <= offline.max_rho * 1.3


def test_state_explosion_guard(estimator):
    apps = [make_app(f"a{i}", num_jobs=1) for i in range(4)]
    with pytest.raises(ValueError):
        solve_offline_max_min(
            apps, {m: 4 for m in range(4)}, estimator, max_states=50
        )


def test_no_apps_rejected(estimator):
    with pytest.raises(ValueError):
        solve_offline_max_min([], {0: 2}, estimator)
