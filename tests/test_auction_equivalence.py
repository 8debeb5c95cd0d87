"""Property tests: the lazy-greedy solver is byte-identical to the rescan.

The lazy heap's staleness invariant (see :mod:`repro.core.auction`'s
module docstring) promises the heap minimum is always an exact argmin,
so the lazy solver must replay the pre-refactor full rescan's move
sequence — and therefore its assignments, payments and leftovers —
*exactly*, on every instance, including the warm-started ``without_i``
payment re-solves.  These tests check that over hundreds of randomised
(pool, bids) instances, and sanity-check both against the exhaustive
max-Nash-welfare reference on small instances.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import (
    PartialAllocationAuction,
    exhaustive_nash_allocation,
    rescan_fair_allocation,
)
from repro.core.bids import build_bid
from repro.core.fairness import FairnessEstimator

from helpers import make_app, rescan_auction


def random_instance(rng: random.Random, max_machines: int = 6, max_apps: int = 5):
    """One seeded (pool, bid-factory) instance.

    The factory returns *fresh* bids on each call so the two solvers
    under comparison never share warmed valuation caches.
    """
    machines = rng.randint(1, max_machines)
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=(
                MachineSpec(count=machines, gpus_per_machine=rng.randint(1, 6)),
            ),
            num_racks=rng.randint(1, 2),
            name="prop",
        )
    )
    estimator = FairnessEstimator(cluster)
    pool = {
        machine.machine_id: rng.randint(0, machine.num_gpus)
        for machine in cluster.machines
    }
    pool = {m: c for m, c in pool.items() if c > 0}
    specs = [
        (
            f"a{i}",
            rng.randint(1, 4),
            rng.randint(1, 4),
            rng.uniform(0.0, 120.0),
            rng.uniform(10.0, 300.0),
        )
        for i in range(rng.randint(1, max_apps))
    ]

    def bids_factory():
        bids = {}
        for app_id, num_jobs, parallelism, elapsed, work in specs:
            app = make_app(
                app_id=app_id,
                num_jobs=num_jobs,
                max_parallelism=parallelism,
                serial_work=work,
            )
            bids[app_id] = build_bid(app, estimator, now=elapsed, offered_counts=pool)
        return bids

    return pool, bids_factory


@pytest.mark.parametrize("chunk_size", [1, 2, 4])
def test_lazy_matches_rescan_on_many_instances(chunk_size):
    """>=200 seeded instances per chunk size: full outcomes identical."""
    rng = random.Random(20260729 + chunk_size)
    for _ in range(200):
        pool, bids_factory = random_instance(rng)
        if not pool:
            continue
        fast = PartialAllocationAuction(chunk_size=chunk_size).run(
            pool, bids_factory()
        )
        reference = rescan_auction(chunk_size=chunk_size).run(pool, bids_factory())
        assert fast.winners == reference.winners
        assert fast.proportional_fair == reference.proportional_fair
        assert fast.payments == reference.payments
        assert fast.leftover == reference.leftover
        assert fast.nash_log_welfare == reference.nash_log_welfare


def test_lazy_matches_rescan_without_hidden_payments():
    rng = random.Random(99)
    for _ in range(50):
        pool, bids_factory = random_instance(rng)
        if not pool:
            continue
        fast = PartialAllocationAuction().run(
            pool, bids_factory(), apply_hidden_payments=False
        )
        reference = rescan_auction().run(
            pool, bids_factory(), apply_hidden_payments=False
        )
        assert fast.winners == reference.winners
        assert fast.payments == reference.payments


def test_lazy_pf_assignment_matches_rescan_function():
    """The bare solver entry point agrees with the reference function."""
    rng = random.Random(7)
    for _ in range(100):
        pool, bids_factory = random_instance(rng)
        if not pool:
            continue
        lazy = PartialAllocationAuction().proportional_fair_allocation(
            pool, bids_factory()
        )
        rescan = rescan_fair_allocation(pool, bids_factory())
        assert lazy == rescan


def _welfare_key(bids, assignment):
    """Lexicographic (positive apps, log product) max-Nash-welfare key."""
    positive = 0
    log_product = 0.0
    for app_id, bid in bids.items():
        value = bid.value_of(assignment.get(app_id, {}))
        if value > 0:
            positive += 1
            log_product += math.log(value)
    return positive, log_product


def test_lazy_matches_exhaustive_on_small_instances():
    """On tiny instances the greedy must track the exhaustive optimum:
    same count of positive-value apps, log-welfare within 5%."""
    rng = random.Random(4242)
    checked = 0
    while checked < 25:
        pool, bids_factory = random_instance(rng, max_machines=2, max_apps=3)
        pool = {m: min(c, 3) for m, c in pool.items()}
        pool = {m: c for m, c in pool.items() if c > 0}
        if not pool:
            continue
        bids = bids_factory()
        try:
            exact = exhaustive_nash_allocation(pool, bids, max_states=50_000)
        except ValueError:
            continue
        greedy = PartialAllocationAuction(chunk_size=2).proportional_fair_allocation(pool, bids)
        g_pos, g_log = _welfare_key(bids, greedy)
        e_pos, e_log = _welfare_key(bids, exact)
        assert g_pos == e_pos
        assert g_log >= e_log - 0.05
        checked += 1


def test_warm_start_prefix_is_validated_against_cold_resolve():
    """Payment fractions from warm-started re-solves equal cold ones."""
    rng = random.Random(31337)
    for _ in range(40):
        pool, bids_factory = random_instance(rng)
        if not pool:
            continue
        auction = PartialAllocationAuction()
        bids = bids_factory()
        pf, full_moves = auction._solve(pool, bids)
        for app_id in sorted(bids):
            if not pf.get(app_id):
                continue
            warm = auction._payment_fraction(app_id, pool, bids, pf, full_moves)
            cold = auction._payment_fraction(app_id, pool, bids, pf, ())
            assert warm == cold
