"""The lazy-greedy solver against its one reference, on one market generator.

The lazy heap's staleness invariant, the bound-gated pair memo and the
class-grouped rows (:mod:`repro.core.auction`'s module docstring) each
change *how often* a score is computed, never which move is applied:
the production solver must replay the full-rescan reference
(``helpers.RescanAuction``) byte for byte — assignments, payments
(``without_i`` re-solves resumed from the full solve's heap included),
leftovers, welfare.  One property holds the whole ``run()`` outcome to
it over ``helpers.markets`` (every fleet, pool width, semantics, noise
level and payment mode) together with the §5.1 invariants.

Pinned beside it: that the reductions engage on a wide market (scalar
and ``rate-inversion``, both semantics), the non-monotone-gain
counterexample that rules out plain lazy-CELF stale-heap
re-validation, resumed payment re-solves against cold ones, the
greedy against the exhaustive max-Nash-welfare optimum on tiny
markets, and a whole replay on the reference.
"""

from __future__ import annotations

import dataclasses
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.bids as bids_module
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster, ordered_sum
from repro.core.auction import (
    _MEMO_MISS,
    AuctionSolveStats,
    NashWelfare,
    OfferCounts,
    PartialAllocationAuction,
    _score_pair,
    exhaustive_nash_allocation,
    greedy_solve,
    offer_counts,
)
from repro.core.bids import Bid
from repro.core.fairness import FairnessEstimator
from repro.workload.app import CompletionSemantics
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import Market, RescanAuction, make_app, markets, simulator, uniform_cluster


@settings(max_examples=150, deadline=None)
@given(market=markets())
def test_lazy_matches_rescan_on_many_instances(market):
    pool, payments = market.pool, market.hidden_payments
    bids = market.bids()
    outcome = PartialAllocationAuction().run(pool, bids, payments)
    # AuctionOutcome equality: proportional_fair, payments, winners,
    # leftover, participants and nash_log_welfare, floats included.
    assert outcome == RescanAuction().run(pool, market.bids(), payments)
    # §5.1: winners keep part of their proportional-fair bundle, within
    # their demand; winners and leftovers partition the pool.
    used: dict[int, int] = {}
    for app_id, bundle in outcome.winners.items():
        assert sum(bundle.values()) <= bids[app_id].demand
        for machine_id, count in bundle.items():
            assert 0 < count <= outcome.proportional_fair[app_id][machine_id]
            used[machine_id] = used.get(machine_id, 0) + count
    assert all(count <= pool[machine_id] for machine_id, count in used.items())
    assert outcome.total_allocated + outcome.total_leftover == sum(pool.values())
    assert all(0.0 <= fraction <= 1.0 for fraction in outcome.payments.values())


class ValueAskingAuction(PartialAllocationAuction):
    """The lazy solver, with every solved bundle's value asked of its bid
    again instead of handed back by the solve."""

    def _solve(self, pool, bids, exclude=None, resume=None, checkpoints=None, stats=None):
        assignment, moves, _ = super()._solve(pool, bids, exclude, resume, checkpoints, stats)
        return assignment, moves, {a: bids[a].value_of(b) for a, b in assignment.items()}


def _float_bits(outcome):
    """The outcome's floats as bit patterns (``==`` equates 0.0 and -0.0)."""
    return outcome.nash_log_welfare.hex(), sorted(
        (app_id, fraction.hex()) for app_id, fraction in outcome.payments.items()
    )


@pytest.mark.parametrize("noise_theta", [0.0, 0.2])
@pytest.mark.parametrize("classed", [False, True], ids=["per-machine-pool", "class-pool"])
@settings(max_examples=40, deadline=None)
@given(market=markets())
def test_the_solves_values_are_the_bids_values(market, noise_theta, classed):
    """The values the solves hand back (proportional-fair, without-i and
    kept) give the outcome a run asking every bundle's value again gives,
    and the rescan reference's, ``nash_log_welfare`` bits included: with
    and without noise, on pools below and at :data:`_CLASS_MIN_POOL`
    machines (per-machine rows, class rows)."""
    assume((len(offer_counts(market.pool)) >= bids_module._CLASS_MIN_POOL) == classed)
    market = dataclasses.replace(market, noise_theta=noise_theta)
    pool, payments = market.pool, market.hidden_payments
    outcome = PartialAllocationAuction().run(pool, market.bids(), payments)
    for reference in (ValueAskingAuction(), RescanAuction()):
        again = reference.run(pool, market.bids(), payments)
        assert again == outcome
        assert _float_bits(again) == _float_bits(outcome)
    # The welfare is of what each participant keeps, a shrunk bundle
    # valued anew.
    bids = market.bids()
    kept = [bids[a].value_of(outcome.winners.get(a, {})) for a in outcome.participants]
    welfare = float(ordered_sum(math.log(max(value, 1e-12)) for value in kept))
    assert outcome.nash_log_welfare.hex() == welfare.hex()


@settings(max_examples=80, deadline=None)
@given(markets(), st.randoms(use_true_random=False))
def test_any_pool_order_solves_as_the_canonical_offer(market, rng):
    """The offer vector has one canonical form: a copy of the pool in
    shuffled machine order, padded with a zero count for every machine
    of the cluster it leaves out, runs the mechanism and the greedy
    exactly as the canonical vector does, and ``offer_counts`` hands a
    canonical vector back as it is."""
    canonical = offer_counts(market.pool)
    assert type(canonical) is OfferCounts
    assert list(canonical.items()) == sorted(
        (m, c) for m, c in market.pool.items() if c > 0
    )
    assert offer_counts(canonical) is canonical
    padded = {m.machine_id: 0 for m in market.estimator.cluster.machines}
    padded.update(market.pool)
    items = list(padded.items())
    rng.shuffle(items)
    shuffled = dataclasses.replace(market, pool=dict(items))
    assert offer_counts(shuffled.pool) == canonical
    auction = PartialAllocationAuction()
    outcome = auction.run(canonical, market.bids(), market.hidden_payments)
    assert auction.run(shuffled.pool, shuffled.bids(), market.hidden_payments) == outcome
    assert list(outcome.leftover) == sorted(outcome.leftover)
    solved = greedy_solve(canonical, market.bids(), NashWelfare)
    assert greedy_solve(shuffled.pool, shuffled.bids(), NashWelfare) == solved


def wide_market(fleet: str, semantics, noise_theta: float) -> Market:
    """36 machines in 3 racks — one GPU type, or 12 each of three under
    the ``rate-inversion`` matrix; one app holds GPUs on a pool machine."""
    if fleet == "homogeneous":
        specs, perf_model = (MachineSpec(count=36, gpus_per_machine=4),), None
    else:
        specs = tuple(
            MachineSpec(count=12, gpus_per_machine=4, gpu_type=GPU_TYPES[kind])
            for kind in ("v100", "p100", "k80")
        )
        perf_model = ThroughputMatrixModel(PERF_MATRIX_PRESETS[fleet])
    cluster = build_cluster(ClusterSpec(machine_specs=specs, num_racks=3, name="wide"))
    apps = [
        make_app("a0", num_jobs=3, model="vgg16", serial_work=300.0, semantics=semantics),
        make_app("a1", num_jobs=2, model="resnet50", semantics=semantics),
        make_app("a2", num_jobs=2, model="transformer", serial_work=200.0, semantics=semantics),
    ]
    job = apps[2].jobs[0]
    job.set_allocation(0.0, job.allocation.union(cluster.machines[5].gpus[:2]), overhead=0.0)
    pool = {m: 2 if m == 5 or m % 2 else 4 for m in range(36)}
    return Market(
        pool=pool,
        apps=apps,
        estimator=FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model),
        now=50.0,
        noise_theta=noise_theta,
        salt=7,
        hidden_payments=True,
    )


@pytest.mark.parametrize("semantics", list(CompletionSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("fleet", ["homogeneous", "rate-inversion"])
def test_reductions_engage_on_a_wide_market(fleet, semantics):
    """Memo skips happen once a solve makes more than 10 moves, and
    class-grouped rows score fewer pairs than per-machine rows for the
    same moves — unless the bids are noisy, whose hash reads the
    machine ids, so every class is one machine."""

    def solve(market):
        auction = PartialAllocationAuction()
        _, moves, _ = auction._solve(market.pool, market.bids(), stats=auction.last_stats)
        return moves, auction.last_stats

    exact = wide_market(fleet, semantics, 0.0)
    lazy = PartialAllocationAuction()
    assert lazy.run(exact.pool, exact.bids()) == RescanAuction().run(
        exact.pool, exact.bids()
    )
    if lazy.last_stats.moves > 10:
        assert lazy.last_stats.rescore_skipped > 0
    for market in (exact, wide_market(fleet, semantics, 0.2)):
        moves, grouped = solve(market)
        with mock.patch.object(bids_module, "_CLASS_MIN_POOL", len(market.pool) + 1):
            per_machine_moves, per_machine = solve(market)
        assert moves == per_machine_moves
        if market.noise_theta > 0.0:
            assert grouped.pair_scores == per_machine.pair_scores
        else:
            assert grouped.pair_scores < per_machine.pair_scores


def test_shrinking_machine_raises_gain_yet_memo_stays_exact():
    """A column shrink RAISES a pair's best normalized gain.

    Three ALL_JOBS vgg16 jobs capped at ``max_parallelism=2``, each
    holding one GPU on the *other* machine, so unmet headroom is 3 and
    a job's second GPU lands cross-machine on a network-intensive
    model (a lone extra GPU is worth so little the step-1 move can
    even be value-negative).  At ``free=4`` the candidate steps are
    {1, 3}: the 3-GPU grab's per-GPU log gain is diluted by the jobs'
    communication penalty.  At ``free=2`` the steps are {1, 2} and the
    2-GPU grab concentrates the jump over a smaller step — a strictly
    better (smaller) heap key.  Lazy-CELF would trust the stale
    ``free=4`` score and pop a wrong argmin; the bound-gated memo
    instead keys on ``min(CHUNK_SIZE, free, headroom)``, which *changed*
    (3 -> 2), so the pair is re-scored precisely.
    """
    cluster = uniform_cluster(2, name="nonmono")
    estimator = FairnessEstimator(cluster)
    app = make_app(app_id="capped", num_jobs=3, model="vgg16", max_parallelism=2)
    # Each job holds one GPU elsewhere: value positive (gain path).
    other = cluster.machines[1]
    for job, gpu in zip(app.jobs, other.gpus[:3]):
        job.set_allocation(0.0, job.allocation.union((gpu,)))
    machine_id = cluster.machines[0].machine_id
    pool = {machine_id: 4}
    bid = Bid(app, estimator, now=50.0, offered_counts=pool)
    current_value = bid.value_from_key(())
    assert current_value > 0.0
    stats = AuctionSolveStats()

    def score_at(free: int):
        return _score_pair(
            NashWelfare, bid, app.app_id, machine_id, free, {}, (),
            current_value, headroom=bid.demand, stats=stats, rescore=True,
        )

    wide = score_at(4)
    narrow = score_at(2)
    assert wide is not None and narrow is not None
    # Non-monotone: fewer free GPUs, strictly better (smaller) key —
    # the normalized gain went UP when the machine shrank.
    assert narrow[0] < wide[0]
    gain_wide = -wide[0][1]
    gain_narrow = -narrow[0][1]
    assert gain_narrow > gain_wide
    # The memo keyed the two scorings separately (chunk 3 vs chunk 2):
    # both live side by side, neither is served stale for the other.
    memo = bid._pair_memo
    assert memo.get((machine_id, (), 3), _MEMO_MISS) is not _MEMO_MISS
    assert memo.get((machine_id, (), 2), _MEMO_MISS) is not _MEMO_MISS
    assert (stats.warm_misses, stats.rescore_skipped) == (2, 0)
    # A column shrink that leaves min(CHUNK_SIZE, free, headroom) unchanged
    # (headroom is 3, so free 4 -> 3 keeps the bound at 3) cannot have
    # changed the score: it is served from the memo, no probe at all.
    probes = bid.rho_lookups
    assert score_at(3) == wide
    assert (stats.warm_misses, stats.rescore_skipped) == (2, 1)
    assert bid.rho_lookups == probes


@settings(max_examples=60, deadline=None)
@given(markets())
def test_resumed_payment_resolves_equal_cold_ones(market):
    """Every winner's re-solve, resumed from the full solve's checkpoint,
    applies the moves of a cold ``greedy_solve(..., exclude=i)`` and
    pays the same fraction; the whole mechanism still equals the rescan
    reference."""
    auction = PartialAllocationAuction()
    bids = market.bids()
    checkpoints = {}
    pf, full_moves, pf_values = auction._solve(market.pool, bids, checkpoints=checkpoints)
    pf_values = auction._values(pf_values, bids, sorted(bids))
    winners = [app_id for app_id in sorted(bids) if pf[app_id]]
    # One checkpoint per winner, at its first move.
    assert sorted(checkpoints) == winners
    for app_id in winners:
        resume = checkpoints[app_id]
        first_win = next(i for i, move in enumerate(full_moves) if move[0] == app_id)
        assert resume.moves == tuple(full_moves[:first_win])
        resumed = greedy_solve(market.pool, bids, NashWelfare, app_id, resume)
        cold = greedy_solve(market.pool, market.bids(), NashWelfare, app_id)
        assert resumed == cold
        assert auction._payment_fraction(
            app_id, market.pool, bids, pf_values, resume
        ) == auction._payment_fraction(app_id, market.pool, market.bids(), pf_values)
    assert auction.run(market.pool, bids) == RescanAuction().run(market.pool, market.bids())


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


def tiny_market(rng: random.Random):
    """A homogeneous pool of 1-2 machines with at most 3 free GPUs each,
    and bids of 1-3 resnet50 apps that hold nothing: small enough for
    the exhaustive optimum."""
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=(
                MachineSpec(count=rng.randint(1, 2), gpus_per_machine=rng.randint(1, 6)),
            ),
            num_racks=rng.randint(1, 2),
            name="tiny",
        )
    )
    estimator = FairnessEstimator(cluster)
    pool = {m.machine_id: min(rng.randint(0, m.num_gpus), 3) for m in cluster.machines}
    pool = {m: c for m, c in pool.items() if c > 0}
    bids = {}
    for i in range(rng.randint(1, 3)):
        num_jobs, parallelism = rng.randint(1, 4), rng.randint(1, 4)
        now, work = rng.uniform(0.0, 120.0), rng.uniform(10.0, 300.0)
        app = make_app(f"a{i}", num_jobs=num_jobs, max_parallelism=parallelism, serial_work=work)
        bids[app.app_id] = Bid(app, estimator, now=now, offered_counts=pool)
    return pool, bids


def test_lazy_matches_exhaustive_on_small_instances():
    """On tiny markets the greedy tracks the exhaustive max-Nash-welfare
    optimum: as many positive-value apps, log-welfare within 0.05."""
    rng = random.Random(4242)
    checked = 0
    while checked < 25:
        pool, bids = tiny_market(rng)
        if not pool:
            continue
        try:
            exact = exhaustive_nash_allocation(pool, bids, max_states=50_000)
        except ValueError:
            continue
        greedy = PartialAllocationAuction().run(pool, bids, apply_hidden_payments=False).proportional_fair
        g_pos, g_log = _welfare_key(bids, greedy)
        e_pos, e_log = _welfare_key(bids, exact)
        assert g_pos == e_pos
        assert g_log >= e_log - 0.05
        checked += 1


def test_sim_level_lazy_matches_rescan():
    """Whole trace replay with the solver flipped to the rescan reference."""
    from repro.experiments.config import sim_scenario

    scenario = (
        sim_scenario(num_apps=8, seed=11, duration_scale=0.12)
        .replace(cluster_scale=16 / 256.0, downsample=64)
        .with_generator(
            mean_interarrival_minutes=3.0, jobs_per_app_median=3.0, jobs_per_app_max=6
        )
    )

    def run(rescan: bool) -> str:
        sim = simulator(scenario)
        scheduler = sim.scheduler
        assert scheduler.arbiter is not None
        if rescan:
            bound = scheduler.arbiter.auction
            scheduler.arbiter.auction = RescanAuction()
            scheduler.arbiter.auction.estimator = bound.estimator
        return sim.run().digest()

    assert run(rescan=False) == run(rescan=True)
