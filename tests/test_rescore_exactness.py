"""The bound-gated, symmetry-reduced post-move re-scoring is exact.

The lazy solver's post-move invalidation re-scores its full row and
column after every applied move — the wide-pool wall.  It attacks it
two ways, and this suite holds both to the full-rescan reference
solver (``helpers.rescan_auction``) byte-for-byte:

* **bound-gated skips** — :meth:`PartialAllocationAuction._score_pair`
  memoises under the exact purity key of the score (gain path:
  ``(machine, current_key, min(chunk, free, headroom))``; rescue path:
  ``(machine, current_key)`` with the free-dependent tie-break rebuilt
  from the live ``free``), so a column shrink that leaves the step
  bound unchanged re-uses the memoised score;
* **one score and one heap entry per machine class** — a row scores
  the lowest member of each class of machines the app cannot tell
  apart; the pop loop hands the score to the next member when a
  competitor takes the representative (pools of 4+ machines;
  tests/test_shape_symmetry.py holds the lemma, the successor markets
  and the wide-market sweeps).

The sweep covers seeded markets x homogeneous / heterogeneous fleets x
scalar / ``rate-inversion`` perf models x ``ALL_JOBS`` / ``FIRST_WINNER``
x exact / noisy valuations, asserting the full ``run()`` outcome
(proportional-fair assignment, payments, winners, leftovers, welfare)
of the default solver equals the rescan reference's.  The adversarial
test pins the non-monotone-gain counterexample (a shrinking machine
RAISES a pair's normalized gain) that rules out plain lazy-CELF
stale-heap re-validation and motivates proven skips instead.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import _MEMO_MISS, AuctionSolveStats, PartialAllocationAuction
from repro.core.bids import build_bid
from repro.core.fairness import FairnessEstimator
from repro.workload.app import CompletionSemantics
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import make_app, rescan_auction

#: Mixed model families so valuations (and matrix speed rows) differ.
MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")


# ----------------------------------------------------------------------
# Market generator
# ----------------------------------------------------------------------
def random_market(
    rng: random.Random,
    hetero: bool,
    perf_matrix: bool,
    semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS,
    noise_theta: float = 0.0,
):
    """One seeded (pool, bids-factory) market.

    Some apps already hold GPUs (gain-path scores over compound
    multi-machine bundles), the rest are starved (rescue path); the
    factory returns fresh bids per call so compared solvers never share
    warmed valuation caches.
    """
    num_machines = rng.randint(2, 8)
    gpus_per = rng.randint(2, 6)
    if hetero:
        kinds = ("v100", "p100", "k80")
        split = [num_machines // 3] * 3
        for i in range(num_machines - sum(split)):
            split[i % 3] += 1
        specs = tuple(
            MachineSpec(count=count, gpus_per_machine=gpus_per, gpu_type=GPU_TYPES[kind])
            for kind, count in zip(kinds, split)
            if count > 0
        )
    else:
        specs = (MachineSpec(count=num_machines, gpus_per_machine=gpus_per),)
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=specs,
            num_racks=rng.randint(1, 3),
            name="rescore",
        )
    )
    perf_model = (
        ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
        if perf_matrix
        else None
    )
    estimator = FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model)

    num_apps = rng.randint(2, 6)
    apps = []
    for i in range(num_apps):
        apps.append(
            make_app(
                app_id=f"a{i}",
                num_jobs=rng.randint(1, 4),
                model=rng.choice(MODELS),
                serial_work=rng.uniform(20.0, 400.0),
                max_parallelism=rng.randint(1, 4),
                semantics=semantics,
            )
        )
    # Hand a random slice of the fleet to a random subset of apps, so
    # their bids score gain moves on top of non-empty base bundles.
    machines = list(cluster.machines)
    held = machines[: rng.randint(0, max(0, len(machines) - 1))]
    for slot, machine in enumerate(held):
        app = apps[slot % len(apps)]
        job = app.jobs[slot % len(app.jobs)]
        take = machine.gpus[: rng.randint(1, machine.num_gpus)]
        job.set_allocation(0.0, job.allocation.union(take), overhead=0.0)
    pool = {
        machine.machine_id: rng.randint(1, machine.num_gpus)
        for machine in machines[len(held):]
    }
    now = rng.uniform(10.0, 200.0)
    salt = rng.randint(0, 1 << 16)

    def bids_factory():
        return {
            app.app_id: build_bid(
                app, estimator, now, pool, noise_theta=noise_theta, noise_salt=salt
            )
            for app in apps
            if app.unmet_demand() > 0
        }

    return pool, bids_factory


def solve_both(pool, bids_factory, chunk_size: int = 4):
    """(lazy outcome, rescan outcome, lazy stats), or None without bidders."""
    if not bids_factory():
        return None
    lazy = PartialAllocationAuction(chunk_size=chunk_size)
    rescan = rescan_auction(chunk_size=chunk_size)
    return (
        lazy.run(pool, bids_factory()),
        rescan.run(pool, bids_factory()),
        lazy.last_stats,
    )


# ----------------------------------------------------------------------
# The sweep: default solver == rescan reference, whole outcome
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "hetero,perf_matrix,seed",
    [(False, False, 20260808), (True, False, 977), (True, True, 31415)],
    ids=["homo", "hetero", "rate-inversion"],
)
@pytest.mark.parametrize("semantics", list(CompletionSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("noise_theta", [0.0, 0.2], ids=["exact", "noisy"])
def test_lazy_matches_rescan_sweep(hetero, perf_matrix, seed, semantics, noise_theta):
    """20 markets per config x 12 configs: 240 instances in all."""
    rng = random.Random(seed)
    checked = 0
    while checked < 20:
        pool, bids_factory = random_market(
            rng, hetero, perf_matrix, semantics, noise_theta
        )
        solved = pool and solve_both(pool, bids_factory)
        if not solved:
            continue
        checked += 1
        lazy, rescan, stats = solved
        # AuctionOutcome equality: proportional_fair, payments, winners,
        # leftover, participants and nash_log_welfare, floats included.
        assert lazy == rescan
        # The gate actually engages: markets with enough moves see
        # memo skips during the post-move re-scores.
        if stats.moves > 10:
            assert stats.rescore_skipped > 0


def test_lazy_matches_rescan_small_chunks():
    """chunk_size=1 (every move is one GPU) and 2 stay byte-identical."""
    rng = random.Random(4242)
    for chunk_size in (1, 2):
        checked = 0
        while checked < 15:
            pool, bids_factory = random_market(rng, False, False)
            solved = pool and solve_both(pool, bids_factory, chunk_size)
            if not solved:
                continue
            checked += 1
            assert solved[0] == solved[1]


# ----------------------------------------------------------------------
# The non-monotone counterexample (why stale-heap CELF is out)
# ----------------------------------------------------------------------
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
    instead keys on ``min(chunk, free, headroom)``, which *changed*
    (3 -> 2), so the pair is re-scored precisely.
    """
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=2, gpus_per_machine=4),),
            num_racks=1,
            name="nonmono",
        )
    )
    estimator = FairnessEstimator(cluster)
    app = make_app(app_id="capped", num_jobs=3, model="vgg16", max_parallelism=2)
    # Each job holds one GPU elsewhere: value positive (gain path).
    other = cluster.machines[1]
    for job, gpu in zip(app.jobs, other.gpus[:3]):
        job.set_allocation(0.0, job.allocation.union((gpu,)))
    machine_id = cluster.machines[0].machine_id
    pool = {machine_id: 4}
    bid = build_bid(app, estimator, now=50.0, offered_counts=pool)
    auction = PartialAllocationAuction(chunk_size=4)
    current_value = bid.value_from_key(())
    assert current_value > 0.0
    stats = AuctionSolveStats()

    def score_at(free: int):
        return auction._score_pair(
            bid, app.app_id, machine_id, free, (), current_value,
            headroom=bid.demand, stats=stats, rescore=True,
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
    # A column shrink that leaves min(chunk, free, headroom) unchanged
    # (headroom is 3, so free 4 -> 3 keeps the bound at 3) cannot have
    # changed the score: it is served from the memo, no probe at all.
    probes = bid.rho_lookups
    assert score_at(3) == wide
    assert (stats.warm_misses, stats.rescore_skipped) == (2, 1)
    assert bid.rho_lookups == probes

    # And a full market built around the same shape still solves
    # byte-identically to the rescan reference.
    rng = random.Random(8)
    for _ in range(10):
        pool2, bids_factory = random_market(rng, False, False)
        solved = pool2 and solve_both(pool2, bids_factory)
        if solved:
            assert solved[0] == solved[1]


def test_sim_level_lazy_matches_rescan():
    """Whole trace replay with the solver flipped to the rescan reference."""
    from repro.experiments.config import sim_scenario
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.simulator import ClusterSimulator

    scenario = (
        sim_scenario(num_apps=8, seed=11, duration_scale=0.12)
        .replace(cluster_scale=16 / 256.0, downsample=64)
        .with_generator(
            mean_interarrival_minutes=3.0, jobs_per_app_median=3.0, jobs_per_app_max=6
        )
    )

    def run(rescan: bool) -> str:
        scheduler = make_scheduler("themis")
        simulator = ClusterSimulator(
            cluster=scenario.build_cluster(),
            workload=scenario.build_trace(),
            scheduler=scheduler,
            config=scenario.build_sim_config(),
            perf_model=scenario.build_perf_model(),
        )
        assert scheduler.arbiter is not None
        if rescan:
            bound = scheduler.arbiter.auction
            scheduler.arbiter.auction = rescan_auction(bound.chunk_size)
            scheduler.arbiter.auction.estimator = bound.estimator
        return simulator.run().digest()

    assert run(rescan=False) == run(rescan=True)
