"""The bound-gated, symmetry-reduced post-move re-scoring is exact.

The lazy solver's post-move invalidation re-scores its full row and
column after every applied move — the wide-pool wall.
``rescore="gated"`` (the default) attacks it two ways, and this suite
holds both to the per-machine eager oracle byte-for-byte:

* **bound-gated skips** — :meth:`PartialAllocationAuction._score_pair`
  memoises under the exact purity key of the score (gain path:
  ``(machine, current_key, min(chunk, free, headroom))``; rescue path:
  ``(machine, current_key)`` with the free-dependent tie-break rebuilt
  from the live ``free``), so a column shrink that leaves the step
  bound unchanged re-uses the memoised score;
* **one score per machine class** — a row scores one representative
  per class of machines the app cannot tell apart and stamps the rest
  (pools of 4+ machines; tests/test_shape_symmetry.py holds the lemma
  and the wide-market sweep).

The sweep covers 200+ seeded markets x homogeneous / heterogeneous
fleets x scalar / throughput-matrix perf models x warm (incremental)
and cold solves, asserting *move sequences* and full outcome digests of
the gated solver equal ``rescore="eager"``'s.  The adversarial test
pins the non-monotone-gain counterexample (a shrinking machine RAISES
a pair's normalized gain) that rules out plain lazy-CELF stale-heap
re-validation and motivates proven skips instead.  The fallback test
re-runs the sweep core with numpy gated off (results identical).
"""

from __future__ import annotations

import math
import random

import pytest

import repro.core.fairness as fairness
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import _MEMO_MISS, PartialAllocationAuction, _merged_key
from repro.core.bids import build_bid
from repro.core.fairness import FairnessEstimator
from repro.perf.bench import _outcome_digest
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel

from helpers import make_app

#: Mixed model families so valuations (and matrix speed rows) differ.
MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")


# ----------------------------------------------------------------------
# Market generator
# ----------------------------------------------------------------------
def random_market(rng: random.Random, hetero: bool, perf_matrix: bool):
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
    estimator = FairnessEstimator(cluster, perf_model=perf_model)

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

    def bids_factory():
        return {
            app.app_id: build_bid(app, estimator, now, pool)
            for app in apps
            if app.unmet_demand() > 0
        }

    return pool, bids_factory, estimator


def solve_both(pool, bids_factory, estimator, warm: bool, chunk_size: int = 4):
    """(moves, digest, stats) for the gated solver and the eager oracle."""
    results = {}
    for mode in ("gated", "eager"):
        auction = PartialAllocationAuction(chunk_size=chunk_size, rescore=mode)
        if warm:
            auction.warm_enabled = True
            auction.estimator = estimator
        bids = bids_factory()
        if not bids:
            return None
        _assignment, moves = auction._solve(pool, bids, stats=auction.last_stats)
        outcome = PartialAllocationAuction(
            chunk_size=chunk_size, rescore=mode
        ).run(pool, bids_factory(), apply_hidden_payments=True)
        results[mode] = (moves, _outcome_digest(outcome), auction.last_stats)
    return results


# ----------------------------------------------------------------------
# The 200+ instance sweep: gated == eager, move-for-move
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "hetero,perf_matrix,seed",
    [(False, False, 20260808), (True, False, 977), (True, True, 31415)],
    ids=["homo", "hetero", "hetero-matrix"],
)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_gated_matches_eager_sweep(hetero, perf_matrix, seed, warm):
    """>= 35 markets per config x 6 configs: 200+ instances in all."""
    rng = random.Random(seed + int(warm))
    checked = 0
    while checked < 35:
        pool, bids_factory, estimator = random_market(rng, hetero, perf_matrix)
        if not pool:
            continue
        results = solve_both(pool, bids_factory, estimator, warm)
        if results is None:
            continue
        checked += 1
        gated_moves, gated_digest, gated_stats = results["gated"]
        eager_moves, eager_digest, _eager_stats = results["eager"]
        # Same greedy trajectory (every move, in order, including the
        # float values), then same winners/payments/leftovers/welfare.
        assert gated_moves == eager_moves
        assert gated_digest == eager_digest
        # The gate actually engages: markets with enough moves see
        # memo skips during the post-move re-scores.
        if gated_stats.moves > 10:
            assert gated_stats.rescore_skipped > 0


def test_gated_matches_eager_small_chunks():
    """chunk_size=1 (every move is one GPU) and 2 stay byte-identical."""
    rng = random.Random(4242)
    for chunk_size in (1, 2):
        checked = 0
        while checked < 15:
            pool, bids_factory, estimator = random_market(rng, False, False)
            if not pool:
                continue
            results = solve_both(
                pool, bids_factory, estimator, warm=True, chunk_size=chunk_size
            )
            if results is None:
                continue
            checked += 1
            assert results["gated"][0] == results["eager"][0]
            assert results["gated"][1] == results["eager"][1]


# ----------------------------------------------------------------------
# The non-monotone counterexample (why stale-heap CELF is out)
# ----------------------------------------------------------------------
def test_shrinking_machine_raises_gain_yet_gated_stays_exact():
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
    auction = PartialAllocationAuction(chunk_size=4, rescore="gated")
    current_value = bid.value_from_key(())
    assert current_value > 0.0

    def score_at(free: int):
        return auction._score_pair(
            bid, app.app_id, machine_id, free, (), current_value,
            headroom=bid.demand,
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

    # And a full market built around the same shape still solves
    # byte-identically to the eager oracle.
    rng = random.Random(8)
    for _ in range(10):
        pool2, bids_factory, est2 = random_market(rng, False, False)
        if not pool2:
            continue
        results = solve_both(pool2, bids_factory, est2, warm=False)
        if results is None:
            continue
        assert results["gated"][0] == results["eager"][0]
        assert results["gated"][1] == results["eager"][1]


# ----------------------------------------------------------------------
# Satellite: refined memo key strictly beats the raw-free key
# ----------------------------------------------------------------------
class LegacyMemoAuction(PartialAllocationAuction):
    """The pre-PR-10 ``_score_pair``: memo keyed on raw ``free``.

    Verbatim re-implementation of the old warm-start memo (key
    ``(machine, current_key, free, min(headroom, chunk))``, whole
    result stored, warm-gated) so the hit-rate comparison below runs
    the refined and legacy keys over identical solves.
    """

    def _score_pair(
        self, bid, app_id, machine_id, free, current_key, current_value,
        headroom, stats=None, rescore=False,
    ):
        memo = None
        if self.warm_enabled:
            memo = bid._pair_memo
            memo_key = (machine_id, current_key, free, min(headroom, self.chunk_size))
            cached = memo.get(memo_key, _MEMO_MISS)
            if cached is not _MEMO_MISS:
                if stats is not None:
                    stats.warm_hits += 1
                return cached
            if stats is not None:
                stats.warm_misses += 1
        if current_value <= 0.0:
            step_sizes = (1,)
        else:
            chunk = min(self.chunk_size, free, headroom)
            step_sizes = (1,) if chunk <= 1 else (1, chunk)
        best = None
        for step in step_sizes:
            new_value = bid.value_from_key(_merged_key(current_key, machine_id, step))
            if new_value <= current_value:
                continue
            move = (app_id, machine_id, step, new_value)
            if current_value <= 0.0:
                key = (
                    0, -new_value, step,
                    -free * bid.machine_speed(machine_id), app_id, machine_id,
                )
            else:
                gain = (math.log(new_value) - math.log(current_value)) / step
                key = (1, -gain, step, app_id, machine_id)
            if best is None or key < best[0]:
                best = (key, move)
        if memo is not None:
            memo[memo_key] = best
        return best


def test_refined_memo_key_strictly_improves_hit_rate():
    """Same seeded solves, digests unchanged, hit-rate strictly up.

    Both solvers run warm with ``rescore="eager"`` so the *only*
    difference is the memo key: refined (effective step bound) vs
    legacy (raw ``free``).  Every column shrink that leaves
    ``min(chunk, free, headroom)`` unchanged is a refined-key hit the
    legacy key misses.
    """
    rng = random.Random(20260808)
    improved = 0
    compared = 0
    while compared < 12:
        pool, bids_factory, estimator = random_market(rng, False, False)
        if not pool:
            continue
        rates = {}
        digests = {}
        for cls in (PartialAllocationAuction, LegacyMemoAuction):
            auction = cls(chunk_size=4, rescore="eager")
            auction.warm_enabled = True
            auction.estimator = estimator
            outcome = auction.run(pool, bids_factory(), apply_hidden_payments=True)
            stats = auction.last_stats
            lookups = stats.warm_hits + stats.warm_misses
            if lookups == 0:
                rates[cls] = None
            else:
                rates[cls] = stats.warm_hits / lookups
            digests[cls] = _outcome_digest(outcome)
        if rates[PartialAllocationAuction] is None or rates[LegacyMemoAuction] is None:
            continue
        compared += 1
        assert digests[PartialAllocationAuction] == digests[LegacyMemoAuction]
        assert rates[PartialAllocationAuction] >= rates[LegacyMemoAuction]
        if rates[PartialAllocationAuction] > rates[LegacyMemoAuction]:
            improved += 1
    # Strict improvement on the clear majority of seeded solves (ties
    # possible only on degenerate tiny markets with no column shrinks).
    assert improved >= compared * 0.75


# ----------------------------------------------------------------------
# numpy-free leg
# ----------------------------------------------------------------------
def test_gated_matches_eager_without_numpy(monkeypatch):
    """Same equivalence with every carve on the scalar kernel."""
    monkeypatch.setattr(fairness, "_np", None)
    monkeypatch.setattr(fairness, "_batch_fallback_warned", True)
    rng = random.Random(1337)
    checked = 0
    while checked < 10:
        pool, bids_factory, estimator = random_market(rng, True, False)
        if not pool:
            continue
        results = solve_both(pool, bids_factory, estimator, warm=True)
        if results is None:
            continue
        checked += 1
        assert results["gated"][0] == results["eager"][0]
        assert results["gated"][1] == results["eager"][1]


# ----------------------------------------------------------------------
# Counters thread through RoundStats into serialized round_stats
# ----------------------------------------------------------------------
def test_rescore_counters_reach_round_stats():
    from repro.perf.bench import SimBenchProfile, run_sim_once

    profile = SimBenchProfile(
        name="t-rescore-xs",
        gpus=16,
        contention=4.0,
        num_apps=10,
        duration_scale=0.15,
        interarrival_minutes=3.0,
        downsample=64,
        jobs_per_app_median=3.0,
        jobs_per_app_max=6,
    )
    inc = run_sim_once(profile, incremental=True)
    cold = run_sim_once(profile, incremental=False)
    assert inc["digest"] == cold["digest"]
    for run in (inc, cold):
        stats = run["result"].round_stats
        totals = stats["totals"]
        for key in ("rescore_carves", "rescore_skipped", "rescore_batched"):
            assert key in totals
            assert all(key in row for row in stats["per_round"])
        # The gate engages in BOTH modes — the re-score wall is
        # mode-independent, which is exactly why it needed its own
        # treatment beyond the cross-round caches.
        assert totals["rescore_skipped"] > 0
        # Kept for readers of round_stats; nothing files work there.
        assert totals["rescore_batched"] == 0


def test_sim_level_gated_matches_eager():
    """Whole trace replay with the solver flipped to the eager oracle."""
    from dataclasses import replace as dc_replace

    from repro.perf.bench import (
        SimBenchProfile,
        canonical_result_json,
        sim_scenario_for,
    )
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.simulator import ClusterSimulator

    profile = SimBenchProfile(
        name="t-rescore-sim",
        gpus=16,
        contention=4.0,
        num_apps=8,
        duration_scale=0.12,
        interarrival_minutes=3.0,
        downsample=64,
        jobs_per_app_median=3.0,
        jobs_per_app_max=6,
    )

    def run(rescore: str) -> str:
        scenario = sim_scenario_for(profile)
        scheduler = make_scheduler(profile.scheduler)
        simulator = ClusterSimulator(
            cluster=scenario.build_cluster(),
            workload=scenario.build_trace(),
            scheduler=scheduler,
            config=dc_replace(scenario.build_sim_config(), incremental=True),
            perf_model=scenario.build_perf_model(),
        )
        assert scheduler.arbiter is not None
        scheduler.arbiter.auction.rescore = rescore
        return canonical_result_json(simulator.run())

    assert run("gated") == run("eager")


def test_rescore_mode_validation():
    with pytest.raises(ValueError, match="rescore"):
        PartialAllocationAuction(rescore="stale-heap")
    from repro.core.arbiter import ArbiterConfig

    with pytest.raises(ValueError, match="rescore"):
        ArbiterConfig(rescore="approximate")
