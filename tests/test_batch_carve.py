"""The vectorized batch valuation path and the warm-started auction heap.

Three layers of guarantees:

* :func:`~repro.core.fairness._carve_batch` — the numpy lockstep kernel
  the round-start prime runs through — replays
  :func:`~repro.core.fairness._carve_fast` *and* the pre-refactor
  heap-backed :func:`~repro.core.fairness._carve_reference` byte-for-byte
  on randomised instances: mixed model families, speed-weighted fleets,
  zero-demand rows, empty pools, and batches below ``_BATCH_MIN``;
* without numpy the batch degrades to the scalar kernel with a single
  ``RuntimeWarning`` (results identical, only slower), and
  :meth:`FairnessEstimator.batch_prime` warms the caches so that the
  scalar probes that follow return the scalar kernel's floats without a
  further carve — same floats, same ``carve_count`` accounting;
* the warm-started :class:`~repro.core.auction.PartialAllocationAuction`
  (pair-score memo) reproduces the cold solver's winners, payments and
  leftovers byte-identically, on a single auction instance and across a
  whole trace replay.
"""

from __future__ import annotations

import random
import warnings

import pytest

import repro.core.fairness as fairness
from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.core.auction import PartialAllocationAuction
from repro.core.fairness import (
    _BATCH_MIN,
    VALUE_CEILING,
    AppValuationState,
    FairnessEstimator,
    _carve_batch,
    _carve_fast,
    _carve_reference,
    value_from_rho,
)
from repro.workload.job import Job, JobSpec
from repro.workload.models import MODEL_FAMILIES

from helpers import make_app

MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")


# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------
def random_world(rng: random.Random):
    """One shared machine universe (all batch rows must agree on it)."""
    num_machines = rng.randint(3, 10)
    rack_of = {m: rng.randint(0, 2) for m in range(num_machines)}
    speed_of = None
    if rng.random() < 0.5:
        speed_of = {m: rng.choice((0.33, 0.66, 1.0)) for m in range(num_machines)}
    nvlink = rng.choice((1, 2, 4))
    return rack_of, speed_of, nvlink


def random_family_fn(rng: random.Random, machines):
    table = {
        family: {m: rng.choice((0.2, 0.5, 0.8, 1.0)) for m in machines}
        for family in MODEL_FAMILIES
    }
    return lambda family: table[family]


def random_instance(rng: random.Random, rack_of):
    """One (job_tuples, canonical counts key) batch row.

    Deliberately includes the degenerate shapes the kernel must share
    with the scalar path: empty pools, rows with no jobs, zero counts.
    """
    counts = {
        m: rng.randint(0, 4) for m in rack_of if rng.random() < 0.7
    }
    key = tuple(sorted((m, c) for m, c in counts.items() if c > 0))
    jobs = [
        Job(
            spec=JobSpec(
                job_id=f"j{i}",
                model=rng.choice(MODELS),
                serial_work=rng.uniform(1.0, 300.0),
                max_parallelism=rng.randint(1, 6),
            )
        )
        for i in range(rng.randint(0, 5))
    ]
    tuples = [
        (
            job.remaining_work,
            job.max_parallelism,
            job.model_profile.sensitivity,
            job.job_id,
            job.model_profile.family,
        )
        for job in jobs
    ]
    tuples.sort(key=lambda item: (item[0], item[3]))
    return tuple(tuples), key


def scalar_oracle(instances, rack_of, nvlink, speed_of, family_fn=None):
    return [
        _carve_fast(tuples, dict(key), rack_of, nvlink, speed_of, family_fn)
        for tuples, key in instances
    ]


# ----------------------------------------------------------------------
# Batch kernel vs scalar kernel vs reference
# ----------------------------------------------------------------------
def test_carve_batch_matches_scalar_and_reference():
    rng = random.Random(20260808)
    for _ in range(40):
        rack_of, speed_of, nvlink = random_world(rng)
        instances = [
            random_instance(rng, rack_of)
            for _ in range(rng.randint(_BATCH_MIN, _BATCH_MIN + 20))
        ]
        batch = _carve_batch(instances, rack_of, nvlink, speed_of)
        assert batch == scalar_oracle(instances, rack_of, nvlink, speed_of)
        for (tuples, key), got in zip(instances, batch):
            assert got == _carve_reference(
                tuples, dict(key), rack_of, nvlink, speed_of
            )


def test_carve_batch_matches_scalar_mixed_families():
    rng = random.Random(424242)
    for _ in range(40):
        rack_of, _speed_of, nvlink = random_world(rng)
        family_fn = random_family_fn(rng, list(rack_of))
        instances = [
            random_instance(rng, rack_of)
            for _ in range(rng.randint(_BATCH_MIN, _BATCH_MIN + 20))
        ]
        batch = _carve_batch(instances, rack_of, nvlink, None, family_fn)
        assert batch == scalar_oracle(instances, rack_of, nvlink, None, family_fn)


def test_carve_batch_all_degenerate_rows():
    """A batch of only empty pools / job-less rows takes the width-0 path."""
    rack_of = {0: 0, 1: 0}
    jobless = ((), ((0, 2), (1, 1)))
    poolless, _ = random_instance(random.Random(5), rack_of)
    instances = [jobless, (poolless, ()), ((), ())] * _BATCH_MIN
    batch = _carve_batch(instances, rack_of, 2, None)
    assert batch == scalar_oracle(instances, rack_of, 2, None)


def test_carve_batch_below_min_uses_scalar_path():
    rng = random.Random(9)
    rack_of, speed_of, nvlink = random_world(rng)
    instances = [random_instance(rng, rack_of) for _ in range(_BATCH_MIN - 1)]
    batch = _carve_batch(instances, rack_of, nvlink, speed_of)
    assert batch == scalar_oracle(instances, rack_of, nvlink, speed_of)


def test_value_from_rho_clamps_degenerate_rho():
    # rho <= 0 (estimated shared finish not ahead of now) must clamp to
    # the finite ceiling, never inf — the solver's log-gain keys and
    # nash_log_welfare stay totally ordered.
    assert value_from_rho(0.0) == VALUE_CEILING
    assert value_from_rho(-3.5) == VALUE_CEILING
    assert value_from_rho(1e-15) == VALUE_CEILING
    assert value_from_rho(float("inf")) == 0.0
    assert value_from_rho(2.0) == 0.5


# ----------------------------------------------------------------------
# numpy-free degradation
# ----------------------------------------------------------------------
def test_no_numpy_fallback_warns_once_and_matches(monkeypatch):
    rng = random.Random(31337)
    rack_of, speed_of, nvlink = random_world(rng)
    instances = [random_instance(rng, rack_of) for _ in range(_BATCH_MIN + 4)]
    expected = scalar_oracle(instances, rack_of, nvlink, speed_of)
    monkeypatch.setattr(fairness, "_np", None)
    monkeypatch.setattr(fairness, "_batch_fallback_warned", False)
    with pytest.warns(RuntimeWarning, match="numpy unavailable"):
        got = _carve_batch(instances, rack_of, nvlink, speed_of)
    assert got == expected
    # The warning is one-time: a second batch stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_again = _carve_batch(instances, rack_of, nvlink, speed_of)
    assert got_again == expected


# ----------------------------------------------------------------------
# batch_prime cache equivalence
# ----------------------------------------------------------------------
def prime_cluster():
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=6, gpus_per_machine=4),),
            num_racks=2,
            name="prime",
        )
    )


def prime_keys(rng: random.Random, machines, count):
    keys = []
    for _ in range(count):
        chosen = rng.sample(machines, rng.randint(1, min(3, len(machines))))
        keys.append(tuple(sorted((m, rng.randint(1, 4)) for m in chosen)))
    return keys


def test_batch_prime_fills_exact_cache_slots():
    rng = random.Random(77)
    cluster = prime_cluster()
    machines = [m.machine_id for m in cluster.machines]
    estimator = FairnessEstimator(cluster)
    apps = [make_app(f"a{i}", num_jobs=2 + i % 3) for i in range(4)]
    states = [AppValuationState(app, estimator) for app in apps]
    for state in states:
        state.refresh()
    pairs = [
        (state, key)
        for state in states
        for key in prime_keys(rng, machines, 4)
    ]
    # Duplicates inside one batch count as hits, not extra carves —
    # and so does any bundle whose *shape* an earlier pair of the same
    # state already carved (the caches are shape-keyed).
    pairs.append(pairs[0])
    before = estimator.carve_count
    carves, hits = estimator.batch_prime(pairs)
    assert hits >= 1
    assert carves + hits == len(pairs)
    assert estimator.carve_count == before + carves
    # Every primed bundle now resolves, without a further carve, to
    # exactly the float the scalar kernel produces for the same
    # snapshot and bundle (an uncached estimator is the reference).
    reference = FairnessEstimator(cluster)
    before = estimator.carve_count
    for state, key in pairs:
        assert state.delta_of(key) == reference.shared_delta_from_snapshot(
            state.snapshot, dict(key)
        )
        assert state.rho_at(10.0, key) == reference.rho_from_snapshot(
            state.snapshot, 10.0, dict(key)
        )
    assert estimator.carve_count == before
    # Re-priming the same bundles is all hits, zero carves.
    carves_again, hits_again = estimator.batch_prime(pairs)
    assert carves_again == 0
    assert hits_again == len(pairs)


# ----------------------------------------------------------------------
# Warm-started heap vs cold solve
# ----------------------------------------------------------------------
def run_auction(profile_name: str, warm: bool):
    from repro.perf.bench import AUCTION_PROFILES, build_auction_instance

    profile = AUCTION_PROFILES[profile_name]
    pool, bids = build_auction_instance(profile)
    auction = PartialAllocationAuction(chunk_size=profile.chunk_size)
    if warm:
        auction.warm_enabled = True
        auction.estimator = next(iter(bids.values())).state.estimator
    outcome = auction.run(pool, bids, apply_hidden_payments=True)
    return outcome, auction.last_stats, bids


@pytest.mark.parametrize("profile_name", ["small", "medium", "hetero-medium"])
def test_warm_started_auction_matches_cold(profile_name):
    from repro.perf.bench import _outcome_digest

    cold_outcome, cold_stats, _cold_bids = run_auction(profile_name, warm=False)
    warm_outcome, warm_stats, warm_bids = run_auction(profile_name, warm=True)
    # Byte-equal winners, payments, leftovers and welfare.
    assert _outcome_digest(warm_outcome) == _outcome_digest(cold_outcome)
    # The cold path never touches the warm counters; the warm path's
    # payment re-solves rebuild their heaps from the pair memo.
    assert cold_stats.warm_hits == 0 and cold_stats.warm_misses == 0
    assert warm_stats.warm_hits > 0
    # Probe accounting stays honest under warmth: every carve the bids
    # observed is a real kernel cache miss of the shared estimator.
    estimator = next(iter(warm_bids.values())).state.estimator
    assert sum(b.rho_probes for b in warm_bids.values()) <= estimator.carve_count


def test_full_sim_warm_heap_matches_cold_rebuild():
    """Whole trace replay: warm + incremental vs cold, byte-identical."""
    from repro.perf.bench import SimBenchProfile, run_sim_once

    # Contended enough that auctions see several bidders — the hidden-
    # payment re-solves then rebuild their heaps from the pair memo,
    # which is what populates the warm-hit counters.
    profile = SimBenchProfile(
        name="t-batch-xs",
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
    # The incremental run records its warm-start accounting per round
    # and in the aggregated totals.
    stats = inc["result"].round_stats
    assert stats["rounds"] > 0
    assert all(
        "heap_warm_hits" in row and "heap_warm_misses" in row
        for row in stats["per_round"]
    )
    assert stats["totals"]["heap_warm_hits"] > 0
    # Cold rounds never report warm work.
    cold_totals = cold["result"].round_stats["totals"]
    assert cold_totals["heap_warm_hits"] == 0
    assert cold_totals["heap_warm_misses"] == 0
