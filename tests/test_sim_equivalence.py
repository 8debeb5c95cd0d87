"""Dirty-tracking correctness: frozen digests plus a per-round audit.

The simulator keeps state across rounds — AGENT valuation snapshots and
rate-signature caches, the tracked lease pool, the held-jobs advance
loop, epoch-memoised app aggregates.  All of it is reuse of pure
functions, so a replay must produce exactly what a simulator that
rebuilt everything each round would.  Two oracles hold it to that:

* **frozen digests** (``tests/golden_sim.json``, see
  :func:`helpers.assert_golden`) — for **every registered scheduler**
  across seeds, on homogeneous and mixed-generation clusters, under
  failure injection and ``FIRST_WINNER`` semantics.  They were taken at
  the last commit that had the rebuild-everything mode, where each cell
  was checked byte-identical with the mode on and off;
* **the freshness audit** (:func:`helpers.audit_freshness`) — every
  round, every cache against a recompute.  Unlike a digest it survives
  a deliberate re-freeze and names the round and the cache that went
  stale.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.config import hetero_scenario, sim_scenario, tiny_scenario
from repro.experiments.runner import run_scenario
from repro.hyperparam.hyperband import HyperBand
from repro.hyperparam.hyperdrive import HyperDrive
from repro.metrics import METRICS
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.app import CompletionSemantics
from repro.workload.trace import Trace, TraceApp, TraceJob

from helpers import assert_golden, assert_golden_carves, audit_freshness, simulator, uniform_cluster

SEEDS = (0, 1, 2)

#: Contended enough that auctions see several bidders (the hidden-
#: payment re-solves then resume the full solve's heap).
CONTENDED_XS = (
    sim_scenario(num_apps=10, seed=11, duration_scale=0.15)
    .replace(cluster_scale=16 / 256.0, downsample=64)
    .with_generator(
        mean_interarrival_minutes=3.0, jobs_per_app_median=3.0, jobs_per_app_max=6
    )
)

#: ``(machine, at, duration)`` outages of the ``failures/*`` cells.
FAILURES = ((0, 20.0, 30.0), (3, 45.0, 60.0))

#: The golden table: a cell family's scenario, by seed and app count.
FAMILIES = {
    "homo": lambda seed, apps: tiny_scenario(num_apps=apps, seed=seed),
    "failures": lambda seed, apps: tiny_scenario(num_apps=apps, seed=seed),
    "hetero": lambda seed, apps: hetero_scenario(
        num_apps=apps, seed=seed, duration_scale=0.05
    ).replace(cluster_scale=0.25, lease_minutes=10.0),
    "first-winner": lambda seed, apps: tiny_scenario(num_apps=apps, seed=seed).replace(
        semantics=CompletionSemantics.FIRST_WINNER
    ),
}


def cell(name: str) -> ClusterSimulator:
    """The simulator of the golden cell ``family/scheduler/seedN`` (3 apps;
    ``seedNxA``: A apps), or of ``contended-xs/themis``."""
    if name == "contended-xs/themis":
        return simulator(CONTENDED_XS)
    family, scheduler, tag = name.split("/")
    seed, _, apps = tag.removeprefix("seed").partition("x")
    failures = FAILURES if family == "failures" else ()
    return simulator(FAMILIES[family](int(seed), int(apps or 3)), scheduler, failures=failures)


# ----------------------------------------------------------------------
# Frozen digests
# ----------------------------------------------------------------------
def assert_cell(name: str) -> ClusterSimulator:
    """Replay the cell, hold it to its digest, and hand back the simulator."""
    sim = cell(name)
    assert_golden(name, sim.run())
    return sim


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_homogeneous(scheduler_name, seed):
    assert_cell(f"homo/{scheduler_name}/seed{seed}")


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_hetero(scheduler_name, seed):
    assert_cell(f"hetero/{scheduler_name}/seed{seed}")


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_golden_under_failures(seed):
    assert_cell(f"failures/themis/seed{seed}")


@pytest.mark.parametrize("seed", (5,) + SEEDS)
def test_golden_first_winner_semantics(seed):
    assert_cell(f"first-winner/themis/seed{seed}")


# ----------------------------------------------------------------------
# Reuse engages: exact carve counts
# ----------------------------------------------------------------------
def test_first_winner_reuses_pair_kernels():
    """The FIRST_WINNER rate-signature cache must engage end to end.

    FIRST_WINNER apps are short-lived (the first finishing job ends the
    app, killing the rest), so cross-round reuse windows are narrower
    than under ALL_JOBS — the carve saving is small but must be real
    (192 carves on this cell; when every active app was probed, reuse
    took 193 and rebuilding every round 203); the per-bundle reuse
    properties themselves are pinned in
    tests/test_incremental_valuation.py.
    """
    sim = assert_cell("first-winner/themis/seed7x10")
    assert_golden_carves("first-winner/themis/seed7x10", sim.scheduler.estimator.carve_count)


def test_valuation_state_is_reused_across_rounds():
    """291 carves, same answers (when every active app was probed, reuse
    took 305 and rebuilding every round 322)."""
    sim = assert_cell("homo/themis/seed7")
    assert_golden_carves("homo/themis/seed7", sim.scheduler.estimator.carve_count)


def test_probe_and_payment_accounting_on_a_contended_replay():
    """Several bidders per auction: probes and payments add up (121
    carves; 128 while a reorder of equally shaped jobs dropped the
    kernel caches, 130 when every active app was probed, and 346 when
    every round rebuilt the caches).  The pair memo's hits here all came
    from payment re-solves rebuilding every row after a replayed move
    prefix; they resume the full solve's heap now, so the memo is held
    to engaging on the wider replays of tests/test_replay_gates.py."""
    sim = cell("contended-xs/themis")
    result = sim.run()
    assert_golden("contended-xs/themis", result)
    carves = sim.scheduler.estimator.carve_count
    assert_golden_carves("contended-xs/themis", carves)
    stats = result.round_stats
    totals = stats["totals"]
    assert stats["rounds"] > 0
    counters = ("heap_warm_hits", "heap_warm_misses", "rescore_carves",
                "rescore_skipped", "solver_heap_pushes", "solver_replayed_moves",
                "num_pf_winners", "num_paid", "gpus_withheld")
    assert all(key in row for row in stats["per_round"] for key in counters)
    # Every applied move was popped off the heap, so pushed first.
    assert totals["solver_heap_pushes"] >= totals["solver_moves"] > 0
    # Payment re-solves resumed past the moves before their app's win.
    assert totals["solver_replayed_moves"] > 0
    # Probe accounting stays honest: every carve of the replay happens
    # inside a round (the rho probes' included), and the bids' are a
    # share of them; the bids were asked more values than they carved.
    assert totals["carves"] == carves
    # Snapshot rebuilds, too, happen only inside rounds, and far fewer
    # than the probes that refresh a state.
    rebuilds = sim.scheduler.estimator.rebuild_count
    assert totals["rebuilds"] == rebuilds
    assert 0 < rebuilds < sum(row["num_eligible"] for row in stats["per_round"])
    assert 0 < totals["valuation_probes"] <= carves
    assert totals["valuation_lookups"] > totals["valuation_probes"]
    # Some winners paid, each withholding at least one GPU; the ledger's
    # METRICS columns read these totals.
    assert 0 < totals["num_paid"] <= totals["num_pf_winners"]
    assert totals["gpus_withheld"] >= totals["num_paid"]
    assert METRICS["paid_share"](result) == totals["num_paid"] / totals["num_pf_winners"]
    assert METRICS["gpus_withheld"](result) == totals["gpus_withheld"]


def test_canonical_json_strips_only_instrumentation():
    result = run_scenario(tiny_scenario(num_apps=3, seed=3))
    payload = result.to_json()
    assert payload.pop("round_stats")
    payload.pop("profile")
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(canonical).hexdigest()
    assert result.digest() == digest
    # Instrumentation moves nothing; any result field does.
    result.profile = {"assign": {"seconds": 1.0, "self_seconds": 1.0, "calls": 1}}
    result.round_stats = {}
    assert result.digest() == digest
    result.num_rounds += 1
    assert result.digest() != digest


# ----------------------------------------------------------------------
# Per-round freshness audit
# ----------------------------------------------------------------------
AUDITED = (
    "homo/themis/seed0", "hetero/themis/seed1", "failures/themis/seed0",
    "first-winner/themis/seed5", "contended-xs/themis", "homo/tiresias/seed2",
    "hetero/gandiva/seed1", "homo/strawman/seed2",
)


@pytest.mark.parametrize("name, build", [(name, lambda name=name: cell(name)) for name in AUDITED])
def test_every_cache_is_fresh_every_round(name, build):
    sim = build()
    audited = audit_freshness(sim)
    result = sim.run()
    assert len(audited) == result.num_rounds > 0
    # The audit only reads: the audited replay is the frozen one.
    assert_golden(name, result)


def _tuned_sweeps(parallelism, hd0_alphas, hd1_alphas):
    """Two hyper-parameter sweeps (second arrives late) on 12 GPUs, Themis."""

    def sweep(app_id, arrival, alphas):
        jobs = tuple(
            TraceJob(
                job_id=f"{app_id}-lr{i}",
                model="vgg16",
                duration_minutes=60.0,
                max_parallelism=parallelism,
                total_iterations=600,
                loss_initial=5.0,
                loss_alpha=alpha,
            )
            for i, alpha in enumerate(alphas)
        )
        return TraceApp(app_id=app_id, arrival_minutes=arrival, jobs=jobs)

    return ClusterSimulator(
        cluster=uniform_cluster(3, name="sweeps"),
        workload=Trace(
            apps=(sweep("hd0", 0.0, hd0_alphas), sweep("hd1", 12.0, hd1_alphas)),
            name="sweeps",
        ),
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(
            lease_minutes=5.0, semantics=CompletionSemantics.FIRST_WINNER
        ),
    )


def test_audit_under_a_hyperband_trace():
    """HyperBand prunes rungs while the app runs on, audited every round.

    Two-GPU trials all fit, so every trial reaches a rung together and
    the worst half is killed mid-app (not by the completion sweep).
    """
    simulator = _tuned_sweeps(2, (0.3, 0.5, 0.7, 0.9), (0.4, 0.6, 0.8, 1.0))
    for app in simulator.apps:
        app.tuner = HyperBand(app, min_iterations=50.0, eta=2.0)
        # Nothing in the simulator reads an app between its tuner-step
        # ``invalidate()`` and the kills that follow, so a ``Job.kill``
        # that forgot ``on_mutate`` would go unseen.  Read there, as a
        # future tracer or metric might: the kill must bump the epoch
        # again or the audit finds the aggregates stale.
        app.invalidate = lambda app=app, bump=app.invalidate: (
            bump(), app.demand(), app.allocation()
        )
    audited = audit_freshness(simulator)
    result = simulator.run()
    assert result.completed and len(audited) == result.num_rounds
    for app in result.apps:
        assert any(
            job.state.value == "killed" and job.finished_at < app.finished_at
            for job in app.jobs
        ), f"{app.app_id}: no rung kill before the app finished"


def test_audit_under_hyperdrive_cap_rewrites():
    """HyperDrive rewrites ``parallelism_limit`` behind the Job mutators.

    Nothing fires ``on_mutate`` for it, so the simulator must invalidate
    on the tuner's behalf after every step; the audit sees a stale
    ``demand()`` the round that is forgotten.  An allocation install or
    a kill in between bumps the epoch anyway and hides the omission, so
    the trace is shaped (warm-up past the first renewals, a late second
    arrival) to rewrite a cap after a round that left the app alone —
    ``quiet`` below proves it still does.
    """
    simulator = _tuned_sweeps(4, (0.3, 0.5, 0.7, 0.9), (0.4, 0.8, 1.0))
    quiet: list[str] = []

    def watch(app):
        step, last_epoch = app.tuner.step, [None]

        def watched(now):
            caps = [job.parallelism_limit for job in app.jobs]
            # +1 is the simulator's own invalidate() after the last step.
            undisturbed = last_epoch[0] is not None and app.epoch == last_epoch[0] + 1
            victims = step(now)
            if undisturbed and caps != [job.parallelism_limit for job in app.jobs]:
                quiet.append(app.app_id)
            last_epoch[0] = app.epoch
            return victims

        app.tuner.step = watched

    for app in simulator.apps:
        app.tuner = HyperDrive(app, target_loss=0.5, warmup_iterations=60.0)
        watch(app)
    audited = audit_freshness(simulator)
    result = simulator.run()
    assert result.completed and len(audited) == result.num_rounds
    assert quiet, "no cap rewrite landed after an undisturbed round"
