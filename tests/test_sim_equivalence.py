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
from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.hyperparam.hyperband import HyperBand
from repro.hyperparam.hyperdrive import HyperDrive
from repro.metrics import METRICS
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.app import CompletionSemantics
from repro.workload.trace import Trace, TraceApp, TraceJob

from helpers import assert_golden, assert_golden_carves, audit_freshness

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


def _simulator(scenario, scheduler_name, failures=()):
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=make_scheduler(scheduler_name),
        config=scenario.build_sim_config(),
        perf_model=scenario.build_perf_model(),
    )
    if failures:
        FailureInjector(
            [MachineFailure(machine_id=m, at=at, duration=d) for m, at, d in failures]
        ).install(simulator)
    return simulator


def _tiny(seed):
    return tiny_scenario(num_apps=3, seed=seed)


def _tiny_hetero(seed):
    return hetero_scenario(
        num_apps=3, seed=seed, duration_scale=0.05
    ).replace(cluster_scale=0.25, lease_minutes=10.0)


def _first_winner(seed, num_apps=3):
    return tiny_scenario(num_apps=num_apps, seed=seed).replace(
        semantics=CompletionSemantics.FIRST_WINNER
    )


# ----------------------------------------------------------------------
# Frozen digests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_homogeneous(scheduler_name, seed):
    result = _simulator(_tiny(seed), scheduler_name).run()
    assert_golden(f"homo/{scheduler_name}/seed{seed}", result)


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_hetero(scheduler_name, seed):
    result = _simulator(_tiny_hetero(seed), scheduler_name).run()
    assert_golden(f"hetero/{scheduler_name}/seed{seed}", result)


FAILURES = ((0, 20.0, 30.0), (3, 45.0, 60.0))


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_golden_under_failures(seed):
    result = _simulator(_tiny(seed), "themis", FAILURES).run()
    assert_golden(f"failures/themis/seed{seed}", result)


@pytest.mark.parametrize("seed", (5,) + SEEDS)
def test_golden_first_winner_semantics(seed):
    result = _simulator(_first_winner(seed), "themis").run()
    assert_golden(f"first-winner/themis/seed{seed}", result)


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
    simulator = _simulator(_first_winner(7, num_apps=10), "themis")
    assert_golden("first-winner/themis/seed7x10", simulator.run())
    assert_golden_carves(
        "first-winner/themis/seed7x10", simulator.scheduler.estimator.carve_count
    )


def test_valuation_state_is_reused_across_rounds():
    """291 carves, same answers (when every active app was probed, reuse
    took 305 and rebuilding every round 322)."""
    simulator = _simulator(_tiny(7), "themis")
    assert_golden("homo/themis/seed7", simulator.run())
    assert_golden_carves("homo/themis/seed7", simulator.scheduler.estimator.carve_count)


def test_probe_and_payment_accounting_on_a_contended_replay():
    """Several bidders per auction: probes and payments add up (128
    carves; when every active app was probed, reuse took 130 and
    rebuilding every round 346).  The pair memo's hits here all came
    from payment re-solves rebuilding every row after a replayed move
    prefix; they resume the full solve's heap now, so the memo is held
    to engaging on the wider replays of tests/test_replay_gates.py."""
    simulator = _simulator(CONTENDED_XS, "themis")
    result = simulator.run()
    assert_golden("contended-xs/themis", result)
    carves = simulator.scheduler.estimator.carve_count
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
    assert 0 < totals["valuation_probes"] <= carves
    assert totals["valuation_lookups"] > totals["valuation_probes"]
    # Some winners paid, each withholding at least one GPU; the ledger's
    # METRICS columns read these totals.
    assert 0 < totals["num_paid"] <= totals["num_pf_winners"]
    assert totals["gpus_withheld"] >= totals["num_paid"]
    assert METRICS["paid_share"](result) == totals["num_paid"] / totals["num_pf_winners"]
    assert METRICS["gpus_withheld"](result) == totals["gpus_withheld"]


def test_canonical_json_strips_only_instrumentation():
    result = _simulator(_tiny(3), "themis").run()
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
@pytest.mark.parametrize(
    "cell, build",
    [
        ("homo/themis/seed0", lambda: _simulator(_tiny(0), "themis")),
        ("hetero/themis/seed1", lambda: _simulator(_tiny_hetero(1), "themis")),
        ("failures/themis/seed0", lambda: _simulator(_tiny(0), "themis", FAILURES)),
        ("first-winner/themis/seed5", lambda: _simulator(_first_winner(5), "themis")),
        (
            "contended-xs/themis",
            lambda: _simulator(CONTENDED_XS, "themis"),
        ),
        ("homo/tiresias/seed2", lambda: _simulator(_tiny(2), "tiresias")),
        ("hetero/gandiva/seed1", lambda: _simulator(_tiny_hetero(1), "gandiva")),
        ("homo/strawman/seed2", lambda: _simulator(_tiny(2), "strawman")),
    ],
)
def test_every_cache_is_fresh_every_round(cell, build):
    simulator = build()
    audited = audit_freshness(simulator)
    result = simulator.run()
    assert len(audited) == result.num_rounds > 0
    # The audit only reads: the audited replay is the frozen one.
    assert_golden(cell, result)


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
        cluster=build_cluster(
            ClusterSpec(
                machine_specs=(MachineSpec(count=3, gpus_per_machine=4),),
                num_racks=1,
                name="sweeps",
            )
        ),
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
