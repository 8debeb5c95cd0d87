"""Incremental-vs-cold equivalence: the dirty-tracking correctness suite.

The cross-round incremental valuation pipeline (AGENT snapshot reuse,
rate-signature caches, the tracked lease pool, the held-jobs advance
loop, epoch-memoised app aggregates) is pure reuse: with
``SimulationConfig.incremental`` on or off, a simulation must produce a
byte-identical ``SimulationResult.to_json()`` — the only permitted
difference is the ``incremental`` flag inside the serialised config.
These tests prove that for **every registered scheduler** across
multiple seeds, on homogeneous and mixed-generation clusters, and under
failure injection — the same oracle style as
``tests/test_auction_equivalence.py`` uses for the auction solver.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.config import hetero_scenario, tiny_scenario
from repro.perf.bench import SimBenchProfile, canonical_result_json, run_sim_once
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator
from repro.workload.app import CompletionSemantics

SEEDS = (0, 1, 2)


def _run(scenario, scheduler_name, incremental, failures=()):
    scheduler = make_scheduler(scheduler_name)
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=scheduler,
        config=replace(scenario.build_sim_config(), incremental=incremental),
    )
    if failures:
        injector = FailureInjector(
            [MachineFailure(machine_id=m, at=at, duration=d) for m, at, d in failures]
        )
        injector.install(simulator)
    result = simulator.run()
    return canonical_result_json(result), scheduler


def _tiny(seed):
    return tiny_scenario(num_apps=3, seed=seed)


def _tiny_hetero(seed):
    return hetero_scenario(
        num_apps=3, seed=seed, duration_scale=0.05
    ).replace(cluster_scale=0.25, lease_minutes=10.0)


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_byte_identical_results_homogeneous(scheduler_name, seed):
    scenario = _tiny(seed)
    incremental, _ = _run(scenario, scheduler_name, True)
    cold, _ = _run(scenario, scheduler_name, False)
    assert incremental == cold


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_byte_identical_results_hetero(scheduler_name, seed):
    scenario = _tiny_hetero(seed)
    incremental, _ = _run(scenario, scheduler_name, True)
    cold, _ = _run(scenario, scheduler_name, False)
    assert incremental == cold


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_byte_identical_under_failures(seed):
    scenario = _tiny(seed)
    failures = ((0, 20.0, 30.0), (3, 45.0, 60.0))
    incremental, _ = _run(scenario, "themis", True, failures)
    cold, _ = _run(scenario, "themis", False, failures)
    assert incremental == cold


@pytest.mark.parametrize("seed", (5,) + SEEDS)
def test_byte_identical_first_winner_semantics(seed):
    scenario = _tiny(seed).replace(semantics=CompletionSemantics.FIRST_WINNER)
    incremental, _ = _run(scenario, "themis", True)
    cold, _ = _run(scenario, "themis", False)
    assert incremental == cold


def test_first_winner_reuses_pair_kernels():
    """The FIRST_WINNER rate-signature cache must engage end to end.

    FIRST_WINNER apps are short-lived (the first finishing job ends the
    app, killing the rest), so cross-round reuse windows are narrower
    than under ALL_JOBS — the carve saving is small but must be real;
    the per-bundle reuse properties themselves are pinned in
    tests/test_incremental_valuation.py.
    """
    scenario = tiny_scenario(num_apps=10, seed=7).replace(
        semantics=CompletionSemantics.FIRST_WINNER
    )
    _, warm_sched = _run(scenario, "themis", True)
    _, cold_sched = _run(scenario, "themis", False)
    assert warm_sched.estimator.carve_count > 0
    assert warm_sched.estimator.carve_count < cold_sched.estimator.carve_count


def test_incremental_actually_reuses_valuation_state():
    """The fast path must engage: fewer carves, same answers."""
    scenario = _tiny(7)
    _, warm_sched = _run(scenario, "themis", True)
    _, cold_sched = _run(scenario, "themis", False)
    assert warm_sched.estimator.carve_count > 0
    assert warm_sched.estimator.carve_count < cold_sched.estimator.carve_count


def test_pair_memo_and_probe_accounting_are_mode_independent():
    """Contended replay, incremental vs cold: same bytes, same solver work.

    Contended enough that auctions see several bidders — the hidden-
    payment re-solves then rebuild their heaps from each bid's pair
    memo, in both modes alike: the memo dies with the bid, so nothing
    about it (or about any other solver counter) can depend on what the
    valuation caches kept across rounds.  Only the carves differ.
    """
    profile = SimBenchProfile(
        name="t-memo-xs",
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
    inc_stats = inc["result"].round_stats
    cold_stats = cold["result"].round_stats
    assert inc_stats["rounds"] == cold_stats["rounds"] > 0
    assert all(
        "heap_warm_hits" in row and "heap_warm_misses" in row
        for row in inc_stats["per_round"]
    )
    assert inc_stats["totals"]["heap_warm_hits"] > 0
    carve_keys = ("valuation_probes", "rescore_carves")
    solver_keys = [k for k in inc_stats["totals"] if k not in carve_keys]
    assert {k: inc_stats["totals"][k] for k in solver_keys} == {
        k: cold_stats["totals"][k] for k in solver_keys
    }
    # Probe accounting stays honest: every carve the bids observed is a
    # real kernel cache miss of the shared estimator.
    for run in (inc, cold):
        probes = run["result"].round_stats["totals"]["valuation_probes"]
        assert 0 < probes <= run["rho_probes"]
    assert inc["rho_probes"] < cold["rho_probes"]


def test_config_flag_is_the_only_config_difference():
    scenario = _tiny(3)
    scheduler = make_scheduler("fifo")
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=scheduler,
        config=replace(scenario.build_sim_config(), incremental=False),
    )
    result = simulator.run()
    payload = result.to_json()
    assert payload["config"]["incremental"] is False
    # canonical_result_json strips exactly that config key (plus the
    # top-level round_stats/profile instrumentation) and nothing else.
    canon = json.loads(canonical_result_json(result))
    assert "incremental" not in canon["config"]
    assert "round_stats" not in canon and "profile" not in canon
    payload["config"].pop("incremental")
    assert canon["config"] == payload["config"]
