"""Phase profiler: accumulation, nesting, and the null default."""

import time

import pytest

from repro.experiments.config import tiny_scenario
from repro.obs import NULL_PROFILER, NullProfiler, Observability, PhaseProfiler
from repro.experiments.runner import run_scenario
from repro.simulation.simulator import SimulationResult


def test_profiler_accumulates_seconds_and_calls():
    profiler = PhaseProfiler()
    for _ in range(3):
        with profiler.phase("assign"):
            pass
    snapshot = profiler.snapshot()
    assert snapshot["assign"]["calls"] == 3
    assert snapshot["assign"]["seconds"] >= 0.0
    assert snapshot["assign"]["self_seconds"] == snapshot["assign"]["seconds"]


def test_snapshot_orders_phases_by_cost():
    profiler = PhaseProfiler()
    with profiler.phase("slow"):
        time.sleep(0.005)
    with profiler.phase("fast"):
        pass
    assert list(profiler.snapshot()) == ["slow", "fast"]


def test_phases_nest_and_each_accrues_inclusive_time():
    profiler = PhaseProfiler()
    with profiler.phase("outer"):
        with profiler.phase("inner"):
            pass
    snapshot = profiler.snapshot()
    assert snapshot["outer"]["calls"] == 1 and snapshot["inner"]["calls"] == 1
    assert snapshot["outer"]["seconds"] >= snapshot["inner"]["seconds"]


def test_self_seconds_partition_the_root_phase():
    """assign > valuation > carve, twice over, plus a sibling and a re-entry."""
    profiler = PhaseProfiler()
    with profiler.phase("assign"):
        for _ in range(2):
            with profiler.phase("valuation"):
                with profiler.phase("carve"):
                    time.sleep(0.002)
                with profiler.phase("carve"):
                    pass
        with profiler.phase("auction_solve"):
            time.sleep(0.001)
    snapshot = profiler.snapshot()
    root = snapshot["assign"]["seconds"]
    # Inclusive times double-count the nesting; self times do not.
    assert sum(entry["seconds"] for entry in snapshot.values()) > root
    assert sum(entry["self_seconds"] for entry in snapshot.values()) == pytest.approx(root)
    # A leaf's self time is its inclusive time; a parent's excludes its children.
    assert snapshot["carve"]["self_seconds"] == snapshot["carve"]["seconds"]
    assert snapshot["valuation"]["self_seconds"] == pytest.approx(
        snapshot["valuation"]["seconds"] - snapshot["carve"]["seconds"]
    )
    assert snapshot["carve"]["calls"] == 4
    assert all(entry["self_seconds"] >= 0.0 for entry in snapshot.values())


def test_an_exception_unwinds_the_open_phase_stack():
    profiler = PhaseProfiler()
    with pytest.raises(RuntimeError):
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                raise RuntimeError("boom")
    with profiler.phase("after"):
        pass
    snapshot = profiler.snapshot()
    # "after" was opened at the top level: nothing of it lands in "outer".
    assert snapshot["outer"]["self_seconds"] == pytest.approx(
        snapshot["outer"]["seconds"] - snapshot["inner"]["seconds"]
    )
    assert sum(entry["self_seconds"] for entry in snapshot.values()) == pytest.approx(
        snapshot["outer"]["seconds"] + snapshot["after"]["seconds"]
    )


def test_null_profiler_is_a_shared_no_op():
    assert NULL_PROFILER.enabled is False
    assert NullProfiler().phase("a") is NULL_PROFILER.phase("b")
    with NULL_PROFILER.phase("anything"):
        pass
    assert NULL_PROFILER.snapshot() == {}


def _run(obs=None):
    return run_scenario(tiny_scenario(num_apps=3, seed=5), obs=obs)


def test_profile_lands_in_simulation_result():
    unprofiled = _run()
    assert unprofiled.profile == {}

    profiled = _run(obs=Observability(profiler=PhaseProfiler()))
    # The engine phases must show up with sane counts: one advance and
    # one assign per round, valuation/carve nested under assign.
    assert {"advance", "assign", "valuation", "carve"} <= set(profiled.profile)
    assert profiled.profile["assign"]["calls"] == profiled.num_rounds
    for entry in profiled.profile.values():
        assert entry["seconds"] >= entry["self_seconds"] >= 0.0 and entry["calls"] > 0
    # The carve is the innermost phase: nothing opens inside it.
    assert profiled.profile["carve"]["self_seconds"] == profiled.profile["carve"]["seconds"]

    # Profiling is observational: everything but the profile matches.
    a, b = unprofiled.to_json(), profiled.to_json()
    a.pop("profile"), b.pop("profile")
    assert a == b


def test_profile_payloads_without_self_seconds_still_load():
    """Results serialised before the self-time column keep loading as they are."""
    payload = _run(obs=Observability(profiler=PhaseProfiler())).to_json()
    for entry in payload["profile"].values():
        del entry["self_seconds"]
    assert SimulationResult.from_json(payload).profile == payload["profile"]
