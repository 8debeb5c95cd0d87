"""Tests for the ThemisScheduler wiring (agents, arbiter lifecycle)."""

import pytest

from repro.schedulers.themis import ThemisScheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import trace_app, trace_of, uniform_cluster


def cluster():
    return uniform_cluster(2, racks=2)


def trace(num_apps=3):
    return trace_of(*(trace_app(f"a{i}", float(i), 20.0) for i in range(num_apps)))


def build(scheduler=None, **kwargs):
    scheduler = scheduler or ThemisScheduler(**kwargs)
    sim = ClusterSimulator(
        cluster=cluster(),
        workload=trace(),
        scheduler=scheduler,
        config=SimulationConfig(lease_minutes=10.0),
    )
    return sim, scheduler


def test_bind_builds_estimator_and_arbiter():
    sim, scheduler = build()
    assert scheduler.estimator is not None
    assert scheduler.arbiter is not None
    assert scheduler.estimator.cluster is sim.cluster


def test_agents_created_and_removed_with_apps():
    sim, scheduler = build()
    result = sim.run()
    assert result.completed
    # Every app got an agent and a valuation state on arrival and lost
    # both on completion.
    assert scheduler.agents == {}
    assert scheduler.states == {}


def test_agents_win_auctions():
    sim, scheduler = build()
    sim.run()
    assert scheduler.arbiter.rounds > 0


def test_config_forwarding():
    _, scheduler = build(
        fairness_knob=0.6, noise_theta=0.05, hidden_payments=False,
        leftover_allocation=False,
    )
    assert scheduler.config.fairness_knob == 0.6
    assert scheduler.config.noise_theta == 0.05
    assert not scheduler.config.hidden_payments
    assert not scheduler.config.leftover_allocation


def test_invalid_knob_rejected():
    with pytest.raises(ValueError):
        ThemisScheduler(fairness_knob=2.0)


def test_assign_before_arrivals_is_empty():
    sim, scheduler = build()
    # No apps have arrived yet: nothing to assign.
    assert scheduler.assign(0.0, sim.leases.pool_for_auction(0.0)) == {}


def test_deterministic_given_seed():
    sim_a, _ = build()
    sim_b, _ = build()
    result_a = sim_a.run()
    result_b = sim_b.run()
    assert result_a.rhos() == result_b.rhos()
