"""Unit tests for the ARBITER's scheduling rounds."""

import copy
import math

import numpy as np
import pytest

from repro.cluster.allocation import Allocation
from repro.core.agent import Agent
from repro.core.arbiter import Arbiter, ArbiterConfig
from repro.core.fairness import AppValuationState, FairnessEstimator
from repro.experiments.config import sim_scenario
from repro.workload.app import App

from helpers import group_pool, make_app, simulator


@pytest.fixture
def estimator(small_cluster):
    return FairnessEstimator(small_cluster)


@pytest.fixture
def probed(monkeypatch):
    """App ids in the order their AGENTs answered a rho probe."""
    seen: list[str] = []
    report_rho = Agent.report_rho

    def recorded(agent, *args):
        seen.append(agent.app_id)
        return report_rho(agent, *args)

    monkeypatch.setattr(Agent, "report_rho", recorded)
    return seen


def agents_for(estimator, specs):
    """Agents for (app_id, num_jobs, elapsed_minutes) specs."""
    agents = {}
    for app_id, num_jobs, arrival in specs:
        app = make_app(app_id=app_id, num_jobs=num_jobs, arrival=arrival, max_parallelism=2)
        agents[app_id] = Agent(AppValuationState(app, estimator))
    return agents


def test_config_validation():
    with pytest.raises(ValueError):
        ArbiterConfig(fairness_knob=1.5)
    with pytest.raises(ValueError):
        ArbiterConfig(noise_theta=1.0)


def test_select_participants_worst_rho_first(small_cluster):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.5))
    rhos = {"a": 1.0, "b": 5.0, "c": 3.0, "d": math.inf}
    chosen = arbiter.select_participants(rhos, ["a", "b", "c", "d"])
    # 1 - f = 0.5 of 4 apps = 2 worst: the starved app and rho=5.
    assert chosen == ["d", "b"]


def test_select_participants_rounds_the_share_up(small_cluster):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.8))
    rhos = {app_id: float(rank) for rank, app_id in enumerate("abcdefg")}
    # ceil((1 - 0.8) * 7) = ceil(1.4): the two worst apps.
    assert arbiter.select_participants(rhos, list(rhos)) == ["g", "f"]


def test_select_participants_at_least_one(small_cluster):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=1.0))
    chosen = arbiter.select_participants({"a": 1.0, "b": 2.0}, ["a", "b"])
    assert chosen == ["b"]


def test_select_participants_f_zero_includes_all(small_cluster):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.0))
    chosen = arbiter.select_participants({"a": 1.0, "b": 2.0}, ["a", "b"])
    assert set(chosen) == {"a", "b"}


def test_offer_resources_assigns_pool(small_cluster, estimator):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.0))
    agents = agents_for(estimator, [("a", 2, 0.0), ("b", 2, 0.0)])
    grants = arbiter.offer_resources(10.0, group_pool(small_cluster.gpus), agents)
    granted_ids = [gpu.gpu_id for gpus in grants.values() for gpu in gpus]
    assert len(granted_ids) == len(set(granted_ids))  # disjoint
    total_demand = sum(agent.app.unmet_demand() for agent in agents.values())
    assert len(granted_ids) <= min(small_cluster.num_gpus, total_demand)
    # Contended pool, all demand should be served (work conserving).
    assert len(granted_ids) == total_demand


def test_offer_resources_empty_pool(small_cluster, estimator):
    arbiter = Arbiter(small_cluster)
    agents = agents_for(estimator, [("a", 1, 0.0)])
    assert arbiter.offer_resources(0.0, {}, agents) == {}


def test_offer_resources_no_demand(small_cluster, estimator, probed):
    """No app is eligible: nobody is probed, nobody bids, no auction runs."""
    arbiter = Arbiter(small_cluster)
    app = make_app("full", num_jobs=1, max_parallelism=2)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    agents = {"full": Agent(AppValuationState(app, estimator))}
    grants = arbiter.offer_resources(
        0.0, group_pool(small_cluster.gpus[4:]), agents
    )
    assert grants == {}
    assert probed == []
    assert agents["full"].bids_prepared == 0
    assert arbiter.history == []


def test_a_satisfied_app_is_never_probed(small_cluster, estimator, probed):
    """rho only ranks the apps that can bid: an app whose jobs all run
    at their caps answers no probe, round after round."""
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.0))
    full = make_app("full", num_jobs=1, max_parallelism=2)
    full.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    hungry = make_app("hungry", num_jobs=2, max_parallelism=2)
    agents = {
        "full": Agent(AppValuationState(full, estimator)),
        "hungry": Agent(AppValuationState(hungry, estimator)),
    }
    pool = group_pool(small_cluster.gpus[2:])
    for now in (10.0, 20.0):
        grants = arbiter.offer_resources(now, pool, agents)
        assert set(grants) == {"hungry"}
    assert probed == ["hungry", "hungry"]
    assert [(rs.num_active, rs.num_eligible) for rs in arbiter.history] == [(2, 1), (2, 1)]


def test_every_round_offers_the_worst_off_eligible_apps():
    """On a contended replay, each auction's participants are exactly the
    worst ``ceil((1 - f) * E)`` of its ``E`` eligible apps by a rho
    recomputed from scratch (a copy of the app, a fresh estimator)."""
    scenario = (
        sim_scenario(num_apps=10, seed=11, duration_scale=0.15)
        .replace(cluster_scale=16 / 256.0)
        .with_generator(
            mean_interarrival_minutes=3.0, jobs_per_app_median=3.0, jobs_per_app_max=6
        )
    )
    sim = simulator(scenario)
    scheduler = sim.scheduler
    arbiter = scheduler.arbiter
    estimator = FairnessEstimator(
        sim.cluster, semantics=sim.config.semantics, perf_model=sim.perf_model
    )
    inner = scheduler.assign
    sizes = []

    def assign(now, pool):
        eligible = [
            app_id for app_id, agent in scheduler.agents.items()
            if agent.app.unmet_demand() > 0
        ]
        fresh = {}
        for app_id in eligible:
            app = scheduler.agents[app_id].app
            shadow = App(app_id, app.arrival_time, [copy.copy(j) for j in app.jobs], app.semantics)
            fresh[app_id] = AppValuationState(shadow, estimator).current_rho(now)
        rounds = len(arbiter.history)
        grants = inner(now, pool)
        if len(arbiter.history) == rounds:  # no auction: nothing to offer or nobody to bid
            assert not pool or not eligible
            return grants
        count = math.ceil((1.0 - scheduler.config.fairness_knob) * len(eligible))
        worst = sorted(eligible, key=lambda app_id: (-fresh[app_id], app_id))[:count]
        assert arbiter.last_outcome.participants == tuple(sorted(worst)), f"t={now:.3f}"
        assert arbiter.history[-1].num_eligible == len(eligible)
        sizes.append((len(eligible), count))
        return grants

    scheduler.assign = assign
    sim.run()
    # The filter is exercised: wide rounds, and rounds with several bidders.
    assert max(eligible for eligible, _ in sizes) >= 6
    assert max(count for _, count in sizes) >= 2


def test_leftovers_go_to_non_participants(small_cluster, estimator):
    # High f: only the single worst app bids; payments leave leftovers
    # that must flow to the other (non-participating) apps.
    arbiter = Arbiter(
        small_cluster,
        ArbiterConfig(fairness_knob=1.0),
        rng=np.random.default_rng(0),
    )
    agents = agents_for(estimator, [("a", 3, 50.0), ("b", 3, 40.0), ("c", 3, 30.0)])
    grants = arbiter.offer_resources(60.0, group_pool(small_cluster.gpus), agents)
    # Only one app participates, but the whole 12-GPU pool is drained
    # (demand is 3 apps x 6 = 18 > 12).
    granted_total = sum(len(gpus) for gpus in grants.values())
    assert granted_total == small_cluster.num_gpus
    assert len(grants) >= 2  # someone beyond the single participant got GPUs


def test_leftover_allocation_disabled(small_cluster, estimator):
    arbiter = Arbiter(
        small_cluster,
        ArbiterConfig(fairness_knob=1.0, leftover_allocation=False),
    )
    agents = agents_for(estimator, [("a", 1, 50.0), ("b", 1, 40.0)])
    grants = arbiter.offer_resources(60.0, group_pool(small_cluster.gpus), agents)
    # Only the participant can win anything.
    assert set(grants) <= {"a"}


def test_unchanged_apps_pay_no_base_carve_in_the_next_round(
    small_cluster, estimator, monkeypatch
):
    """Holdings and rate signatures unchanged: round two's rho probes
    are pure shape-cache hits (no round-start prime needed for that)."""
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.0))
    agents = agents_for(estimator, [("a", 2, 0.0), ("b", 2, 0.0)])
    held = [small_cluster.machines[0].gpus[:2], small_cluster.machines[1].gpus[:1]]
    for agent, gpus in zip(agents.values(), held):
        agent.app.jobs[0].set_allocation(0.0, Allocation(gpus))
    taken = {gpu.gpu_id for gpus in held for gpu in gpus}
    pool = group_pool(gpu for gpu in small_cluster.gpus if gpu.gpu_id not in taken)
    probe_carves = []
    report_rho = Agent.report_rho

    def counted(agent, *args):
        before = estimator.carve_count
        rho = report_rho(agent, *args)
        probe_carves[-1] += estimator.carve_count - before
        return rho

    monkeypatch.setattr(Agent, "report_rho", counted)
    for now in (10.0, 20.0):
        probe_carves.append(0)
        arbiter.offer_resources(now, pool, agents)
    assert probe_carves == [2, 0]


def test_each_round_refreshes_what_changed_since_the_last(small_cluster, estimator):
    """Each round refreshes every AGENT's state: the next round sees the
    holdings that moved in between."""
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=1.0))
    agents = agents_for(estimator, [("a", 2, 0.0), ("b", 1, 0.0)])
    held = Allocation(small_cluster.machines[0].gpus[:2])
    agents["b"].app.jobs[0].set_allocation(0.0, held)
    pool = group_pool(small_cluster.machines[1].gpus)
    arbiter.offer_resources(10.0, pool, agents)
    assert arbiter.last_outcome.participants == ("a",)  # starved: rho = inf
    agents["b"].app.jobs[0].set_allocation(0.0, Allocation())
    agents["a"].app.jobs[0].set_allocation(0.0, held)
    arbiter.offer_resources(20.0, pool, agents)
    assert arbiter.last_outcome.participants == ("b",)


def test_round_stats_recorded(small_cluster, estimator):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.5))
    agents = agents_for(estimator, [("a", 2, 10.0), ("b", 2, 5.0)])
    arbiter.offer_resources(20.0, group_pool(small_cluster.gpus), agents)
    assert arbiter.rounds == 1
    assert len(arbiter.history) == 1
    stats = arbiter.history[0]
    assert stats.pool_size == small_cluster.num_gpus
    assert stats.num_participants == 1


def test_agents_track_wins(small_cluster, estimator):
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.0))
    agents = agents_for(estimator, [("a", 2, 10.0)])
    arbiter.offer_resources(20.0, group_pool(small_cluster.gpus), agents)
    assert agents["a"].auctions_won == 1
    assert agents["a"].bids_prepared == 1


def test_agent_report_rho_noise_bounds(small_cluster, estimator):
    app = make_app("a", num_jobs=1, max_parallelism=2)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    app.jobs[0].advance_to(10.0)
    exact = Agent(AppValuationState(app, estimator), noise_theta=0.0).report_rho(10.0, salt=3)
    noisy = Agent(AppValuationState(app, estimator), noise_theta=0.2).report_rho(10.0, salt=3)
    assert abs(noisy - exact) / exact <= 0.2 + 1e-9


def test_agent_noise_validation(small_cluster, estimator):
    app = make_app()
    with pytest.raises(ValueError):
        Agent(AppValuationState(app, estimator), noise_theta=1.0)
