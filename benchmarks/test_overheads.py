"""Section 8.3.2: AGENT and ARBITER latency microbenchmarks.

The paper measures 29 ms (median) / 334 ms (p95) for bid preparation
and 354 ms / 1398 ms for the Gurobi partial-allocation solve.  These
benchmarks time the same two operations in this reproduction on a
contended 256-GPU market; pytest-benchmark reports the distribution.
Absolute numbers differ (pure Python vs JVM + Gurobi) but should stay
well under the 20-minute lease, which is the paper's operative claim.
"""

import pytest

from repro.cluster.topology import themis_sim_cluster
from repro.core.agent import Agent
from repro.core.arbiter import Arbiter, ArbiterConfig
from repro.core.auction import PartialAllocationAuction
from repro.core.fairness import AppValuationState, FairnessEstimator
from repro.core.leases import LeaseManager
from repro.workload.generator import GeneratorConfig, generate_trace

_CLUSTER = themis_sim_cluster()


def _market(num_apps: int, elapsed: float = 45.0):
    """A contended market: apps fresh off the generator, nothing placed."""
    estimator = FairnessEstimator(_CLUSTER)
    trace = generate_trace(
        GeneratorConfig(num_apps=num_apps, seed=11, duration_scale=0.4)
    )
    agents = {
        app.app_id: Agent(AppValuationState(app, estimator)) for app in trace.instantiate()
    }
    # Half the cluster's GPUs are up for auction, grouped by machine.
    pool = LeaseManager(_CLUSTER.gpus[: _CLUSTER.num_gpus // 2]).pool_for_auction(0.0)
    offered = {machine_id: len(gpus) for machine_id, gpus in pool.items()}
    return estimator, agents, pool, offered, elapsed


def test_agent_bid_preparation_latency(benchmark):
    """AGENT: turn a 128-GPU offer into a bid with a valuation table."""
    _, agents, _, offered, elapsed = _market(num_apps=8)
    agent = next(iter(agents.values()))

    def prepare():
        bid = agent.prepare_bid(elapsed, dict(offered), salt=agent.bids_prepared)
        return bid.table(max_entries=64)

    table = benchmark(prepare)
    assert len(table) >= 2


def test_arbiter_partial_allocation_latency(benchmark):
    """ARBITER: solve the PA mechanism over 8 bidding apps."""
    estimator, agents, _, offered, elapsed = _market(num_apps=8)
    auction = PartialAllocationAuction()
    bids = {
        app_id: agent.prepare_bid(elapsed, dict(offered), salt=1)
        for app_id, agent in agents.items()
    }

    outcome = benchmark(lambda: auction.run(offered, bids))
    assert outcome.total_allocated + outcome.total_leftover == sum(offered.values())


def test_arbiter_full_round_latency(benchmark):
    """ARBITER: a complete OFFERRESOURCES round (probe, filter, auction,
    leftovers, concretise) over 16 active apps."""
    _, agents, pool, offered, elapsed = _market(num_apps=16)
    arbiter = Arbiter(_CLUSTER, ArbiterConfig(fairness_knob=0.8))

    grants = benchmark(lambda: arbiter.offer_resources(elapsed, pool, agents))
    granted = sum(len(g) for g in grants.values())
    assert 0 < granted <= sum(offered.values())
