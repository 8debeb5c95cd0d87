"""Focused tests for the leftover-allocation stage of the ARBITER."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.topology import GPU_TYPES, ClusterSpec, MachineSpec, build_cluster
from repro.core.agent import Agent
from repro.core.arbiter import Arbiter, ArbiterConfig
from repro.core.fairness import AppValuationState, FairnessEstimator

from helpers import group_pool, make_app, reference_leftovers


@pytest.fixture
def estimator(small_cluster):
    return FairnessEstimator(small_cluster)


def test_leftovers_prefer_machines_already_held(small_cluster, estimator):
    """Leftovers land on machines their receiver already occupies.

    One starved participant takes what it needs; the surplus on machine
    2 must go to the non-participant already running there rather than
    the one running on machine 0.
    """
    arbiter = Arbiter(
        small_cluster, ArbiterConfig(fairness_knob=1.0), rng=np.random.default_rng(1)
    )
    # The only starved app: sole auction participant (worst rho = inf).
    starving = make_app("starving", num_jobs=1, arrival=0.0, max_parallelism=2)
    # Non-participant holding machine 0's first pair, wants more.
    holder0 = make_app("holder0", num_jobs=2, arrival=50.0, max_parallelism=2)
    holder0.jobs[0].set_allocation(
        0.0, Allocation(small_cluster.gpus_on_machine(0)[:2])
    )
    # Non-participant holding one GPU on machine 2, wants more.
    holder2 = make_app("holder2", num_jobs=2, arrival=55.0, max_parallelism=2)
    holder2.jobs[0].set_allocation(
        0.0, Allocation(small_cluster.gpus_on_machine(2)[:1])
    )
    agents = {
        "starving": Agent(AppValuationState(starving, estimator)),
        "holder0": Agent(AppValuationState(holder0, estimator)),
        "holder2": Agent(AppValuationState(holder2, estimator)),
    }
    # Pool: machine 0's second pair plus machine 2's remaining GPU.
    pool = group_pool(
        list(small_cluster.gpus_on_machine(0)[2:]) + [small_cluster.gpus_on_machine(2)[1]]
    )
    grants = arbiter.offer_resources(90.0, pool, agents)
    # The starving participant wins its demand.
    assert len(grants.get("starving", [])) == 2
    # The machine-2 leftover goes to the app already on machine 2.
    machine2_receivers = {
        app_id
        for app_id, gpus in grants.items()
        if any(gpu.machine_id == 2 for gpu in gpus)
    }
    assert machine2_receivers <= {"holder2", "starving"}


def eligible(agents):
    """The round's eligible apps: those with unmet demand, in agent order."""
    return [app_id for app_id, agent in agents.items() if agent.app.unmet_demand() > 0]


def test_empty_leftover_returns_zero_without_drawing(small_cluster, estimator):
    arbiter = Arbiter(small_cluster, rng=np.random.default_rng(3))
    app = make_app("a", num_jobs=2, max_parallelism=2)
    agents = {"a": Agent(AppValuationState(app, estimator))}
    before = arbiter.rng.bit_generator.state
    assignments: dict = {}
    assert arbiter._assign_leftovers({}, eligible(agents), [], agents, assignments) == 0
    assert assignments == {}
    assert arbiter.rng.bit_generator.state == before


def test_a_leftover_grant_makes_its_receiver_co_located(small_cluster, estimator):
    """Nobody holds machine 1, so its first GPU goes to a random app
    with headroom; that non-participant now occupies the machine, so it
    is the only co-located candidate for the machine's next GPU."""
    for seed in range(12):
        arbiter = Arbiter(small_cluster, rng=np.random.default_rng(seed))
        agents = {
            app_id: Agent(AppValuationState(make_app(app_id, num_jobs=2, max_parallelism=2), estimator))
            for app_id in ("a", "b", "c")
        }
        assignments: dict = {}
        assert arbiter._assign_leftovers({1: 2}, eligible(agents), [], agents, assignments) == 0
        assert list(assignments.values()) == [{1: 2}]


def test_leftovers_fall_back_to_any_demand(small_cluster, estimator):
    """With no affine non-participant, leftovers still get used."""
    arbiter = Arbiter(
        small_cluster, ArbiterConfig(fairness_knob=1.0), rng=np.random.default_rng(2)
    )
    a = make_app("a", num_jobs=3, arrival=0.0, max_parallelism=2)
    b = make_app("b", num_jobs=3, arrival=10.0, max_parallelism=2)
    agents = {"a": Agent(AppValuationState(a, estimator)), "b": Agent(AppValuationState(b, estimator))}
    pool = group_pool(small_cluster.gpus)
    grants = arbiter.offer_resources(60.0, pool, agents)
    granted = sum(len(g) for g in grants.values())
    # Demand (12) >= pool (12): everything must be used.
    assert granted == small_cluster.num_gpus


def test_unwanted_leftovers_stay_free(small_cluster, estimator):
    """When total demand < pool, surplus GPUs remain unassigned."""
    arbiter = Arbiter(small_cluster, ArbiterConfig(fairness_knob=0.5))
    a = make_app("a", num_jobs=1, arrival=0.0, max_parallelism=2)  # demand 2
    agents = {"a": Agent(AppValuationState(a, estimator))}
    grants = arbiter.offer_resources(30.0, group_pool(small_cluster.gpus), agents)
    granted = sum(len(g) for g in grants.values())
    assert granted == 2


def test_leftovers_drain_the_fastest_generation_first():
    """One GPU wanted, one left on a k80 machine and one on a v100
    machine: the v100 GPU is handed out, the k80 one stays free."""
    cluster = build_cluster(
        ClusterSpec(
            machine_specs=tuple(
                MachineSpec(count=1, gpus_per_machine=2, gpu_type=GPU_TYPES[kind])
                for kind in ("k80", "v100")
            ),
            num_racks=1,
            name="mixed",
        )
    )
    arbiter = Arbiter(cluster, ArbiterConfig(fairness_knob=1.0))
    app = make_app("wants-one", num_jobs=1, max_parallelism=1)
    agents = {"wants-one": Agent(AppValuationState(app, FairnessEstimator(cluster)))}
    assignments: dict = {}
    assert arbiter._assign_leftovers({0: 1, 1: 1}, eligible(agents), [], agents, assignments) == 1
    assert assignments == {"wants-one": {1: 1}}


#: Three generations, the fastest neither first nor last by machine id,
#: and two machines of each speed so ties break on the id.
MIXED = build_cluster(
    ClusterSpec(
        machine_specs=tuple(
            MachineSpec(count=2, gpus_per_machine=gpus, gpu_type=GPU_TYPES[kind])
            for kind, gpus in (("k80", 4), ("v100", 2), ("p100", 4))
        ),
        num_racks=2,
        name="mixed-3",
    )
)
MIXED_ESTIMATOR = FairnessEstimator(MIXED)


@st.composite
def leftover_rounds(draw):
    """``(leftover, participants, agents, assignments, seed)``: apps whose
    jobs hold disjoint GPUs up to their caps, winner bundles for some
    participants (sometimes past their demand), and a leftover that
    overlaps the held machines."""
    free = list(MIXED.gpus)
    draw(st.randoms(use_true_random=False)).shuffle(free)
    agents = {}
    for i in range(draw(st.integers(1, 5))):
        app = make_app(
            f"app{i}",
            num_jobs=draw(st.integers(1, 3)),
            max_parallelism=draw(st.integers(1, 4)),
        )
        for job in app.jobs:
            held = draw(st.integers(0, min(job.max_parallelism, len(free))))
            if held:
                job.set_allocation(0.0, Allocation(free[:held]))
                del free[:held]
        agents[app.app_id] = Agent(AppValuationState(app, MIXED_ESTIMATOR))
    participants = draw(st.lists(st.sampled_from(sorted(agents)), unique=True))
    machine_ids = [machine.machine_id for machine in MIXED.machines]
    assignments = {
        app_id: draw(st.dictionaries(st.sampled_from(machine_ids), st.integers(1, 3), max_size=2))
        for app_id in participants
        if draw(st.booleans())
    }
    leftover = draw(st.dictionaries(st.sampled_from(machine_ids), st.integers(1, 4)))
    return leftover, participants, agents, assignments, draw(st.integers(0, 2**32 - 1))


def _ordered(assignments):
    return [(app_id, list(bundle.items())) for app_id, bundle in assignments.items()]


@settings(max_examples=200, deadline=None)
@given(leftover_rounds())
def test_the_leftover_pass_matches_the_reference(case):
    """Looking only at the eligible apps with headroom and walking the
    leftover's machines in ranked drain order grants what the all-apps,
    all-machines pass granted, in the same order, and leaves the rng
    exactly where it left it."""
    leftover, participants, agents, assignments, seed = case
    fast = Arbiter(MIXED, rng=np.random.default_rng(seed))
    slow = Arbiter(MIXED, rng=np.random.default_rng(seed))
    fast_assignments, slow_assignments = copy.deepcopy(assignments), copy.deepcopy(assignments)
    unassigned = fast._assign_leftovers(
        leftover, eligible(agents), participants, agents, fast_assignments
    )
    assert unassigned == reference_leftovers(
        slow, leftover, participants, agents, slow_assignments
    )
    assert _ordered(fast_assignments) == _ordered(slow_assignments)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
