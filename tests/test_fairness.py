"""Unit tests for the finish-time fairness estimator and carve."""

import math

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.placement import LocalityLevel
from repro.cluster.topology import NVLINK_GROUP_SIZE
from repro.core.assignment import concretise
from repro.core.fairness import (
    VALUE_CEILING,
    AppValuationState,
    FairnessEstimator,
    carve_allotments,
    value_from_rho,
)
from repro.workload.app import CompletionSemantics

from helpers import make_app, make_job


def rack_map(cluster):
    return {m.machine_id: m.rack_id for m in cluster.machines}


def test_carve_prefers_colocated_machines(small_cluster):
    # One job, cap 4: one whole 4-GPU machine beats 2+2.
    jobs = [make_job("a", max_parallelism=4)]
    allotments = carve_allotments(jobs, {0: 4, 2: 2, 3: 2}, rack_map(small_cluster))
    assert allotments[0].gpus == 4
    assert allotments[0].level == LocalityLevel.MACHINE


def test_carve_slot_level_for_pairs(small_cluster):
    jobs = [make_job("a", max_parallelism=2)]
    allotments = carve_allotments(jobs, {0: 2}, rack_map(small_cluster))
    assert allotments[0].level == LocalityLevel.SLOT
    assert allotments[0].slowdown == 1.0


def test_carve_spill_degrades_level(small_cluster):
    # Machines 0 (rack 0) and 1 (rack 1): forced cross-rack spill.
    jobs = [make_job("a", model="vgg16", max_parallelism=4)]
    allotments = carve_allotments(jobs, {0: 2, 1: 2}, rack_map(small_cluster))
    assert allotments[0].gpus == 4
    assert allotments[0].level == LocalityLevel.CLUSTER
    profile = jobs[0].model_profile
    assert allotments[0].rate == pytest.approx(4 * profile.sensitivity.cluster)


def test_carve_shortest_job_first(small_cluster):
    short = make_job("short", serial_work=10.0, max_parallelism=4)
    long = make_job("long", serial_work=100.0, max_parallelism=4)
    allotments = carve_allotments([long, short], {0: 4}, rack_map(small_cluster))
    by_id = {a.job_id: a for a in allotments}
    assert by_id["short"].gpus == 4
    assert by_id["long"].gpus == 0


def test_carve_skips_inactive_jobs(small_cluster):
    job = make_job("dead")
    job.kill(0.0)
    assert carve_allotments([job], {0: 4}, rack_map(small_cluster)) == []


def test_estimator_rho_inf_when_starved(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=2)
    assert math.isinf(estimator.rho(app, 10.0))
    assert value_from_rho(estimator.rho(app, 10.0)) == 0.0


def test_estimator_rho_improves_with_more_gpus(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=2, max_parallelism=4)
    rho_two = estimator.rho(app, 0.0, {0: 2})
    rho_four = estimator.rho(app, 0.0, {0: 4})
    assert rho_four < rho_two


def test_estimator_placement_matters(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=1, model="vgg16", max_parallelism=4)
    rho_packed = estimator.rho(app, 0.0, {0: 4})
    rho_spread = estimator.rho(app, 0.0, {0: 1, 1: 1, 2: 1, 3: 1})
    assert rho_packed < rho_spread


def test_estimator_counts_existing_allocation(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=1, max_parallelism=4)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    rho_with_held = estimator.rho(app, 0.0)
    assert not math.isinf(rho_with_held)


def test_rho_first_winner_uses_min(small_cluster):
    estimator = FairnessEstimator(
        small_cluster, semantics=CompletionSemantics.FIRST_WINNER
    )
    from repro.workload.app import App

    jobs = [
        make_job("fast", serial_work=10.0, max_parallelism=2),
        make_job("slow", serial_work=100.0, max_parallelism=2),
    ]
    app = App("x", 0.0, jobs, semantics=CompletionSemantics.FIRST_WINNER)
    # 2 GPUs -> carve gives them to the fast job; T_sh = 10/2 = 5.
    t_shared = estimator.shared_time(app, 0.0, {0: 2})
    assert t_shared == pytest.approx(5.0)


def test_rho_all_jobs_uses_aggregate(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=2, serial_work=50.0, max_parallelism=2)
    # 4 GPUs on machine 0: both jobs run at rate 2 -> 100 work / 4 = 25.
    t_shared = estimator.shared_time(app, 0.0, {0: 4})
    assert t_shared == pytest.approx(25.0)


def test_elapsed_added_to_shared_time(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=2, serial_work=50.0, max_parallelism=2, arrival=10.0)
    assert estimator.shared_time(app, 30.0, {0: 4}) == pytest.approx(20.0 + 25.0)


def test_snapshot_path_matches_direct_path(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=3, max_parallelism=2)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    counts = dict(app.allocation().per_machine_counts())
    counts[2] = counts.get(2, 0) + 2
    snap = estimator.snapshot(app)
    assert estimator.rho_from_snapshot(snap, 5.0, counts) == pytest.approx(
        estimator.rho(app, 5.0, {2: 2})
    )


def test_rho_negative_extra_counts_raise(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app()
    with pytest.raises(ValueError):
        estimator.rho(app, 0.0, {0: -1})


def test_packing_utility_prefers_packed(small_cluster):
    app = make_app(num_jobs=1, max_parallelism=4)
    state = AppValuationState(app, FairnessEstimator(small_cluster), packing=True)
    state.refresh()
    packed = state.kernel_of(((0, 4),))
    spread = state.kernel_of(((0, 1), (1, 1), (2, 1), (3, 1)))
    assert packed > spread


def test_a_slot_sized_gang_carves_to_the_level_its_granted_gpus_have(small_cluster):
    """One NVLink group size: a gang of that many GPUs on one machine is
    priced SLOT-local, and the GPUs ``concretise`` grants for it share a
    slot; one GPU more is MACHINE-level on both sides."""
    machine = small_cluster.machines[0]
    assert machine.num_gpus > NVLINK_GROUP_SIZE
    pool = {machine.machine_id: machine.gpus}
    for gang, level in (
        (NVLINK_GROUP_SIZE, LocalityLevel.SLOT),
        (NVLINK_GROUP_SIZE + 1, LocalityLevel.MACHINE),
    ):
        job = make_job("gang", max_parallelism=gang)
        (allotment,) = carve_allotments(
            [job], {machine.machine_id: gang}, rack_map(small_cluster)
        )
        granted = concretise({"a": {machine.machine_id: gang}}, pool)["a"]
        assert (allotment.gpus, allotment.level) == (gang, level)
        assert Allocation(granted).level() is level


def test_value_is_inverse_rho(small_cluster):
    estimator = FairnessEstimator(small_cluster)
    app = make_app(num_jobs=1, max_parallelism=4)
    rho = estimator.rho(app, 0.0, {0: 4})
    assert value_from_rho(estimator.rho(app, 0.0, {0: 4})) == pytest.approx(1.0 / rho)


def test_value_from_rho_clamps_degenerate_rho():
    # rho <= 0 (estimated shared finish not ahead of now) must clamp to
    # the finite ceiling, never inf — the solver's log-gain keys and
    # nash_log_welfare stay totally ordered.
    assert value_from_rho(0.0) == VALUE_CEILING
    assert value_from_rho(-3.5) == VALUE_CEILING
    assert value_from_rho(1e-15) == VALUE_CEILING
    assert value_from_rho(float("inf")) == 0.0
    assert value_from_rho(2.0) == 0.5
