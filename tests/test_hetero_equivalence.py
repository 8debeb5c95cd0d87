"""Equivalence suite: all-speed-1.0 clusters reproduce the homogeneous model.

The heterogeneity refactor threads GPU generations through every layer
— topology, progress model, rho estimation, auction tie-breaks,
baseline fills.  Its safety property is that the speed factor is the
*only* thing that changes behaviour: a cluster whose GPUs are labelled
with distinct generation names but all speed 1.0 must reproduce the
original homogeneous simulation **byte-identically** for every
registered scheduler (type names may only show up in the by-type
reporting fields, which aggregate to identical totals).

This is the same equivalence-testing discipline the PR 2 auction
rebuild used: the homogeneous path is the reference implementation, and
these tests pin it across >= 3 seeded scenarios x the full scheduler
registry.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.topology import ClusterSpec, GpuType, MachineSpec, build_cluster
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.generator import GeneratorConfig, generate_trace
from repro.workload.perf import ThroughputMatrixModel, known_families

from helpers import assert_golden

#: Machine shapes of the 50-GPU testbed: (count, gpus_per_machine).
_SHAPES = ((4, 4), (3, 2), (3, 1))
_NAMES = ("v100", "p100", "k80")
MIXED = (1.0, 0.6, 0.35)

SEEDS = (7, 11, 23)


def _run(seed: int, scheduler: str, speeds=None, perf_model=None):
    """A 3-app trace on the testbed-shaped cluster: unlabelled GPUs when
    ``speeds`` is None, else one generation per shape at those speeds."""
    specs = tuple(
        MachineSpec(
            count=count,
            gpus_per_machine=per_machine,
            **({} if speeds is None else {"gpu_type": GpuType(name, speed)}),
        )
        for (count, per_machine), name, speed in zip(_SHAPES, _NAMES, speeds or (1.0,) * 3)
    )
    trace = generate_trace(
        GeneratorConfig(
            num_apps=3, seed=seed, duration_scale=0.1, jobs_per_app_median=3.0, jobs_per_app_max=6
        )
    )
    return ClusterSimulator(
        cluster=build_cluster(ClusterSpec(machine_specs=specs, num_racks=2, name="equiv")),
        workload=trace,
        scheduler=make_scheduler(scheduler),
        config=SimulationConfig(lease_minutes=10.0),
        perf_model=perf_model,
    ).run()


def _canonical(result) -> str:
    """Full result payload minus the (name-carrying) by-type fields."""
    payload = result.to_json()
    payload.pop("cluster_name")
    payload.pop("cluster_gpus_by_type")
    payload.pop("gpu_time_by_type")
    for stats in payload["app_stats"]:
        stats.pop("gpu_time_by_type")
    return json.dumps(payload, sort_keys=True)


def _full(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_speed_one_labels_are_byte_identical(scheduler, seed):
    """Labelled-but-speed-1.0 GPUs change nothing, for every scheduler."""
    baseline = _run(seed, scheduler)
    labelled = _run(seed, scheduler, speeds=(1.0, 1.0, 1.0))
    assert _canonical(labelled) == _canonical(baseline)
    # The by-type split is the only difference, and it is conservative:
    # per-type device minutes sum to the same totals on both sides.
    assert sum(labelled.gpu_time_by_type.values()) == pytest.approx(
        sum(baseline.gpu_time_by_type.values())
    )
    assert sum(labelled.cluster_gpus_by_type.values()) == baseline.cluster_gpus
    assert set(baseline.gpu_time_by_type) <= {"default"}
    assert set(labelled.gpu_time_by_type) <= set(_NAMES)


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_slow_generations_actually_change_results(scheduler):
    """Sanity inverse: speeds below 1.0 must not be a silent no-op."""
    baseline = _run(SEEDS[0], scheduler)
    mixed = _run(SEEDS[0], scheduler, speeds=MIXED)
    assert mixed.completed
    # Slower silicon means strictly less effective compute: the same
    # workload cannot finish faster than on the all-fast cluster.
    assert mixed.makespan >= baseline.makespan


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_all_scalar_matrix_is_byte_identical_to_scalar_model(scheduler, seed):
    """The tentpole safety property of the perf-model refactor.

    A :class:`ThroughputMatrixModel` whose rows all equal the scalar
    generation speeds must reproduce the scalar model **byte for byte**
    (full ``to_json`` payload, by-type fields included — the clusters
    are identical here, unlike the speed-1.0 labelling test above) for
    every scheduler, on homogeneous and mixed-speed fleets; the scalar
    run's digest is frozen besides (tests/golden_sim.json).
    """
    for fleet, speeds in {"homo": (1.0, 1.0, 1.0), "hetero": MIXED}.items():
        scalar = _run(seed, scheduler, speeds)
        degenerate = ThroughputMatrixModel(
            {family: dict(zip(_NAMES, speeds)) for family in known_families()}
        )
        assert _full(scalar) == _full(_run(seed, scheduler, speeds, degenerate)), (
            f"{scheduler}/seed={seed}/{speeds}"
        )
        assert_golden(f"scalar-matrix/{fleet}/{scheduler}/seed{seed}", scalar)


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_rate_inversion_matrix_changes_results(scheduler):
    """Sanity inverse: a genuinely family-dependent matrix must matter."""
    inversion = ThroughputMatrixModel(
        {
            "vgg": {"v100": 1.0, "p100": 0.25, "k80": 0.1},
            "rnn": {"v100": 1.0, "p100": 0.3, "k80": 0.12},
            "attention": {"v100": 1.0, "p100": 0.3, "k80": 0.12},
            "inception": {"v100": 0.65, "p100": 1.0, "k80": 0.5},
            "gan": {"v100": 0.6, "p100": 1.0, "k80": 0.55},
        }
    )
    matrix = _run(SEEDS[2], scheduler, MIXED, inversion)
    assert matrix.completed
    assert _full(_run(SEEDS[2], scheduler, MIXED)) != _full(matrix)


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_mixed_cluster_runs_end_to_end(scheduler):
    """Every registered scheduler completes a mixed-generation trace."""
    result = _run(SEEDS[1], scheduler, MIXED)
    assert result.completed
    assert set(result.cluster_gpus_by_type) == set(_NAMES)
    assert sum(result.gpu_time_by_type.values()) == pytest.approx(result.total_gpu_time)
