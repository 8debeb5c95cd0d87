"""Unit tests for the pluggable performance model (repro.workload.perf)."""

from __future__ import annotations

import json

import pytest

from repro.cluster.topology import GpuType, mixed_sim_cluster
from repro.workload.generator import GeneratorConfig, generate_trace
from repro.workload.models import MODEL_ZOO, gpu_speed
from repro.workload.perf import (
    DEFAULT_PERF_MODEL,
    PERF_MATRIX_PRESETS,
    PerfCapacity,
    PerfModelError,
    ThroughputMatrixModel,
    app_effective_compute,
    app_family,
    canonical_matrix,
    known_families,
    perf_model_from_json,
    resolve_matrix_spec,
    resolve_perf_model,
    validate_matrix_names,
)
from repro.workload.trace import Trace

from helpers import machine_per_type, make_app, make_job

V100 = GpuType("v100", 1.0)
P100 = GpuType("p100", 0.6)


def mixed_cluster():
    return machine_per_type(V100, P100, name="perf-test")


# ----------------------------------------------------------------------
# Matrix canonicalisation and validation
# ----------------------------------------------------------------------
def test_canonical_matrix_sorts_and_round_trips():
    matrix = canonical_matrix({"vgg": {"v100": 1.0, "p100": 0.25}})
    assert matrix == (("vgg", (("p100", 0.25), ("v100", 1.0))),)
    # Already-canonical input is a fixpoint.
    assert canonical_matrix(matrix) == matrix


@pytest.mark.parametrize(
    "bad",
    [
        {"": {"v100": 1.0}},
        {"vgg": {"v100": 0.0}},
        {"vgg": {"v100": -1.0}},
        {"vgg": {"v100": "fast"}},
        {"vgg": {"v100": float("nan")}},
        {"vgg": {"v100": float("inf")}},
        [("vgg",)],
        [("vgg", [("v100",)])],
    ],
)
def test_canonical_matrix_rejects_malformed(bad):
    with pytest.raises(PerfModelError):
        canonical_matrix(bad)


def test_validate_matrix_names_rejects_unknown_generation():
    matrix = canonical_matrix({"vgg": {"h100": 2.0}})
    with pytest.raises(PerfModelError, match="h100"):
        validate_matrix_names(matrix)


def test_validate_matrix_names_rejects_unknown_family():
    matrix = canonical_matrix({"diffusion": {"v100": 1.0}})
    with pytest.raises(PerfModelError, match="diffusion"):
        validate_matrix_names(matrix)


def test_resolve_matrix_spec_unknown_preset_lists_alternatives():
    with pytest.raises(PerfModelError, match="rate-inversion"):
        resolve_matrix_spec("no-such-preset")


def test_presets_are_valid():
    for name, matrix in PERF_MATRIX_PRESETS.items():
        validate_matrix_names(matrix)
        assert resolve_matrix_spec(name) == matrix


# ----------------------------------------------------------------------
# Speedup semantics
# ----------------------------------------------------------------------
def test_scalar_model_reads_generation_speed():
    model = ThroughputMatrixModel()
    assert model.matrix == ()
    assert model.speedup("vgg", P100) == 0.6
    assert model.speedup("anything", V100) == 1.0


def test_matrix_model_family_rows_and_fallbacks():
    model = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25}})
    assert model.matrix
    assert model.speedup("vgg", P100) == 0.25
    # Family not in the matrix -> generation's scalar speed.
    assert model.speedup("resnet", P100) == 0.6
    # Generation not in the row -> scalar speed too.
    assert model.speedup("vgg", GpuType("k80", 0.35)) == 0.35


def test_matrix_expresses_rate_inversion():
    model = ThroughputMatrixModel(
        {"vgg": {"v100": 1.0, "p100": 0.25}, "gan": {"v100": 0.6, "p100": 1.0}}
    )
    assert model.speedup("vgg", V100) > model.speedup("vgg", P100)
    assert model.speedup("gan", P100) > model.speedup("gan", V100)


def test_effective_gpus_caps_at_fastest_for_family():
    cluster = mixed_cluster()
    model = ThroughputMatrixModel({"gan": {"v100": 0.5, "p100": 1.0}})
    gpus = list(cluster.gpus)  # 4 v100 + 4 p100
    # cap 4: gan keeps the four p100s (1.0 each), not the v100s.
    assert model.effective_gpus("gan", gpus, cap=4) == pytest.approx(4.0)
    assert model.effective_gpus("vgg", gpus, cap=4) == pytest.approx(4.0)


def test_json_round_trip():
    model = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25}})
    payload = json.loads(json.dumps(model.to_json()))
    restored = perf_model_from_json(payload)
    assert isinstance(restored, ThroughputMatrixModel)
    assert restored.matrix == model.matrix
    assert perf_model_from_json(None) is DEFAULT_PERF_MODEL
    assert perf_model_from_json({"kind": "unknown-future-kind"}) is DEFAULT_PERF_MODEL
    # The empty matrix is the scalar model, and writes what it wrote.
    assert DEFAULT_PERF_MODEL.to_json() == {"kind": "scalar"}
    assert perf_model_from_json({"kind": "scalar"}) is DEFAULT_PERF_MODEL


def test_resolve_perf_model():
    assert resolve_perf_model(()) is DEFAULT_PERF_MODEL
    assert resolve_perf_model(None) is DEFAULT_PERF_MODEL
    model = resolve_perf_model({"vgg": {"v100": 1.0}})
    assert isinstance(model, ThroughputMatrixModel)


# ----------------------------------------------------------------------
# Capacity views
# ----------------------------------------------------------------------
def test_scalar_capacity_is_the_shared_cluster_object():
    cluster = mixed_cluster()
    assert ThroughputMatrixModel().capacity_for(cluster) is cluster.capacity


def test_perf_capacity_views_are_family_relative():
    cluster = mixed_cluster()
    model = ThroughputMatrixModel(
        {"vgg": {"v100": 1.0, "p100": 0.25}, "gan": {"v100": 0.6, "p100": 1.0}}
    )
    capacity = model.capacity_for(cluster)
    assert isinstance(capacity, PerfCapacity)
    # vgg's fastest 4 are the v100s; gan's fastest 4 are the p100s.
    assert capacity.view("vgg").fastest(4) == pytest.approx(4.0)
    assert capacity.view("gan").fastest(4) == pytest.approx(4.0)
    assert capacity.view("vgg").total == pytest.approx(5.0)
    assert capacity.view("gan").total == pytest.approx(6.4)
    # Views are cached per family.
    assert capacity.view("vgg") is capacity.view("vgg")


def test_best_total_prices_each_gpu_at_its_best_family():
    cluster = mixed_cluster()
    model = ThroughputMatrixModel(
        {"vgg": {"v100": 1.0, "p100": 0.25}, "gan": {"v100": 0.6, "p100": 1.0}}
    )
    capacity = model.capacity_for(cluster)
    # Single family: exactly that family's view total.
    assert capacity.best_total(["vgg"]) == capacity.view("vgg").total
    # Mixed families with inverted preferences: vgg keeps the v100s
    # (4 x 1.0), gan the p100s (4 x 1.0) — more than either view alone.
    best = capacity.best_total(["vgg", "gan"])
    assert best == pytest.approx(8.0)
    assert best > capacity.view("vgg").total
    assert best > capacity.view("gan").total


def test_mixed_family_ideal_time_uses_cross_family_capacity():
    """T_id's capacity bound must stay a valid lower bound under inversion."""
    from repro.workload.app import App

    cluster = mixed_cluster()
    model = ThroughputMatrixModel(
        {"vgg": {"v100": 1.0, "p100": 0.25}, "gan": {"v100": 0.6, "p100": 1.0}}
    )
    capacity = model.capacity_for(cluster)
    from helpers import make_job

    app = App(
        app_id="mix",
        arrival_time=0.0,
        jobs=[
            make_job("mix-j0", model="vgg16", serial_work=400.0, max_parallelism=8),
            make_job("mix-j1", model="dcgan", serial_work=400.0, max_parallelism=8),
        ],
    )
    # Aggregate alone-running rate can reach 8.0 (each family on its
    # fast generation), so the capacity bound is 800/8 = 100 — not
    # 800/6.4 = 125 (which would overstate T_id and understate rho).
    ideal = app.ideal_running_time(capacity)
    per_job_bound = 400.0 / capacity.view("vgg").fastest(8)
    assert ideal == pytest.approx(max(per_job_bound, 100.0))


def test_degenerate_matrix_capacity_matches_scalar():
    cluster = mixed_cluster()
    degenerate = ThroughputMatrixModel(
        {"vgg": {"v100": 1.0, "p100": 0.6}, "gan": {"v100": 1.0, "p100": 0.6}}
    )
    capacity = degenerate.capacity_for(cluster)
    scalar = cluster.capacity
    for n in range(cluster.num_gpus + 1):
        assert capacity.view("vgg").fastest(n) == scalar.fastest(n)
        assert capacity.view("gan").fastest(n) == scalar.fastest(n)


def test_machine_speed_index_shares_the_scalar_map():
    """Without a matrix every family reads the one scalar map; a row
    gets its own map, built once."""
    cluster = mixed_cluster()
    index = ThroughputMatrixModel().machine_speed_index(cluster)
    assert index(None) == cluster.machine_speeds() == {0: 1.0, 1: 0.6}
    assert all(index(family) is index(None) for family in known_families())
    fn = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25}}).machine_speed_index(
        cluster
    )
    vgg_map = fn("vgg")
    assert vgg_map == {0: 1.0, 1: 0.25}
    assert fn("vgg") is vgg_map  # cached per family


def test_partial_matrix_rowless_families_read_the_scalar_map():
    """A one-row matrix on the hetero fleet: every family without a row
    reads the scalar map object itself (no per-family copy) and its
    jobs weigh each GPU by ``gpu.speed``."""
    cluster = mixed_sim_cluster()
    model = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25, "k80": 0.1}})
    index = model.machine_speed_index(cluster)
    assert index(None) == cluster.machine_speeds()
    assert index("vgg") is not index(None)
    for family in known_families():
        if family == "vgg":
            continue
        assert index(family) is index(None), family
        assert model.machine_speeds_for(cluster, family) is index(None)
    for name in MODEL_ZOO:
        job = make_job("j0", model=name)
        job.perf_model = model
        speed_of = job.speed_of()
        weights = [speed_of(gpu) for gpu in cluster.gpus]
        if job.family == "vgg":
            assert weights != [gpu.speed for gpu in cluster.gpus]
            continue
        assert speed_of is gpu_speed
        assert weights == [gpu.speed for gpu in cluster.gpus]


def test_cluster_views_are_shared_per_model_and_cluster():
    """Simulator + estimator must see one capacity / speed index each.

    Per-app ideal-time caches key capacity objects by identity, so a
    fresh PerfCapacity per caller would silently recompute every T_id.
    """
    cluster = mixed_cluster()
    other = mixed_cluster()
    model = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25}})
    assert model.capacity_for(cluster) is model.capacity_for(cluster)
    assert model.machine_speed_index(cluster) is model.machine_speed_index(cluster)
    assert model.capacity_for(cluster) is not model.capacity_for(other)


# ----------------------------------------------------------------------
# App helpers
# ----------------------------------------------------------------------
def test_app_family_single_and_mixed():
    app = make_app("a0", num_jobs=2, model="vgg16")
    assert app_family(app) == "vgg"
    from helpers import make_job
    from repro.workload.app import App

    mixed = App(
        app_id="m0",
        arrival_time=0.0,
        jobs=[make_job("m0-j0", model="vgg16"), make_job("m0-j1", model="resnet50")],
    )
    assert app_family(mixed) is None


def test_app_effective_compute_weights_by_holder_family():
    from repro.cluster.allocation import Allocation

    cluster = mixed_cluster()
    app = make_app("a0", num_jobs=1, model="vgg16")
    p100s = [gpu for gpu in cluster.gpus if gpu.gpu_type.name == "p100"]
    app.jobs[0].set_allocation(0.0, Allocation(p100s[:2]))
    model = ThroughputMatrixModel({"vgg": {"v100": 1.0, "p100": 0.25}})
    assert app_effective_compute(app, model) == pytest.approx(0.5)
    assert app_effective_compute(app, ThroughputMatrixModel()) == pytest.approx(1.2)


# ----------------------------------------------------------------------
# Trace schema + generator knob
# ----------------------------------------------------------------------
def test_trace_round_trips_perf_matrix(tmp_path):
    trace = generate_trace(
        GeneratorConfig(num_apps=2, seed=3, perf_matrix="rate-inversion")
    )
    assert trace.perf_matrix == PERF_MATRIX_PRESETS["rate-inversion"]
    assert trace.metadata["perf_matrix_preset"] == "rate-inversion"
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    restored = Trace.from_jsonl(path)
    assert restored.perf_matrix == trace.perf_matrix
    model = restored.perf_model()
    assert isinstance(model, ThroughputMatrixModel)


def test_trace_without_matrix_keeps_scalar_default(tmp_path):
    trace = generate_trace(GeneratorConfig(num_apps=2, seed=3))
    assert trace.perf_matrix == ()
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    restored = Trace.from_jsonl(path)
    assert restored.perf_matrix == ()
    assert restored.perf_model() is DEFAULT_PERF_MODEL
    # Header must not even mention the matrix (old readers see the old schema).
    header = json.loads(path.read_text().splitlines()[0])["trace_header"]
    assert "perf_matrix" not in header


def test_generator_rejects_bad_matrix_spec():
    with pytest.raises(PerfModelError):
        GeneratorConfig(num_apps=2, perf_matrix="typo-preset")
    with pytest.raises(PerfModelError):
        GeneratorConfig(num_apps=2, perf_matrix={"vgg": {"h100": 2.0}})


def test_matrix_traces_are_byte_identical_apart_from_header():
    plain = generate_trace(GeneratorConfig(num_apps=3, seed=9))
    with_matrix = generate_trace(
        GeneratorConfig(num_apps=3, seed=9, perf_matrix="rate-inversion")
    )
    assert plain.apps == with_matrix.apps  # sampling is unaffected
