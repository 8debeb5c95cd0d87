"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.cli.sim import _figure_scenario
from repro.experiments.config import sim_scenario
from repro.experiments.config import testbed_scenario as _testbed_scenario
from repro.experiments.figures import FIGURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--seed", "1",
    )
    assert code == 0
    assert "max_rho" in out
    assert "fifo" in out


def test_run_with_fairness_knob(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheduler", "themis", "--apps", "2",
        "--duration-scale", "0.05", "--fairness-knob", "0.5",
    )
    assert code == 0
    assert "themis" in out


def test_compare_command(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--schedulers", "fifo,tiresias", "--apps", "2",
        "--duration-scale", "0.05",
    )
    assert code == 0
    assert "fifo" in out and "tiresias" in out


def test_compare_unknown_scheduler(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--schedulers", "fifo,bogus", "--apps", "2"
    )
    assert code == 2
    assert "bogus" in err


def test_figure_fig02(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig02")
    assert code == 0
    assert "vgg16" in out


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_runs_every_registry_id_on_a_shrunk_scenario(capsys, figure_id):
    code, out, _ = run_cli(
        capsys, "figure", figure_id, "--cluster", "testbed", "--apps", "2",
        "--duration-scale", "0.05",
    )
    assert code == 0
    assert f"== {figure_id}: {FIGURES[figure_id].title} ==" in out


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_without_scenario_flags_replays_the_registry_scenario(figure_id):
    args = build_parser().parse_args(["figure", figure_id, "--workers", "2"])
    assert _figure_scenario(args) is FIGURES[figure_id].scenario


def test_figure_scenario_flags_override_the_registry_scenario():
    def scenario(*flags):
        return _figure_scenario(build_parser().parse_args(["figure", *flags]))

    # fig09 replays sim256 / 14 apps / seed 42 / scale 0.35; fig05-07 the testbed.
    assert scenario("fig09", "--apps", "3") == sim_scenario(3, 42, 0.35)
    assert scenario("fig09", "--seed", "7", "--lease", "10") == sim_scenario(
        14, 7, 0.35, lease_minutes=10.0
    )
    assert scenario("fig05-07", "--duration-scale", "0.02") == _testbed_scenario(25, 42, 0.02)
    # Another cluster brings that cluster's own default duration scale.
    assert scenario("fig09", "--cluster", "testbed") == _testbed_scenario(14, 42)
    assert scenario("fig09", "--migration").migration is True
    # Fixed-setup figures have no scenario to override.
    assert scenario("fig08", "--apps", "3") is None


def test_figure_unknown(capsys):
    code, _, err = run_cli(capsys, "figure", "nope")
    assert code == 2
    assert "unknown figure" in err


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "trace", "--apps", "3", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.exists()
    from repro.workload.trace import Trace

    trace = Trace.from_jsonl(out_path)
    assert trace.num_apps == 3


@pytest.mark.parametrize("cluster", ["testbed", "sim"])
def test_trace_writes_the_cluster_presets_trace(tmp_path, capsys, cluster):
    """``repro trace --cluster K`` writes the trace K's scenario replays
    (the testbed's narrower apps: 64 jobs at 5 apps / seed 1, not 213)."""
    out_path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "trace", "--cluster", cluster, "--apps", "5", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    from repro.experiments.config import preset_scenario
    from repro.workload.trace import Trace

    expected = preset_scenario(cluster, num_apps=5, seed=1).build_trace()
    assert Trace.from_jsonl(out_path).num_jobs == expected.num_jobs


def test_figure_fig08(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig08")
    assert code == 0
    assert "short-app" in out


def test_sweep_command(tmp_path, capsys):
    args = (
        "sweep", "--schedulers", "themis,fifo", "--seeds", "1,2",
        "--apps", "2", "--duration-scale", "0.05",
        "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "expanded 4 sweep cells" in out
    assert "4 ok, 0 cached" in out

    # Warm cache: same invocation recomputes zero cells.
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "0 ok, 4 cached, 0 failed" in out


def test_sweep_contention_axis_rejects_a_non_positive_factor(capsys):
    code, _, err = run_cli(capsys, "sweep", "--apps", "2", "--contention", "2,0")
    assert code == 2
    assert "--contention: contention factor must be > 0" in err


def test_sweep_unknown_scheduler(capsys):
    code, _, err = run_cli(capsys, "sweep", "--schedulers", "bogus", "--apps", "2")
    assert code == 2
    assert "bogus" in err


def test_sweep_writes_results_json(tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code, out, _ = run_cli(
        capsys, "sweep", "--schedulers", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--knobs", "", "--out", str(out_path),
    )
    assert code == 0
    import json

    payload = json.loads(out_path.read_text())
    assert payload["summary"]["tasks"] == 1
    assert len(payload["results"]) == 1

    from repro.simulation.simulator import SimulationResult

    result = SimulationResult.from_json(next(iter(payload["results"].values())))
    assert result.rhos()


def test_compare_with_workers_and_cache(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--schedulers", "fifo,tiresias", "--apps", "2",
        "--duration-scale", "0.05", "--workers", "2",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "fifo" in out and "tiresias" in out


def test_bench_verb_is_gone(capsys):
    """Replay counts are gated by tests/golden_sim.json, time by benchmarks/e2e."""
    usage_error(capsys, "bench", "sim")
    assert "invalid choice: 'bench'" in usage_error(capsys, "bench")


# ----------------------------------------------------------------------
# --gpu-mix / --perf-matrix validation (parse-time, actionable errors)
# ----------------------------------------------------------------------
def usage_error(capsys, *argv) -> str:
    """The parser's stderr for ``argv``, which must be a validation exit (code 2)."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(list(argv))
    assert excinfo.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--apps", "0"),
        ("run", "--lease", "-5"),
        ("run", "--lease", "0"),
        ("compare", "--duration-scale", "-1"),
        ("figure", "fig09", "--duration-scale", "nan"),
        ("sweep", "--retries", "-2"),
        ("run", "--fairness-knob", "1.5"),
        ("run", "--fairness-knob", "-0.1"),
        ("trace", "--apps", "0"),
        ("sweep", "--leases", "-5"),
        ("sweep", "--leases", "30,0"),
        ("sweep", "--knobs", "1.5"),
        ("sweep", "--knobs", "0.5,-0.1"),
    ],
)
def test_numeric_flags_are_validated_at_parse_time(capsys, argv):
    """The bound types of ``repro.cli.args``: a usage error and exit 2,
    not a traceback from inside the simulator."""
    err = usage_error(capsys, *argv)
    assert err.startswith("usage: repro")
    assert f"argument {argv[-2]}: must be" in err


def test_gpu_mix_rejects_unknown_generation(capsys):
    err = usage_error(capsys, "run", "--cluster", "hetero", "--gpu-mix", "h100:0.5,k80:0.5")
    assert "h100" in err and "k80" in err  # names the typo + alternatives


def test_gpu_mix_rejects_malformed_entry(capsys):
    err = usage_error(capsys, "run", "--cluster", "hetero", "--gpu-mix", "v100=0.5")
    assert "name:fraction" in err


def test_gpu_mix_rejects_non_numeric_fraction(capsys):
    err = usage_error(capsys, "run", "--cluster", "hetero", "--gpu-mix", "v100:lots")
    assert "must be a number" in err


def test_gpu_mix_rejects_all_zero(capsys):
    err = usage_error(capsys, "run", "--cluster", "hetero", "--gpu-mix", "v100:0,k80:0")
    assert "positive fraction" in err


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
def test_gpu_mix_rejects_non_finite_fractions(capsys, value):
    err = usage_error(capsys, "run", "--cluster", "hetero", "--gpu-mix", f"v100:{value}")
    assert "finite" in err


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_perf_matrix_rejects_non_finite_speedups(capsys, value):
    assert "finite" in usage_error(capsys, "run", "--perf-matrix", f"vgg:v100={value}")


def test_perf_matrix_rejects_duplicate_rows_and_cells(capsys):
    err = usage_error(capsys, "run", "--perf-matrix", "vgg:v100=1.0;vgg:p100=0.9")
    assert "duplicate perf-matrix row" in err
    err = usage_error(capsys, "run", "--perf-matrix", "vgg:v100=1.0,v100=0.9")
    assert "duplicate perf-matrix cell" in err


def test_perf_matrix_on_single_generation_cluster_warns(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--seed", "1",
        "--perf-matrix", "rate-inversion",
    )
    assert code == 0
    assert "no effect on the single-generation" in err
    # No warning on the hetero cluster, where the matrix actually bites.
    code, _, err = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--seed", "1",
        "--cluster", "hetero", "--perf-matrix", "rate-inversion",
    )
    assert code == 0
    assert "no effect" not in err
    # ...and none when the matrix prices the 'default' generation,
    # which does change results on single-generation fleets.
    code, _, err = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--seed", "1",
        "--perf-matrix", "vgg:default=0.5",
    )
    assert code == 0
    assert "no effect" not in err


def test_gpu_mix_accepts_valid_spec():
    args = build_parser().parse_args(
        ["run", "--cluster", "hetero", "--gpu-mix", "v100:0.75,k80:0.25"]
    )
    assert args.gpu_mix == (("v100", 0.75), ("k80", 0.25))


def test_perf_matrix_accepts_preset_and_inline():
    args = build_parser().parse_args(["run", "--perf-matrix", "rate-inversion"])
    assert args.perf_matrix == "rate-inversion"
    args = build_parser().parse_args(
        ["run", "--perf-matrix", "vgg:v100=1.0,p100=0.25;gan:p100=1.0"]
    )
    assert args.perf_matrix == (
        ("gan", (("p100", 1.0),)),
        ("vgg", (("p100", 0.25), ("v100", 1.0))),
    )


def test_perf_matrix_rejects_unknown_generation(capsys):
    err = usage_error(capsys, "run", "--perf-matrix", "vgg:h100=2.0")
    assert "h100" in err and "known generations" in err


def test_perf_matrix_rejects_unknown_family(capsys):
    err = usage_error(capsys, "run", "--perf-matrix", "diffusion:v100=1.0")
    assert "diffusion" in err and "known families" in err


def test_perf_matrix_rejects_malformed_cells(capsys):
    assert "gen=speedup" in usage_error(capsys, "run", "--perf-matrix", "vgg=v100:1.0")
    assert "family:gen=speedup" in usage_error(capsys, "run", "--perf-matrix", "vgg")


def test_perf_matrix_rejects_missing_file(capsys):
    assert "cannot read" in usage_error(capsys, "run", "--perf-matrix", "no-such-file.json")


def test_perf_matrix_from_json_file(tmp_path):
    import json

    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"vgg": {"v100": 1.0, "p100": 0.25}}))
    args = build_parser().parse_args(["run", "--perf-matrix", str(path)])
    assert args.perf_matrix == (("vgg", (("p100", 0.25), ("v100", 1.0))),)


def test_help_documents_matrix_and_mix(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    out = capsys.readouterr().out
    assert "--gpu-mix" in out
    assert "--perf-matrix" in out
    assert "--migration" in out
    assert "rate-inversion" in out


def test_run_with_perf_matrix_and_migration(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--seed", "1",
        "--cluster", "hetero", "--perf-matrix", "rate-inversion", "--migration",
    )
    assert code == 0
    assert "max_rho" in out


def test_trace_embeds_perf_matrix(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "trace", "--apps", "2", "--out", str(out_path),
        "--perf-matrix", "rate-inversion",
    )
    assert code == 0
    assert "perf matrix embedded" in out
    from repro.workload.perf import PERF_MATRIX_PRESETS
    from repro.workload.trace import Trace

    assert Trace.from_jsonl(out_path).perf_matrix == (
        PERF_MATRIX_PRESETS["rate-inversion"]
    )
