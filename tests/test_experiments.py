"""Tests for the experiment harness on tiny scenarios."""

import re
from pathlib import Path

import pytest

from helpers import assert_golden_rows
from repro.experiments.config import ScenarioConfig, tiny_scenario
from repro.experiments.config import sim_scenario as _sim_scenario
from repro.experiments.config import testbed_scenario as _testbed_scenario
from repro.experiments.figures import (
    FIGURES,
    compare_schedulers,
    figure_tasks,
    run_figure,
)
from repro.experiments.report import format_figure, format_table
from repro.experiments.runner import run_scenario
from repro.metrics import METRICS

#: 12 apps at 8x arrival compression: seconds-fast, yet contended enough
#: that every scheduler and knob below yields different rows (4 idle
#: apps would give themis, fifo and drf the same numbers, and a pin
#: that cannot tell two cells apart pins little).
_BASE = tiny_scenario(num_apps=12)
CONTENDED_TINY = _BASE.replace(generator=_BASE.generator.with_contention(8.0))

#: Per registry id, the 2-point grid of its frozen ``figure/<id>`` cell
#: in tests/golden_sim.json.  The digests were computed by the
#: per-figure functions this registry replaced (at eb86818), so they
#: prove ``run_figure`` returns those functions' rows, floats exact.
SMALL_GRIDS = {
    "fig01": {},
    "fig02": {"values": ("vgg16", "resnet50")},
    "fig04ab": {"values": (0.0, 1.0)},
    "fig04c": {"values": (10.0, 40.0)},
    "fig05-07": {"schedulers": ("themis", "fifo")},
    "fig08": {},
    "fig09": {"values": (0.0, 1.0), "schedulers": ("themis", "tiresias")},
    "fig10": {"values": (1.0, 2.0), "schedulers": ("themis", "tiresias")},
    "fig11": {"values": (0.0, 0.2)},
    "ablation-strawman": {},
    "ablation-hidden-payments": {},
    "ablation-leftover": {},
    "ablation-drf": {},
}

#: First row's columns, as documented in README's figure table.
COLUMNS = {
    "fig01": ["percentile", "duration_minutes"],
    "fig02": ["model", "one_server_4gpu", "two_by_two", "slowdown"],
    "fig04ab": [
        "fairness_knob", "min_rho", "median_rho", "max_rho", "gpu_time",
        "peak_contention",
    ],
    "fig04c": ["lease_minutes", "max_rho", "gpu_time", "rounds"],
    "fig05-07": [
        "scheduler", "max_fairness", "jain_index", "dist_from_ideal", "avg_jct",
        "p95_jct", "mean_placement_score", "gpu_time", "utilization",
    ],
    "fig08": ["app", "finished_at", "completion_time", "rho"],
    "fig09": [
        "network_intensive_fraction", "max_rho:themis", "gpu_time:themis",
        "max_rho:tiresias", "gpu_time:tiresias", "improvement_over_tiresias",
    ],
    "fig10": [
        "contention_factor", "jain:themis", "max_rho:themis", "jain:tiresias",
        "max_rho:tiresias",
    ],
    "fig11": ["theta", "max_rho", "jain"],
    "ablation-strawman": ["scheduler", "max_fairness", "jain_index", "avg_jct", "gpu_time"],
    "ablation-hidden-payments": [
        "hidden_payments", "max_fairness", "jain_index", "avg_jct", "gpu_time",
    ],
    "ablation-leftover": [
        "leftover_allocation", "max_fairness", "jain_index", "avg_jct", "gpu_time",
    ],
    "ablation-drf": ["scheduler", "max_fairness", "jain_index", "avg_jct", "gpu_time"],
}

#: One paper-scale cell per sweep-shaped figure (the last the registry
#: expands to): ``SweepTask.fingerprint()`` as the hand-built task lists
#: had it at eb86818, i.e. the key a ``ResultCache`` warmed before the
#: registry existed stores that cell under.
PAPER_SCALE_FINGERPRINTS = {
    "fig04ab": "26384b5472f3e3bfa3dcca05b3fa74ff27ba053cf99755f6a83a396508eb4395",
    "fig04c": "44e0827e969ac397f171e78e61fdd33cb90805cb55d8206f42ad7831d591f2a7",
    "fig05-07": "dbf108e703dc842a54ff4a85571c7b1f2302dc9543c5e74e00ab07bee95661eb",
    "fig09": "74a36877c77219822de778ddf6a47087aead08d8faf8f93f11b06877320ba2f5",
    "fig10": "1452dfbd57987a7ab2fd4c43adbc0060d7bfd27b44a1f43bbf7933ea5b21c43c",
    "fig11": "c9bc1d4dd3a1543c1125c6645cd61ff8d6f6a4aa6d182e24f7737df97a825152",
    "ablation-strawman": "9d70fad73319dd601f4220fbe495fba5b2c9eab8f71ff663a0e642f9a7beafb5",
    "ablation-hidden-payments": "7ca6adb9190d6ebdc4ddda0135b42514a8ce3de02eaa9f78a70c1bd668d07af0",
    "ablation-leftover": "9f9c58b8af34f0fb9e61c867b40d57065f7651c5de07a7705825f1b8a6afbfca",
    "ablation-drf": "1d8b61b91ed6dbcd1908b9a5eefecbc026d23749ce58ff4c6fe06cb3fc6eee2a",
}


def test_scenario_builders():
    sim = _sim_scenario(num_apps=5)
    assert sim.build_cluster().num_gpus == 256
    testbed = _testbed_scenario(num_apps=5)
    assert testbed.build_cluster().num_gpus == 50
    with pytest.raises(ValueError):
        ScenarioConfig(name="x", generator=sim.generator, cluster_kind="bogus").build_cluster()


def test_scenario_trace_is_deterministic():
    scenario = tiny_scenario()
    assert scenario.build_trace().apps == scenario.build_trace().apps


def test_run_scenario_returns_result():
    result = run_scenario(tiny_scenario(), "fifo")
    assert result.completed
    assert result.scheduler_name == "fifo"


def test_compare_schedulers_same_workload():
    results = compare_schedulers(tiny_scenario(), ["fifo", "tiresias"])
    assert set(results) == {"fifo", "tiresias"}
    totals = {name: r.total_gpu_time for name, r in results.items()}
    assert all(v > 0 for v in totals.values())


def test_registry_covers_the_paper_figures_and_the_ablations():
    assert set(FIGURES) == set(SMALL_GRIDS) == set(COLUMNS)
    assert set(PAPER_SCALE_FINGERPRINTS) == {
        figure_id for figure_id, figure in FIGURES.items() if figure.custom is None
    }


def test_benchmarks_replay_exactly_the_registry_ids():
    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    source = "".join(path.read_text() for path in benchmarks.glob("test_*.py"))
    assert sorted(re.findall(r'replay_figure\("([^"]+)"\)', source)) == sorted(FIGURES)


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_registry_figure(figure_id):
    """Every entry runs, has its documented columns, and its rows are frozen."""
    entry = FIGURES[figure_id]
    assert entry.claim.strip() and entry.title.strip()
    assert set(entry.columns) <= set(METRICS)
    if entry.scenario is not None:
        assert entry.scenario.build_cluster().num_gpus in (50, 256)

    figure = run_figure(figure_id, CONTENDED_TINY, **SMALL_GRIDS[figure_id])
    assert (figure.figure_id, figure.title) == (figure_id, entry.title)
    assert len(figure.rows) >= 2
    assert all(list(row) == COLUMNS[figure_id] for row in figure.rows)
    assert_golden_rows(f"figure/{figure_id}", figure.rows)
    assert figure_id in format_figure(figure)


@pytest.mark.parametrize("figure_id", sorted(PAPER_SCALE_FINGERPRINTS))
def test_paper_scale_cells_keep_their_cache_keys(figure_id):
    tasks = figure_tasks(figure_id)
    assert all(task.scenario.name == FIGURES[figure_id].scenario.name for task in tasks)
    assert tasks[-1].fingerprint() == PAPER_SCALE_FINGERPRINTS[figure_id]


def test_themis_figures_report_how_many_auctions_had_bidders():
    figure = run_figure("fig05-07", CONTENDED_TINY, schedulers=("themis", "fifo"))
    # The macrobenchmark keeps its own note and gains the bidders line;
    # one themis cell, so one "N of M" share, and this scenario is
    # contended enough that some auctions are real ones.
    head, _, share = figure.notes.partition("; auctions with >= 2 bidders: ")
    assert head == "peak contention 2.52x"
    multi, total = (int(n) for n in share.split(" of "))
    assert 0 < multi < total
    # One share per themis cell, in row order (f = 1 offers to exactly
    # one app, so its share is 0); baselines add none.
    knobs = run_figure("fig04ab", CONTENDED_TINY, values=(0.0, 1.0))
    first, last = knobs.notes.removeprefix("auctions with >= 2 bidders: ").split(", ")
    assert not first.startswith("0 of ") and last.startswith("0 of ")
    assert "bidders" in run_figure("fig08").notes
    assert run_figure("ablation-drf", CONTENDED_TINY, schedulers=("fifo",)).notes == ""


def test_macrobenchmark_measures_every_scheduler_against_one_ideal():
    """The distance from ideal of every row divides by the peak contention
    the notes print, not its own cell's: here the two cells peak apart."""
    figure = run_figure("fig05-07", CONTENDED_TINY, schedulers=("themis", "fifo"))
    peaks = [run_scenario(CONTENDED_TINY, name).peak_contention for name in ("themis", "fifo")]
    assert peaks[0] != peaks[1]
    peak = max(peaks)
    assert figure.notes.startswith(f"peak contention {peak:.2f}x;")
    for row in figure.rows:
        assert row["dist_from_ideal"] == (row["max_fairness"] - peak) / peak


def test_macrobenchmark_attaches_the_cdfs_of_figures_6_and_7():
    figure = run_figure("fig05-07", tiny_scenario(), schedulers=("themis", "fifo"))
    assert list(figure.series) == [
        "jct_cdf:themis", "placement_cdf:themis", "jct_cdf:fifo", "placement_cdf:fifo",
    ]
    assert all(figure.series.values())


def test_format_table_and_figure():
    table = format_table(["a", "b"], [[1.0, "x"], [123456.0, "y"]])
    assert "a" in table and "123,456" in table
    figure = run_figure("fig02", values=("vgg16",))
    text = format_figure(figure)
    assert "fig02" in text
    assert "vgg16" in text
