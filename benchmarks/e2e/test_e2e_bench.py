"""Checks of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spans import (
    SpanRecorder,
    nearest_rank,
    owners_of,
    patched,
    self_times,
    summarise,
)
from speed import REFERENCE_KERNEL_S, SpeedMeter

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ("outer", 0, -1, 0.0, 10.0),
        ("mid", 0, 0, 1.0, 4.0),  # first child of outer
        ("leaf", 0, 1, 2.0, 3.0),  # grandchild: billed to mid, not outer
        ("mid", 0, 0, 5.0, 9.0),  # sibling of the first mid
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = summarise(spans)
    assert table["mid"]["calls"] == 2
    assert table["mid"]["total_s"] == 7.0
    assert table["mid"]["self_s"] == 6.0
    # Exclusive times add up to the root: nothing is counted twice.
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_recorder_links_children_to_the_open_span_even_through_exceptions():
    recorder = SpanRecorder()

    def leaf(fail):
        if fail:
            raise ValueError("boom")

    traced_leaf = recorder.wrap("leaf", leaf)
    traced_root = recorder.wrap("root", lambda fail: traced_leaf(fail))
    recorder.run = 7
    traced_root(False)
    with pytest.raises(ValueError):
        traced_root(True)
    traced_leaf(False)  # after the exception the stack is empty again
    names = [(name, run, parent) for name, run, parent, _s, _e in recorder.spans]
    assert names == [
        ("root", 7, -1),
        ("leaf", 7, 0),
        ("root", 7, -1),
        ("leaf", 7, 2),
        ("leaf", 7, -1),
    ]
    assert all(end >= start for _n, _r, _p, start, end in recorder.spans)
    assert all(own >= 0 for own in self_times(recorder.spans))


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank([4.0], 0.99) == 4.0


def test_reference_clock_scales_the_gaps_and_stops_during_kernel_runs(monkeypatch):
    meter = SpeedMeter()
    slow = 2 * REFERENCE_KERNEL_S  # the box at half the reference speed
    meter.runs = [(0.0, slow), (1.0, 1.0 + slow), (2.0, 2.0 + slow)]
    monkeypatch.setattr(meter, "sample", lambda: None)  # no closing sample
    to_reference = meter.reference_clock()
    assert to_reference(slow) - to_reference(0.0) == 0.0
    assert to_reference(1.0) - to_reference(slow) == pytest.approx((1.0 - slow) / 2)
    # An interval holding two kernel runs: only the time outside them counts.
    assert to_reference(2.5) - to_reference(0.5) == pytest.approx((2.0 - 2 * slow) / 2)
    # Before the first and after the last kernel run the nearest rate applies.
    assert to_reference(-1.0) == pytest.approx(-0.5)
    assert to_reference(4.0) - to_reference(3.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
class _Layer:
    def work(self):
        return "original"


def _loud(original):
    return lambda self: original(self).upper()


def test_patches_are_removed_on_exit_and_on_exception():
    original = vars(_Layer)["work"]
    with patched([(_Layer, "work", _loud), (_Layer, "work", _loud)]):
        assert _Layer().work() == "ORIGINAL"
        assert vars(_Layer)["work"] is not original
    assert vars(_Layer)["work"] is original
    with pytest.raises(RuntimeError):
        with patched([(_Layer, "work", _loud)]):
            raise RuntimeError("measured code failed")
    assert vars(_Layer)["work"] is original
    # A target that does not exist fails the install and still unwinds.
    with pytest.raises(KeyError):
        with patched([(_Layer, "work", _loud), (_Layer, "missing", _loud)]):
            pass
    assert vars(_Layer)["work"] is original


def test_function_targets_are_patched_wherever_they_were_imported():
    import repro.core.arbiter
    import repro.schedulers.gandiva  # noqa: F401 - both bind concretise by name

    owners = {
        owner.__name__ for owner, _attr in owners_of("repro.core.assignment:concretise")
    }
    assert {
        "repro.core.assignment",
        "repro.core.arbiter",
        "repro.schedulers.gandiva",
    } <= owners
    (owner, attr), = owners_of("repro.core.arbiter:Arbiter.offer_resources")
    assert owner is repro.core.arbiter.Arbiter and attr == "offer_resources"
    assert owners_of("repro.core.arbiter:Arbiter.no_such_method") == []
    assert owners_of("repro.no_such_module:thing") == []


# ----------------------------------------------------------------------
# The command, end to end at ~1/10 size
# ----------------------------------------------------------------------
def test_smoke_prints_exactly_the_names_in_the_contract():
    started = time.monotonic()
    proc = run_benchmark("--smoke", "--repeats", "1")
    assert time.monotonic() - started < 60
    assert proc.returncode == 0, proc.stdout[-2000:]
    printed = re.findall(r"^  (\S+) = ", proc.stdout, flags=re.MULTILINE)
    expected = {m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert set(printed) == expected
    assert all(NAME.fullmatch(name) for name in printed)
    headers = re.findall(r"^## (\S+)", proc.stdout, flags=re.MULTILINE)
    assert headers == [w["name"] for w in CONTRACT["workloads"]]
    assert "FAILED CHECK" not in proc.stdout


@pytest.mark.parametrize("workload", ["sim-baselines", "service-drain"])
def test_driver_lines_carry_every_metric_of_their_family(workload):
    for trace, family in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_benchmark(
            "--smoke", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stdout[-2000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT[family]]
        units = {m["name"]: m["unit"] for m in CONTRACT[family]}
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]
            if trace == 0:
                assert metric["value"] > 0, name
    # The layers a workload bypasses read 0 in its traced run.
    bypassed = (
        ("core.auction.", "core.arbiter.", "core.bids.")
        if workload == "sim-baselines"
        else ("core.", "simulation.", "schedulers.", "workload.", "cluster.")
    )
    for name, metric in line["metrics"].items():
        if name.startswith(bypassed):
            assert metric["value"] == 0, name
