"""Tests for the top-level package API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import quick_run


def test_version_and_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_scheduler_names_exposed():
    assert "themis" in repro.SCHEDULER_NAMES


def test_quick_run_defaults():
    result = quick_run(scheduler="fifo", num_apps=2, seed=0, duration_scale=0.05)
    assert result.completed
    assert result.scheduler_name == "fifo"
    assert result.cluster_gpus == 50  # testbed default


def test_quick_run_custom_cluster_and_kwargs():
    cluster = repro.themis_sim_cluster(scale=0.1)
    result = quick_run(
        scheduler="themis",
        num_apps=2,
        seed=1,
        cluster=cluster,
        duration_scale=0.05,
        fairness_knob=0.5,
    )
    assert result.completed
    assert result.cluster_gpus == cluster.num_gpus


def test_quick_run_unknown_scheduler():
    with pytest.raises(KeyError):
        quick_run(scheduler="bogus", num_apps=1)


def test_core_package_exports():
    from repro import core

    for name in core.__all__:
        assert hasattr(core, name), name


def test_metrics_package_exports():
    from repro import metrics

    for name in metrics.__all__:
        assert hasattr(metrics, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro", "repro.cluster", "repro.core", "repro.experiments",
        "repro.hyperparam", "repro.metrics", "repro.obs", "repro.schedulers",
        "repro.service", "repro.simulation", "repro.sweep", "repro.workload",
        "repro.cli",
    ],
)
def test_every_public_package_imports_cold(module):
    """In a fresh interpreter, so an import cycle cannot hide behind
    whichever package another test happened to import first."""
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


#: Oracles the equivalence suites compare production code against, and
#: the lease rescans the audits recount the incremental free pool with.
REFERENCES = {
    "rescan_fair_allocation", "exhaustive_nash_allocation", "_carve_reference",
    "unleased_gpus", "expired_gpus",
}


def test_no_production_code_runs_a_reference():
    """The references are reached from ``tests/`` only (read as AST, no
    import): under ``src/`` nothing outside a reference's own body may
    call one."""
    offenders = []
    for path in sorted(Path(repro.__file__).resolve().parent.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) in REFERENCES:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = getattr(func, "id", None) or getattr(func, "attr", None)
                    if called in REFERENCES:
                        offenders.append(f"{path.name}:{node.lineno} {called}")
    assert offenders == []
