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


#: Names only tests call that still earn their place in ``src/``: the
#: oracles above, the estimator's from-scratch rho chain, the offline
#: max-min solver the online auction is held to, the tiny scenario, the
#: perf-model payload loader (saved ``{"kind": "scalar"}`` payloads must
#: load), and the service plane's chaos harness, a module of its own.
TEST_ONLY = REFERENCES | {
    "shared_time", "solve_offline_max_min", "tiny_scenario", "perf_model_from_json",
}
TEST_ONLY_MODULES = {"service/chaos.py"}


def _tracked(tree):
    """Top-level functions and classes, and the public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub


def _mentions(tree, owners_of, into):
    """``into[name]`` gains, per mention of ``name`` (a name, an attribute,
    an import or a string: ``getattr`` hooks, ``__all__``), the tracked
    definitions the mention sits in."""

    def walk(node, owners):
        if node in owners_of:
            owners = owners | {node}
        if isinstance(node, ast.Name):
            into.setdefault(node.id, []).append(owners)
        elif isinstance(node, ast.Attribute):
            into.setdefault(node.attr, []).append(owners)
        elif isinstance(node, ast.alias):
            into.setdefault((node.asname or node.name).split(".")[-1], []).append(owners)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            into.setdefault(node.value, []).append(owners)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())


def test_no_src_name_is_called_only_from_tests():
    """No function, class or public method under ``src/`` is named only
    from ``tests/`` (read as AST): each is mentioned from ``src/``,
    ``examples/`` or ``benchmarks/`` outside its own body and outside
    every other test-only body, or it is in :data:`TEST_ONLY`.  Names
    are matched by spelling, so a shared spelling keeps a name alive."""
    root = Path(repro.__file__).resolve().parents[2]
    package = root / "src" / "repro"
    trees = {
        path: ast.parse(path.read_text())
        for top in ("src", "examples", "benchmarks", "tests")
        for path in sorted((root / top).rglob("*.py"))
    }
    defs = [
        (path, node)
        for path, tree in trees.items()
        if path.is_relative_to(package)
        and path.relative_to(package).as_posix() not in TEST_ONLY_MODULES
        for node in _tracked(tree)
        if node.name not in TEST_ONLY
    ]
    owners_of = {node for _path, node in defs}
    production: dict[str, list] = {}
    from_tests: dict[str, list] = {}
    for path, tree in trees.items():
        tested = path.is_relative_to(root / "tests")
        _mentions(tree, owners_of, from_tests if tested else production)
    # A body only tests reach keeps nothing alive: iterate to the fixpoint.
    only: set = set()
    while True:
        found = {
            node
            for _path, node in defs
            if node.name in from_tests
            and not any(
                node not in owners and not owners & only
                for owners in production.get(node.name, ())
            )
        }
        if found == only:
            break
        only = found
    offenders = [
        f"{path.relative_to(package)}:{node.lineno} {node.name}"
        for path, node in defs
        if node in only
    ]
    assert not offenders, "only tests call:\n" + "\n".join(offenders)
