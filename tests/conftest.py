"""Shared fixtures: small clusters, jobs, apps and traces.

The ``make_app`` / ``make_job`` factories live in :mod:`helpers` (an
importable plain module); they are re-exported here so fixture bodies
and older imports keep working.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster

import helpers
from helpers import make_app, make_job  # noqa: F401 — re-exported for tests

__all__ = ["make_app", "make_job"]


def pytest_collection_modifyitems(items):
    """``test_golden_coverage`` reads what every other test pinned: it runs last."""
    items.sort(key=lambda item: item.path.name == "test_golden_coverage.py")


def pytest_deselected(items):
    """``-k`` / ``-m`` / ``--lf`` dropped collected tests: not a whole-suite run."""
    helpers.SUITE_NARROWED = True


@pytest.fixture
def small_cluster():
    """Two racks: 2x 4-GPU and 2x 2-GPU machines = 12 GPUs."""
    return build_cluster(
        ClusterSpec(
            machine_specs=(
                MachineSpec(count=2, gpus_per_machine=4),
                MachineSpec(count=2, gpus_per_machine=2),
            ),
            num_racks=2,
            name="small",
        )
    )


@pytest.fixture
def one_machine_cluster():
    """A single 4-GPU machine."""
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=1, gpus_per_machine=4),),
            num_racks=1,
            name="one-machine",
        )
    )


@pytest.fixture
def simple_app():
    return make_app()
