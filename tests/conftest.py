"""Shared fixtures: small clusters, jobs, apps and traces.

The ``make_app`` / ``make_job`` factories live in :mod:`helpers` (an
importable plain module); they are re-exported here so fixture bodies
and older imports keep working.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.service.api import ServiceServer

import helpers
from helpers import make_app, make_job  # noqa: F401 — re-exported for tests
from helpers import uniform_cluster

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
    return uniform_cluster(1, name="one-machine")


@pytest.fixture
def simple_app():
    return make_app()


@pytest.fixture
def serve():
    """``serve(plane)`` puts a plane behind a live HTTP ``ServiceServer``.

    The server polls for shutdown every 50 ms instead of the default
    500 ms, which every teardown would otherwise wait out.  Teardown
    stops the server, joins its thread and closes the plane.
    """
    running = []

    def start(plane) -> ServiceServer:
        server = ServiceServer(plane)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread, plane))
        return server

    yield start
    for server, thread, plane in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        plane.close()
        assert not thread.is_alive()
