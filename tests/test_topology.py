"""Unit tests for cluster topology construction and lookups."""

import pytest

from repro.cluster.topology import NVLINK_GROUP_SIZE, Cluster, ClusterSpec, Machine, MachineSpec
from repro.cluster.topology import testbed_cluster as _testbed_cluster
from repro.cluster.topology import themis_sim_cluster as _themis_sim_cluster


def test_build_cluster_counts(small_cluster):
    assert small_cluster.num_gpus == 12
    assert small_cluster.num_machines == 4
    assert small_cluster.num_racks == 2


def test_gpu_ids_unique_and_sequential(small_cluster):
    ids = [gpu.gpu_id for gpu in small_cluster.gpus]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_machines_dealt_round_robin_over_racks(small_cluster):
    racks = [machine.rack_id for machine in small_cluster.machines]
    assert racks == [0, 1, 0, 1]


def test_nvlink_slots_group_gpus_pairwise(small_cluster):
    machine = small_cluster.machine(0)
    assert machine.num_gpus == 4 == 2 * NVLINK_GROUP_SIZE
    assert [gpu.slot_id for gpu in machine.gpus] == [0, 0, 1, 1]


def test_gpu_lookup_roundtrip(small_cluster):
    for gpu in small_cluster.gpus:
        assert small_cluster.gpu(gpu.gpu_id) is gpu
    assert 0 in small_cluster
    assert 999 not in small_cluster


def test_gpu_lookup_unknown_raises(small_cluster):
    with pytest.raises(KeyError):
        small_cluster.gpu(999)


def test_themis_sim_cluster_is_256_gpus():
    cluster = _themis_sim_cluster()
    assert cluster.num_gpus == 256
    sizes = sorted({machine.num_gpus for machine in cluster.machines})
    assert sizes == [1, 2, 4]
    assert cluster.num_racks == 8


def test_themis_sim_cluster_scaling():
    half = _themis_sim_cluster(scale=0.5)
    assert 100 <= half.num_gpus <= 156  # roughly half of 256


def test_testbed_cluster_matches_paper():
    cluster = _testbed_cluster()
    assert cluster.num_gpus == 50
    assert cluster.num_machines == 20


def test_machine_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(count=-1, gpus_per_machine=4)
    with pytest.raises(ValueError):
        MachineSpec(count=1, gpus_per_machine=0)


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(machine_specs=(), num_racks=2)
    with pytest.raises(ValueError):
        ClusterSpec(machine_specs=(MachineSpec(1, 1),), num_racks=0)


def test_cluster_spec_totals():
    spec = ClusterSpec(
        machine_specs=(MachineSpec(3, 4), MachineSpec(2, 2)), num_racks=2
    )
    assert spec.total_gpus == 16


def test_machine_requires_gpus():
    with pytest.raises(ValueError):
        Machine(machine_id=0, rack_id=0, gpus=[])


def test_cluster_rejects_duplicate_machine_ids(small_cluster):
    machines = list(small_cluster.machines)
    with pytest.raises(ValueError):
        Cluster(machines + [machines[0]])


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        _themis_sim_cluster(scale=0)
