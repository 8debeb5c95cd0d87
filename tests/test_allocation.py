"""Unit tests for GPU allocation vectors."""

import pytest

from repro.cluster.allocation import Allocation
from repro.cluster.placement import LocalityLevel


def gpus_of(cluster, *ids):
    return [cluster.gpu(i) for i in ids]


def test_empty_allocation_is_falsy():
    alloc = Allocation()
    assert not alloc
    assert alloc.size == 0
    assert alloc.score() == 0.0


def test_allocation_deduplicates(small_cluster):
    gpu = small_cluster.gpu(0)
    alloc = Allocation([gpu, gpu])
    assert alloc.size == 1


def test_union_and_difference(small_cluster):
    a = Allocation(gpus_of(small_cluster, 0, 1))
    b = Allocation(gpus_of(small_cluster, 1, 2))
    assert (a | b).size == 3
    assert (a - b).gpu_ids == frozenset({0})


def test_equality_and_hash(small_cluster):
    a = Allocation(gpus_of(small_cluster, 0, 1))
    b = Allocation(gpus_of(small_cluster, 1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_contains_and_iteration(small_cluster):
    gpus = gpus_of(small_cluster, 0, 3)
    alloc = Allocation(gpus)
    assert small_cluster.gpu(0) in alloc
    assert small_cluster.gpu(1) not in alloc
    assert [g.gpu_id for g in alloc] == [0, 3]


def test_union_method_and_without(small_cluster):
    alloc = Allocation(gpus_of(small_cluster, 0))
    extended = alloc.union(gpus_of(small_cluster, 1, 2))
    assert extended.size == 3
    shrunk = extended - Allocation(gpus_of(small_cluster, 1))
    assert shrunk.gpu_ids == frozenset({0, 2})


def test_per_machine_counts(small_cluster):
    # GPUs 0-3 are machine 0; 4-7 machine 1.
    alloc = Allocation(gpus_of(small_cluster, 0, 1, 4))
    assert alloc.per_machine_counts() == {0: 2, 1: 1}


def test_machine_and_rack_ids(small_cluster):
    alloc = Allocation(gpus_of(small_cluster, 0, 4))
    assert alloc.machine_ids == (0, 1)


def test_level_slot_for_nvlink_pair(small_cluster):
    alloc = Allocation(gpus_of(small_cluster, 0, 1))  # same slot
    assert alloc.level() == LocalityLevel.SLOT
    assert alloc.score() == 1.0


def test_level_machine_for_cross_slot(small_cluster):
    alloc = Allocation(gpus_of(small_cluster, 0, 2))  # slots 0 and 1
    assert alloc.level() == LocalityLevel.MACHINE
    assert alloc.score() == 0.75


def test_level_rack_and_cluster(small_cluster):
    # Machines 0 (rack 0) and 2 (rack 0): same rack.
    same_rack = Allocation(gpus_of(small_cluster, 0, 8))
    assert same_rack.level() == LocalityLevel.RACK
    # Machines 0 (rack 0) and 1 (rack 1): cross rack.
    cross = Allocation(gpus_of(small_cluster, 0, 4))
    assert cross.level() == LocalityLevel.CLUSTER
    assert cross.score() == 0.25


def test_sub_requires_allocation_type(small_cluster):
    alloc = Allocation(gpus_of(small_cluster, 0))
    with pytest.raises(TypeError):
        alloc - [small_cluster.gpu(0)]
