"""Unit tests for the lease manager."""

import pytest

from helpers import group_pool, grouped_ids
from repro.core.leases import LeaseManager


def test_grant_and_holder(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    lease = manager.grant(gpu, "app-a", "job-1", now=0.0, duration=20.0)
    assert manager.holder(gpu) == "app-a"
    assert manager.lease_of(gpu) is lease
    assert lease.expiry == 20.0
    assert not lease.is_expired(10.0)
    assert lease.is_expired(20.0)
    assert lease.remaining(15.0) == pytest.approx(5.0)


def test_grant_zero_duration_raises(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    with pytest.raises(ValueError):
        manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 0.0)


def test_release(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    manager.grant(gpu, "a", "j", 0.0, 10.0)
    released = manager.release(gpu)
    assert released is not None
    assert manager.holder(gpu) is None
    assert manager.release(gpu) is None  # idempotent


def test_regrant_transfers_ownership(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    manager.grant(gpu, "a", "j1", 0.0, 10.0)
    manager.grant(gpu, "b", "j2", 5.0, 10.0)
    assert manager.holder(gpu) == "b"
    assert manager.lease_of(gpu).expiry == 15.0


def test_expired_gpus(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(1), "a", "j", 0.0, 30.0)
    expired = manager.expired_gpus(now=15.0)
    assert [gpu.gpu_id for gpu in expired] == [0]


def test_pool_for_auction_combines_free_and_expired(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)  # expires
    manager.grant(small_cluster.gpu(1), "a", "j", 0.0, 30.0)  # active
    pool = manager.pool_for_auction(now=15.0)
    ids = {gpu.gpu_id for gpus in pool.values() for gpu in gpus}
    assert 0 in ids  # expired lease
    assert 1 not in ids  # live lease
    assert len(ids) == small_cluster.num_gpus - 1


def test_utilisation(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    assert manager.utilisation(12) == 0.0
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    assert manager.utilisation(12) == pytest.approx(1 / 12)
    with pytest.raises(ValueError):
        manager.utilisation(0)


def test_release_all(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpus = small_cluster.gpus[:3]
    for gpu in gpus:
        manager.grant(gpu, "a", "j", 0.0, 10.0)
    manager.release_all(gpus)
    assert manager.utilisation(12) == 0.0


@pytest.mark.parametrize("query_first", (False, True))
def test_free_dict_pool_matches_the_rescan(small_cluster, query_first):
    """The maintained free index and a full rescan give the same grouped
    pool, whether the pool was first queried before or after the mutations."""
    gpus = small_cluster.gpus
    manager = LeaseManager(gpus)
    if query_first:
        assert grouped_ids(manager.pool_for_auction(0.0)) == grouped_ids(group_pool(gpus))
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)   # will expire
    manager.grant(small_cluster.gpu(1), "a", "j", 0.0, 30.0)   # stays live
    manager.grant(small_cluster.gpu(2), "b", "k", 0.0, 30.0)
    manager.release(small_cluster.gpu(2))                       # back to free
    manager.release(small_cluster.gpu(3))                       # no-op: unleased
    for now in (0.0, 15.0, 40.0):
        rescan = manager.unleased_gpus(gpus) + manager.expired_gpus(now)
        assert grouped_ids(manager.pool_for_auction(now)) == grouped_ids(group_pool(rescan))
        assert grouped_ids(manager.free_by_machine) == grouped_ids(
            group_pool(manager.unleased_gpus(gpus))
        )


def test_pool_after_regrant_transfer(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(0), "b", "k", 5.0, 10.0)  # ownership transfer
    pool = manager.pool_for_auction(now=5.0)
    assert 0 not in {gpu.gpu_id for gpu in pool[0]}
    manager.release(small_cluster.gpu(0))
    pool = manager.pool_for_auction(now=5.0)
    assert 0 in {gpu.gpu_id for gpu in pool[0]}


def test_revoke_counts_by_reason(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    manager.grant(gpu, "a", "j", 0.0, 10.0)
    revoked = manager.revoke(gpu, reason="failure")
    assert revoked is not None and revoked.app_id == "a"
    assert manager.lease_of(gpu) is None
    assert manager.revocations == {"failure": 1}
    manager.grant(gpu, "b", "k", 0.0, 10.0)
    manager.revoke(gpu)  # default reason
    assert manager.revocations == {"failure": 1, "forced": 1}
    manager.grant(gpu, "c", "l", 0.0, 10.0)
    manager.revoke(gpu, reason="failure")
    assert manager.revocations == {"failure": 2, "forced": 1}


def test_revoke_unleased_is_noop(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    assert manager.revoke(small_cluster.gpu(0), reason="failure") is None
    assert manager.revocations == {}  # no-op revocations are not counted


def test_pool_is_grouped_by_machine_in_slot_order(small_cluster):
    """Whatever order the manager is built from, the pool lists machines
    in ascending id and each machine's GPUs by (slot_id, gpu_id); an
    expired lease on an otherwise full machine still lands in its slot."""
    manager = LeaseManager(list(reversed(small_cluster.gpus)))
    assert grouped_ids(manager.pool_for_auction(0.0)) == grouped_ids(
        group_pool(small_cluster.gpus)
    )
    machine0 = small_cluster.gpus_on_machine(0)
    for gpu in machine0:
        manager.grant(gpu, "a", "j", 0.0, 10.0 if gpu is machine0[1] else 30.0)
    pool = manager.pool_for_auction(15.0)
    assert list(pool) == [0, 1, 2, 3]
    assert [gpu.gpu_id for gpu in pool[0]] == [machine0[1].gpu_id]
    assert [lease.gpu for lease in manager.expired_leases(15.0)] == [machine0[1]]
    manager.release(machine0[2])
    manager.release(machine0[0])
    assert [gpu.gpu_id for gpu in manager.free_by_machine[0]] == [
        machine0[0].gpu_id, machine0[2].gpu_id
    ]
    assert [gpu.gpu_id for gpu in manager.pool_for_auction(15.0)[0]] == [
        gpu.gpu_id for gpu in machine0[:3]
    ]
