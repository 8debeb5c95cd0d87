"""Unit tests for the lease manager."""

import pytest

from repro.core.leases import LeaseManager


def test_grant_and_holder(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    lease = manager.grant(gpu, "app-a", "job-1", now=0.0, duration=20.0)
    assert manager.holder(gpu) == "app-a"
    assert manager.is_leased(gpu)
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
    ids = {gpu.gpu_id for gpu in pool}
    assert 0 in ids  # expired lease
    assert 1 not in ids  # live lease
    assert len(ids) == small_cluster.num_gpus - 1


def test_leases_of_app(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(3), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(1), "b", "j", 0.0, 10.0)
    leases = manager.leases_of_app("a")
    assert [l.gpu.gpu_id for l in leases] == [0, 3]


def test_next_expiry(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    assert manager.next_expiry(0.0) is None
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(1), "a", "j", 0.0, 25.0)
    assert manager.next_expiry(0.0) == 10.0
    assert manager.next_expiry(10.0) == 25.0  # strictly after now
    assert manager.next_expiry(12.0) == 25.0
    assert manager.next_expiry(30.0) is None


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
    assert manager.active_lease_count == 0


@pytest.mark.parametrize("query_first", (False, True))
def test_free_dict_pool_matches_the_rescan(small_cluster, query_first):
    """The maintained free dict and a full rescan give the same pool,
    whether the pool was first queried before or after the mutations."""
    gpus = small_cluster.gpus
    manager = LeaseManager(gpus)
    if query_first:
        assert len(manager.pool_for_auction(0.0)) == len(gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)   # will expire
    manager.grant(small_cluster.gpu(1), "a", "j", 0.0, 30.0)   # stays live
    manager.grant(small_cluster.gpu(2), "b", "k", 0.0, 30.0)
    manager.release(small_cluster.gpu(2))                       # back to free
    manager.release(small_cluster.gpu(3))                       # no-op: unleased
    for now in (0.0, 15.0, 40.0):
        pool = [g.gpu_id for g in manager.pool_for_auction(now)]
        rescan = manager.unleased_gpus(gpus) + manager.expired_gpus(now)
        assert pool == sorted(g.gpu_id for g in rescan)
        assert sorted(g.gpu_id for g in manager.free_gpus()) == [
            g.gpu_id for g in manager.unleased_gpus(gpus)
        ]


def test_pool_after_regrant_transfer(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    manager.grant(small_cluster.gpu(0), "a", "j", 0.0, 10.0)
    manager.grant(small_cluster.gpu(0), "b", "k", 5.0, 10.0)  # ownership transfer
    pool = manager.pool_for_auction(now=5.0)
    assert 0 not in {gpu.gpu_id for gpu in pool}
    manager.release(small_cluster.gpu(0))
    pool = manager.pool_for_auction(now=5.0)
    assert 0 in {gpu.gpu_id for gpu in pool}


def test_revoke_counts_by_reason(small_cluster):
    manager = LeaseManager(small_cluster.gpus)
    gpu = small_cluster.gpu(0)
    manager.grant(gpu, "a", "j", 0.0, 10.0)
    revoked = manager.revoke(gpu, reason="failure")
    assert revoked is not None and revoked.app_id == "a"
    assert not manager.is_leased(gpu)
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
