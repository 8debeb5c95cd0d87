"""Stateful property test of the lease manager (Hypothesis state machine).

Random interleavings of grant, renew, transfer, release, revoke and the
clock running forward, on a hand-built cluster whose machines are listed
out of id order and whose GPU ids do not follow their NVLink slots.
After every step:

* the free index equals the unleased GPUs regrouped from scratch — in
  ascending machine id, each machine in ``(slot_id, gpu_id)`` order —
  and its per-machine counts equal a recount;
* ``pool_for_auction`` equals the rescan (``unleased_gpus`` +
  ``expired_gpus``) regrouped the same way, and ``expired_leases`` are
  the expired rescan's leases in gpu_id order;
* no GPU is both leased and free, and every GPU is one of the two;
* ``pool_for_auction``, and the simulator's ``_in_service`` view of it
  with some GPUs down, list machines in ascending id and no empty
  machine, so the offer vector built from either is canonical.

``derandomize=True``: the same programs on every run, so a failure here
is a regression, never a flake.
"""

from collections import Counter
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from helpers import group_pool, grouped_ids
from repro.cluster.topology import Cluster, Gpu, Machine
from repro.core.auction import OfferCounts, offer_counts
from repro.core.leases import LeaseManager
from repro.simulation.simulator import ClusterSimulator


def _machine(machine_id: int, rack_id: int, layout) -> Machine:
    """A machine from ``(gpu_id, slot_id)`` pairs, kept in the given order."""
    return Machine(
        machine_id,
        rack_id,
        [Gpu(gpu_id, machine_id, rack_id, slot_id) for gpu_id, slot_id in layout],
    )


#: Machine 2 is listed first; machine 0's ids run against its slots.
CLUSTER = Cluster(
    [
        _machine(2, 1, [(9, 0), (8, 0)]),
        _machine(0, 0, [(5, 1), (0, 0), (7, 0), (1, 1)]),
        _machine(1, 0, [(2, 0)]),
        _machine(3, 1, [(3, 1), (4, 0), (6, 1)]),
    ],
    name="shuffled",
)
GPUS = CLUSTER.gpus
APPS = ("a", "b", "c")


class LeaseManagerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.leases = LeaseManager(GPUS)
        self.now = 0.0
        #: GPU ids out of service, as the simulator's ``_down_gpu_ids``.
        self.down: set[int] = set()

    def leased(self) -> list[Gpu]:
        return [gpu for gpu in GPUS if self.leases.lease_of(gpu) is not None]

    # -- the mutations -------------------------------------------------
    @rule(
        pick=st.integers(0, 10**6),
        app=st.sampled_from(APPS),
        duration=st.integers(1, 6),
    )
    def grant(self, pick, app, duration):
        free = self.leases.unleased_gpus(GPUS)
        if free:
            gpu = free[pick % len(free)]
            self.leases.grant(gpu, app, f"{app}-job", self.now, float(duration))

    @precondition(lambda self: self.leased())
    @rule(pick=st.integers(0, 10**6), duration=st.integers(1, 6))
    def renew(self, pick, duration):
        held = self.leased()
        gpu = held[pick % len(held)]
        app = self.leases.holder(gpu)
        self.leases.grant(gpu, app, f"{app}-job", self.now, float(duration))

    @precondition(lambda self: self.leased())
    @rule(pick=st.integers(0, 10**6), duration=st.integers(1, 6))
    def transfer(self, pick, duration):
        held = self.leased()
        gpu = held[pick % len(held)]
        app = APPS[(APPS.index(self.leases.holder(gpu)) + 1) % len(APPS)]
        self.leases.grant(gpu, app, f"{app}-job", self.now, float(duration))

    @rule(pick=st.integers(0, 10**6))
    def release(self, pick):
        self.leases.release(GPUS[pick % len(GPUS)])

    @rule(pick=st.integers(0, 10**6), reason=st.sampled_from(("failure", "preemption")))
    def revoke(self, pick, reason):
        before = Counter(self.leases.revocations)
        gpu = GPUS[pick % len(GPUS)]
        was_leased = self.leases.lease_of(gpu) is not None
        self.leases.revoke(gpu, reason)
        before[reason] += was_leased
        assert +before == Counter(self.leases.revocations)

    @rule(down=st.sets(st.sampled_from([gpu.gpu_id for gpu in GPUS]), max_size=5))
    def take_down(self, down):
        self.down = down

    @rule(minutes=st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0)))
    def advance(self, minutes):
        self.now += minutes

    # -- what must hold after every step -------------------------------
    @invariant()
    def free_index_is_the_unleased_gpus_grouped(self):
        unleased = self.leases.unleased_gpus(GPUS)
        index = self.leases.free_by_machine
        assert grouped_ids(index) == grouped_ids(group_pool(unleased))
        assert list(index) == sorted(machine.machine_id for machine in CLUSTER.machines)
        recount = Counter(gpu.machine_id for gpu in unleased)
        assert {m: len(gpus) for m, gpus in index.items()} == {
            m: recount[m] for m in index
        }

    @invariant()
    def pool_is_the_rescan_grouped(self):
        leases = self.leases
        expired = leases.expired_gpus(self.now)
        rescan = leases.unleased_gpus(GPUS) + expired
        assert grouped_ids(leases.pool_for_auction(self.now)) == grouped_ids(
            group_pool(rescan)
        )
        assert leases.expired_leases(self.now) == [leases.lease_of(gpu) for gpu in expired]

    @invariant()
    def pools_offer_canonical_vectors(self):
        pool = self.leases.pool_for_auction(self.now)
        sim = SimpleNamespace(_down_gpu_ids=self.down, cluster=CLUSTER)
        in_service = ClusterSimulator._in_service(sim, pool)
        assert {gpu.gpu_id for gpus in in_service.values() for gpu in gpus} == {
            gpu.gpu_id for gpus in pool.values() for gpu in gpus
        } - self.down
        for grouped in (pool, in_service):
            assert list(grouped) == sorted(grouped)
            assert all(grouped.values())
            counts = OfferCounts.of_pool(grouped)
            assert list(counts.items()) == list(offer_counts(dict(counts)).items())

    @invariant()
    def no_gpu_is_leased_and_free(self):
        free = {gpu.gpu_id for gpus in self.leases.free_by_machine.values() for gpu in gpus}
        leased = {gpu.gpu_id for gpu in self.leased()}
        assert not free & leased
        assert free | leased == {gpu.gpu_id for gpu in GPUS}
        assert self.leases.utilisation(len(GPUS)) == len(leased) / len(GPUS)


LeaseManagerMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
    database=None,
)
TestLeaseManagerMachine = LeaseManagerMachine.TestCase
