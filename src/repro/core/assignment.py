"""Shared assignment helpers: counts -> GPUs, the additive market, pool draining.

Both the Themis ARBITER and the emulated baseline schedulers (Gandiva,
Tiresias, SLAQ — Section 8's comparison points are all modelled "to fit
into an auction-based fair market scheme") work with per-machine GPU
counts.  The pool a round offers arrives already grouped by machine,
slot-sorted within each (``LeaseManager.pool_for_auction``), so its
counts are one ``len`` per machine; what the policies share is

* concretising per-machine count assignments back into GPU grants,
* :func:`drainable`, the mutable copy that :func:`take_packed` and
  ``take_scattered`` drain, since the round's pool is read-only, and
* the baselines' side of the one greedy market solver.

**One greedy solver, two objectives.**  Every market here is solved by
one lazy-heap greedy, :func:`repro.core.auction.greedy_solve`: Themis'
auction, and the Gandiva, SLAQ and Optimus baselines that Section 8
models as bidders in the same market.  It applies the best ``(app,
machine, step)`` move until none improves, re-scoring only the moved
app's row and the moved machine's column, one heap entry per machine
class, through a per-bidder pair memo.  Only the objective's key
differs.  :class:`~repro.core.auction.NashWelfare` (Themis) ranks moves
by marginal log value per GPU and rescues zero-value bidders first; a
rescue key reads the raw free count, so rescue scores are neither
memoised nor classed by the step bound.  :class:`AdditiveWelfare` (the
baselines) ranks by marginal utility per GPU, ``(-gain, step, app,
machine)``, counting a gain only above ``1e-12``.  A bidder supplies
its demand, its value of a bundle, its row classes and its pair memo: a
:class:`~repro.core.bids.Bid`, or a :class:`UtilityBid` wrapping a
baseline's utility (placement score for Gandiva, loss reduction for
SLAQ, completion time for Optimus).  The rescan the baselines' greedy
once was lives on as the tests' reference
(``tests/helpers.py::rescan_utility_assign``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.cluster.topology import Gpu


def drainable(pool: Mapping[int, Sequence[Gpu]]) -> dict[int, list[Gpu]]:
    """A copy of a grouped pool that :func:`take_packed` and
    ``take_scattered`` may drain.

    The pool ``assign`` receives shares its per-machine tuples with the
    lease manager's free index, and the simulator reads it again once
    ``assign`` returns, so a policy never mutates it.
    """
    return {machine_id: list(gpus) for machine_id, gpus in pool.items()}


def concretise(
    assignments: Mapping[str, Mapping[int, int]],
    pool_by_machine: Mapping[int, Sequence[Gpu]],
) -> dict[str, list[Gpu]]:
    """Turn per-machine count assignments into concrete GPU grants.

    Within a machine the pooled GPUs are slot-sorted and each app takes
    a contiguous run (largest bundles first, id tie-breaks), preserving
    NVLink-slot packing for the biggest consumer on every machine.
    Raises when assignments exceed the pooled supply.
    """
    result: dict[str, list[Gpu]] = {}
    cursors: dict[int, int] = {}
    per_machine_orders: dict[int, list[tuple[str, int]]] = {}
    for app_id, bundle in assignments.items():
        for machine_id, count in bundle.items():
            if count < 0:
                raise ValueError(f"negative count for app {app_id!r} on machine {machine_id}")
            if count > 0:
                per_machine_orders.setdefault(machine_id, []).append((app_id, count))
    for machine_id, orders in per_machine_orders.items():
        gpus = pool_by_machine.get(machine_id, ())
        orders.sort(key=lambda item: (-item[1], item[0]))
        for app_id, count in orders:
            start = cursors.get(machine_id, 0)
            granted = gpus[start : start + count]
            if len(granted) < count:
                raise RuntimeError(
                    f"assignment exceeds pooled GPUs on machine {machine_id}: "
                    f"wanted {count}, had {len(gpus) - start}"
                )
            cursors[machine_id] = start + count
            result.setdefault(app_id, []).extend(granted)
    return result


#: The greedy step bound of every market: a move hands one app 1 or
#: ``min(CHUNK_SIZE, free, headroom)`` co-located GPUs (4, one typical
#: gang of the trace).
CHUNK_SIZE = 4


class AdditiveWelfare:
    """The baselines' objective, a *sum* of utilities: a move's key is
    ``(-gain, step, app_id, machine_id)``, ``gain`` being the marginal
    utility per GPU (utilities are of the app's whole bundle), and only a
    gain above ``1e-12`` is a move."""

    #: Nobody is rescued.
    rescue_at = -math.inf

    @staticmethod
    def key(bid: Any, app_id: str, machine_id: int, free: int, step: int, value: float,
            current: float) -> Optional[tuple]:
        gain = (value - current) / step
        return (-gain, step, app_id, machine_id) if gain > 1e-12 else None


class UtilityBid:
    """A baseline app as a bidder of the greedy market: ``utility`` of a
    per-machine bundle, up to ``demand`` GPUs, for one solve: ``utility``
    is asked each value once, class probes' too, and must be pure while
    the solve runs.  Values are kept under the bundle split at the machine
    the step lands on, ``(rest of the bundle, machine, count there)``:
    an app's bundles only grow within a solve, so every probe of one
    bundle splits it alike.  ``utility`` sees the bundle in *move order*
    (machines in the order the app first grew on them): SLAQ and Optimus
    sum effective compute in that order, and the float depends on it.

    A ``utility`` with ``row(bundle, remaining, cap)`` declares machine
    classes: it returns the machines of ``remaining`` (machine -> free
    GPUs, ascending ids) that are each their own class, every other one
    under its class (members ascending), and ``probe(machine_id,
    machine_class, step)``, the utility of the bundle plus ``step`` GPUs
    on a classed machine.  Two machines of one class must value
    identically, bundle plus any step up to ``min(free, cap)``, and a
    machine in the bundle is its own class.  Without ``row``, every
    machine is.
    """

    __slots__ = ("utility", "value_of", "demand", "_row", "_values", "_pair_memo")

    def __init__(self, utility: Callable[[Mapping[int, int]], float], demand: int) -> None:
        self.utility = self.value_of = utility
        self._row = getattr(utility, "row", None)
        self.demand = demand
        self._values: dict[tuple, float] = {}
        self._pair_memo: dict[tuple, object] = {}

    def value_after(self, held: Mapping[int, int], key: tuple, machine_id: int, step: int) -> float:
        count = held.get(machine_id, 0)
        if count:
            key = tuple([entry for entry in key if entry[0] != machine_id])
        slot = (key, machine_id, count + step)
        value = self._values.get(slot)
        if value is None:
            bundle = dict(held)
            bundle[machine_id] = count + step
            value = self._values[slot] = self.utility(bundle)
        return value

    def row(self, held: Mapping[int, int], key: tuple, remaining: Mapping[int, int], cap: float):
        if self._row is None:
            return None
        own, classes, probe = self._row(held, remaining, cap)
        values = self._values

        def cached(machine_id: int, machine_class: tuple, step: int) -> float:
            # A classed machine is not in the bundle, and a row is built
            # once per bundle, so no probe has asked for this one yet.
            value = values[key, machine_id, step] = probe(machine_id, machine_class, step)
            return value

        return own, classes, cached


def take_packed(
    pool_by_machine: dict[int, list[Gpu]],
    count: int,
    preferred_machines: Sequence[int] = (),
    speed_of: Optional[Mapping[int, float]] = None,
) -> list[Gpu]:
    """Remove up to ``count`` GPUs from the pool, packing tightly.

    Drains preferred machines first (where the requester already has
    GPUs), then machines with the most *effective* free compute
    (count x GPU speed class when ``speed_of`` is given, plain count
    otherwise) — the straightforward placement- and generation-aware
    fill used by the non-auction baselines.  Mutates
    ``pool_by_machine``.
    """
    taken: list[Gpu] = []
    preferred = [m for m in preferred_machines if pool_by_machine.get(m)]
    preferred_set = set(preferred)
    weight = (lambda m: speed_of.get(m, 1.0)) if speed_of else (lambda m: 1.0)
    rest = sorted(
        (m for m in pool_by_machine if m not in preferred_set),
        key=lambda m: (-len(pool_by_machine[m]) * weight(m), m),
    )
    for machine_id in preferred + rest:
        if count <= 0:
            break
        gpus = pool_by_machine.get(machine_id)
        if not gpus:
            continue
        grab = min(count, len(gpus))
        taken.extend(gpus[:grab])
        del gpus[:grab]
        if not gpus:
            del pool_by_machine[machine_id]
        count -= grab
    return taken
