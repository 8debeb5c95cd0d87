"""Shared assignment helpers: counts -> GPUs, greedy fill, pool draining.

Both the Themis ARBITER and the emulated baseline schedulers (Gandiva,
Tiresias, SLAQ — Section 8's comparison points are all modelled "to fit
into an auction-based fair market scheme") work with per-machine GPU
counts.  The pool a round offers arrives already grouped by machine,
slot-sorted within each (``LeaseManager.pool_for_auction``), so its
counts are one ``len`` per machine; what the policies share is

* concretising per-machine count assignments back into GPU grants, and
* :func:`drainable`, the mutable copy that :func:`take_packed` and
  ``take_scattered`` drain, since the round's pool is read-only.

:func:`greedy_utility_assign` is the additive-utility counterpart of
the auction's Nash-welfare solver, used by baselines that maximise a
sum (placement score for Gandiva, loss reduction for SLAQ, completion
time for Optimus).  Like that solver it is incremental by row/column
invalidation: a move by app a* on machine m* changes a*'s bundle,
current utility and headroom (its row) and m*'s free count (its
column) and nothing else, so only those pairs are re-scored and every
other pair's key is, bit for bit, what a rescan of the whole apps x
machines x {1, chunk} table would recompute.  And like the auction's
row pass it scores one machine per *class* (:class:`ClassedUtility`):
SLAQ and Optimus class machines by effective compute, Gandiva by the
auction's shape class.  The argument needs the ``utilities`` to be pure
while a call runs; all three callers pass utilities over frozen
per-round snapshots.  The rescan itself lives on as the tests'
reference (``tests/helpers.py::rescan_utility_assign``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional, Protocol, Sequence

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


def check_chunk_size(chunk_size: int) -> int:
    """``chunk_size`` if it can bound a greedy step, else ``ValueError``.

    Every scheduler that takes a ``chunk_size`` calls this where the
    value enters, so a bad one fails the constructor and not round 1.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    return chunk_size


#: What one row pass of a classed utility returns: the remaining
#: machines that are each their own class, every other remaining machine
#: grouped under its class (members in ascending id), and
#: ``probe(machine_id, machine_class, step)``, the utility of the row's
#: bundle plus ``step`` GPUs on a classed machine.
RowClasses = tuple[
    Sequence[int], Mapping[Hashable, Sequence[int]], Callable[[int, Hashable, int], float]
]


class ClassedUtility(Protocol):
    """A utility that declares machine classes to :func:`greedy_utility_assign`.

    ``row(bundle, remaining, cap)`` classes every machine of
    ``remaining`` (machine -> free GPUs, ascending ids) against the
    app's ``bundle``, a step on it being bounded by ``min(free, cap)``.
    Two machines of one class must value identically, bundle plus any
    step up to that bound, and a machine in ``bundle`` must be its own
    class.  A plain callable declares no classes: every machine is its
    own class.
    """

    def __call__(self, bundle: Mapping[int, int]) -> float: ...

    def row(
        self, bundle: Mapping[int, int], remaining: Mapping[int, int], cap: int
    ) -> RowClasses: ...


def greedy_utility_assign(
    pool: Mapping[int, int],
    utilities: Mapping[str, Callable[[Mapping[int, int]], float]],
    caps: Mapping[str, int],
    chunk_size: int = 4,
) -> dict[str, dict[int, int]]:
    """Greedy maximisation of an *additive* social objective.

    Repeatedly applies the single (app, machine, step) move with the
    largest marginal utility per GPU until no move improves, ``step``
    being 1 or ``min(chunk_size, free on the machine, app's headroom)``.
    Utilities are absolute (utility of the app's cumulative bundle);
    marginal gain is the difference.  Moves are ordered by the key
    ``(-gain, step, app_id, machine_id)``, a strict total order, so the
    result does not depend on iteration order.

    Incremental, and exact: each (app, machine) pair keeps its best key,
    and the move (a*, m*, step) re-scores row a* (its bundle, current
    utility and headroom changed) and column m* (its free count changed,
    or it left the pool).  Every other pair's bundle, current utility and
    step set are what they were, so its key is the float a full rescan
    would recompute and the minimum over the same keys is the same move.
    That needs ``utilities`` to be pure for the duration of the call —
    the callers pass utilities over per-round snapshots.  A bundle is
    evaluated at most once per machine: a pair remembers the values it
    has seen by its count on the machine, and forgets them only when the
    app grows on a *different* machine (which changes every such bundle).

    A row pass scores one machine per *class*.  A :class:`ClassedUtility`
    classes the remaining machines against the app's bundle; the first
    machine of each class is scored (through the row's ``probe``) and
    every later member gets the same entry under its own ``machine_id``.
    Exact: members value identically at every step up to their shared
    bound, which fixes the step set, so a member's own scoring would
    compute the same ``(-gain, step, value)`` — the entries differ only
    in ``machine_id``, as the rescan's would, and the move sequence is
    the same.  Members keep no ``seen`` values; a column event re-scores
    one through the utility itself.  A utility that declares no classes
    gets one class per machine through the same loop.
    """
    check_chunk_size(chunk_size)
    # Ascending ids: the order a classed row pass walks.
    remaining = {m: c for m, c in sorted(pool.items()) if c > 0}
    assignment: dict[str, dict[int, int]] = {a: {} for a in utilities}
    headroom = {a: caps.get(a, 0) for a in utilities}
    current: dict[str, float] = {}
    # app -> machine -> (-gain, step, app, machine, value): the pair's
    # best move (absent when none improves).  (step, app, machine) is
    # unique, so comparing entries never reaches the value.
    rows: dict[str, dict[int, tuple]] = {}
    # app -> machine -> {count on that machine: utility of the bundle}.
    seen: dict[str, dict[int, dict[int, float]]] = {}

    def score(
        app_id: str,
        machine_id: int,
        probe: Optional[Callable[[int, Hashable, int], float]] = None,
        machine_class: Hashable = None,
    ) -> Optional[tuple]:
        held = assignment[app_id]
        values = seen[app_id].setdefault(machine_id, {})
        base = current[app_id]
        count = held.get(machine_id, 0)
        chunk = min(chunk_size, remaining[machine_id], headroom[app_id])
        best = None
        for step in (1, chunk) if chunk > 1 else (1,):
            value = values.get(count + step)
            if value is None:
                if probe is None:
                    bundle = dict(held)
                    bundle[machine_id] = count + step
                    value = utilities[app_id](bundle)
                else:
                    value = probe(machine_id, machine_class, step)
                values[count + step] = value
            gain = (value - base) / step
            if gain > 1e-12 and (best is None or -gain < best[0]):
                best = (-gain, step, app_id, machine_id, value)
        if best is None:
            rows[app_id].pop(machine_id, None)
        else:
            rows[app_id][machine_id] = best
        return best

    def score_row(app_id: str) -> None:
        """Score ``app_id`` against every remaining machine, once per class."""
        row = getattr(utilities[app_id], "row", None)
        if row is None:
            own, classes, probe = remaining, {}, None
        else:
            cap = min(chunk_size, headroom[app_id])
            own, classes, probe = row(assignment[app_id], remaining, cap)
        for machine_id in own:
            score(app_id, machine_id)
        entries = rows[app_id]
        for machine_class, members in classes.items():
            best = score(app_id, members[0], probe, machine_class)
            for member in members[1:]:
                if best is None:
                    entries.pop(member, None)
                else:
                    entries[member] = (best[0], best[1], app_id, member, best[4])

    for app_id in utilities:
        if headroom[app_id] > 0 and remaining:
            current[app_id] = utilities[app_id]({})
            rows[app_id], seen[app_id] = {}, {}
            score_row(app_id)
    while True:
        move = min((e for row in rows.values() for e in row.values()), default=None)
        if move is None:
            break
        _, step, app_id, machine_id, value = move
        held = assignment[app_id]
        held[machine_id] = held.get(machine_id, 0) + step
        current[app_id] = value
        headroom[app_id] -= step
        remaining[machine_id] -= step
        if remaining[machine_id] <= 0:
            del remaining[machine_id]
            for row in rows.values():
                row.pop(machine_id, None)
        if headroom[app_id] <= 0:
            del rows[app_id], seen[app_id]
        else:
            # Row: every bundle of the app changed, except in its count
            # on the machine it just grew on (a class member kept none).
            seen[app_id] = {machine_id: seen[app_id].get(machine_id, {})}
            score_row(app_id)
        if machine_id in remaining:
            # Column: a pair changes only if the machine can no longer
            # fill the chunk step it offered (its step-1 probe is the same).
            free = remaining[machine_id]
            for other in rows:
                if other != app_id and free < min(chunk_size, headroom[other]):
                    score(other, machine_id)
    return {a: b for a, b in assignment.items() if b}


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
