"""The partial-allocation (PA) auction of Section 5.1 / Pseudocode 2.

Three stages:

1. **Proportional-fair winner determination** — find the assignment of
   offered GPUs to bidding apps maximising the Nash product of
   valuations ``prod_i V_i(R_i)``.  The paper solves this with Gurobi;
   we use a greedy marginal-log-gain solver (with an exhaustive
   reference solver for small instances, used in tests).  Apps with
   zero current value (starved, unbounded rho) are rescued first —
   matching max-Nash-welfare semantics, where any assignment giving a
   zero-value app something dominates all assignments that do not.

2. **Hidden payments** — each winner ``i`` keeps only a fraction
   ``c_i = prod_{j != i} V_j(R_j,pf) / prod_{j != i} V_j(R_-i_j,pf)``
   of its proportional-fair bundle, where the denominator re-solves the
   market without ``i``.  This is what makes truthful reporting of V a
   dominant strategy (Cole, Gkatzelis, Goel 2013).

3. **Leftovers** — GPUs withheld as payments are reported back to the
   caller; the ARBITER hands them to non-participating apps in a
   placement-sensitive, work-conserving way (Section 5.1, "Leftover
   Allocation").

The offer vector
----------------

Every market here is offered one vector R: machine id -> free GPUs, in
ascending machine id, every count at least 1.  :class:`OfferCounts` is
that vector, and :func:`offer_counts` is the one canonicaliser: it
returns an :class:`OfferCounts` as it is, and sorts and filters anything
else.  The auction, a :class:`~repro.core.bids.Bid` and
:func:`greedy_solve` each pass their pool through it, so a round that
builds R once from the lease pool (:meth:`OfferCounts.of_pool`, the
ARBITER and the Gandiva, SLAQ and Optimus baselines) re-sorts and
re-filters nothing.  An :class:`OfferCounts` is read-only once built.

One solver, two objectives
--------------------------

Every market here is solved by one lazy-heap greedy, :func:`greedy_solve`:
Themis' auction, and the Gandiva, SLAQ and Optimus baselines that
Section 8 models as bidders in the same market.  It applies the best
``(app, machine, step)`` move until none improves, re-scoring only the
moved app's row and the moved machine's column, one heap entry per
machine class, through a per-bidder pair memo.  Only the objective's key
differs.  :class:`NashWelfare` (Themis) ranks moves by marginal log value
per GPU and rescues zero-value bidders first; a rescue key reads the raw
free count, so rescue scores are neither memoised nor classed by the
step bound.  :class:`~repro.core.assignment.AdditiveWelfare` (the
baselines) ranks by marginal utility per GPU, ``(-gain, step, app,
machine)``, counting a gain only above ``1e-12``.  A bidder supplies its
demand, its value of a bundle, its row classes and its pair memo: a
:class:`~repro.core.bids.Bid`, or a
:class:`~repro.core.assignment.UtilityBid` wrapping a baseline's utility.

The lazy heap
-------------

A full rescan re-scores every ``(app, machine, step)`` move per applied
move: ``O(A x M)`` valuation probes per move (``A`` apps, ``M`` machines
with free GPUs), and hidden payments re-solve the market once per
winner.  :func:`greedy_solve` is a CELF-style lazy greedy over a heap of
move keys, one entry per ``(app, machine)`` pair.  The **staleness
invariant** that makes it exact:

    a cached score for pair ``(a, m)`` depends *only* on app ``a``'s
    current bundle (and therefore its current value and headroom) and
    on machine ``m``'s free-GPU count.  Applying a move by app ``A``
    on machine ``Q`` therefore invalidates exactly the entries of row
    ``A`` and column ``Q``; every other cached score is still exact.

After each move only the ``O(A + M)`` invalidated pairs are re-scored
(an entry records how many moves had been applied when it was built;
one whose app or machine moved later is stale and discarded on pop), so
the heap minimum is always a freshly scored, exact argmin: the solver
replays the rescan's choice sequence *byte-identically*, tie-breaks
included, without relying on submodularity of the gains.  That needs
each bidder's values to be pure while a solve runs; bids and the
baselines' utilities price frozen per-round snapshots.

Bound-gated, symmetry-reduced re-scoring
----------------------------------------

The post-move re-scores probe trajectory-dependent bundles no
cross-round cache can prime, and dominate on wide pools.  Plain
lazy-CELF re-validation is NOT exact here: Themis marginal gains are
non-monotone (a shrinking machine can *raise* a pair's normalized gain —
tests/test_auction_equivalence.py pins a counterexample), so the solver
applies two *provably exact* reductions instead.

**Skip rule (the invalidation algebra).**  Off the rescue path
:func:`_score_pair` probes ``current_key + {machine: step}`` for ``step
in {1, chunk}``, ``chunk = min(CHUNK_SIZE, free, headroom)``;
``current_value`` is the bidder's value of ``current_key``, and neither
objective's non-rescue key reads ``free`` — so the score is pure in
``(machine_id, current_key, chunk)``.  A column shrink that leaves
``chunk`` unchanged *cannot* have changed it and is served from the
bidder's memo.  Rescue scores read the live ``free`` in their tie-break
and are not memoised: the ablation table in README measured no loss
without that memo.

**Shape symmetry (one score per machine class).**  On a wide pool most
machines of a row are indistinguishable to its app, and a bidder's
``row`` says which.  For a :class:`~repro.core.bids.Bid` (and Gandiva's
packing utility), by the shape lemma
(:func:`repro.core.fairness.bundle_shape`) a noise-free valuation reads
a bundle only through its *shape* — per machine, in id order: rack label
by first appearance, speeds, count — so two machines that extend the
app's total key (holdings + bundle so far) to equal shapes score
identically up to the ``machine_id`` in the last key slot.  The class of
a machine (:func:`repro.core.fairness.shape_classes`) is its own for a
machine already in the total key (the step lands on an existing entry),
else ``(insertion position among the total key's ids, index of its rack
among the total key's racks or "new", speeds, chunk)`` — raw ``free``
instead of ``chunk`` on the rescue path.  The *position* is part of the
class because the carve breaks effective-compute ties toward lower ids:
a free machine of the same rack and speed sorts before or after the
holdings and can change which rack a job drains first
(tests/test_shape_symmetry.py pins a 4.0-vs-5.2 counterexample).  SLAQ's
and Optimus' utilities read only effective compute; their class is
``(speed, chunk)``.

**One heap entry per class.**  The row pass walks the remaining machines
in ascending id, scores the *lowest* member of each class through the
row's probe (a bid's reads its kernel off the row's table,
:class:`~repro.core.fairness.RowProbe`) and pushes one entry with the
class's sorted member list.  Held machines and columns stay per pair.
An entry built after ``n`` moves is *live* while neither its app nor its
machine has moved since.  Popped with the app moved, it is discarded
(the row was rebuilt); with only the machine moved (a competitor took
from the representative), the next member untouched since the build is
pushed with the same score under its own ``machine_id``.  Exact because:

* every heap entry is still an exact per-pair entry under that test;
* a pair without its own entry shares its key up to the final
  ``machine_id`` with its class's entry and has a larger id, so it
  cannot be the argmin while that entry lives;
* a stale placeholder sorts *before* its successor, so it is popped —
  and the successor pushed — before anything that could lose to the
  successor is applied (the k-way-merge argument);
* a member touched since the build got its own exact entry from the
  column pass, and the walk skips it.

A noisy bid (its noise hash reads the id key), a pool under
:data:`repro.core.bids._CLASS_MIN_POOL` machines (nothing to group) and
a baseline utility without classes are scored per machine.  The
reductions change *how often* a float is computed or an entry pushed,
never *which* float or which move.

Payment re-solves resume the full solve's heap.  The greedy state of
the ``without_i`` market evolves identically to the full market's until
the full solve pops the first live move of ``i``: removing ``i``'s
candidate entries cannot change any earlier argmin, and a pop of one of
them (stale, or a placeholder pushing its successor) touches no other
bidder's entry.  At that pop every live ``(app, machine)`` pair of the
other bidders is represented exactly in the heap, so the market without
``i`` *is* that state minus ``i``.  When hidden payments will re-solve
(two or more bidders) the full solve keeps a :class:`_Checkpoint` of its
state at each such pop, and ``i``'s re-solve starts from it: ``i``'s
entries are dropped, the rest re-heapified, and only the suffix is
solved, no other bidder's row rebuilt.  All solves share each
:class:`~repro.core.bids.Bid`'s pair memo and valuation caches, so
suffix scores the full solve already computed are hits.

Values come from the solves.  Every solve hands back each bidder's value
of its final bundle, the value its last move was scored at (or of the
empty bundle, with no move), so the mechanism asks a bid for no value
of a solved bundle again: the proportional-fair numerators, the
``without_i`` denominators and the welfare of an unshrunk winner are
read off the solves, and only a bundle a payment shrank is valued anew.
A bidder's values are pure within the auction, so these are the floats
``value_of`` would return, bit for bit.

The pre-refactor full-rescan solver is kept as
:func:`rescan_fair_allocation` — the reference implementation the
equivalence tests compare against.  Nothing in ``src/`` calls it and
the auction has no solver option: one property test runs the whole
mechanism on it through ``tests/helpers.py::RescanAuction``, a
subclass whose ``_solve`` is the reference (it keeps no checkpoints,
so its re-solves start cold), over the markets of
``tests/helpers.py::markets``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Optional, Sequence

from repro.cluster.topology import ordered_sum
from repro.core.assignment import CHUNK_SIZE
from repro.core.fairness import extend_key
from repro.obs.profiler import NULL_PROFILER

if TYPE_CHECKING:
    from repro.core.bids import Bid

#: Floor used when taking logs of zero valuations in payment ratios.
_VALUE_EPSILON = 1e-12


def _merge(base: Mapping[int, int], machine_id: int, extra: int) -> dict[int, int]:
    """Bundle ``base`` with ``extra`` more GPUs on ``machine_id``."""
    bundle = dict(base)
    bundle[machine_id] = bundle.get(machine_id, 0) + extra
    return bundle


def _bundle_total(bundle: Mapping[int, int]) -> int:
    return sum(bundle.values())


#: Canonical bundle key: sorted ((machine, count), ...) tuple.
_BundleKey = tuple[tuple[int, int], ...]


class OfferCounts(dict):
    """The offer vector R (module docstring, "The offer vector"):
    machine id -> free GPUs, ascending machine id, every count >= 1.
    Build one with :func:`offer_counts` or :meth:`of_pool`; it is
    read-only once built."""

    __slots__ = ()

    @classmethod
    def of_pool(cls, pool: Mapping[int, Sequence[Any]]) -> "OfferCounts":
        """R of a pool grouped by machine as a round hands it out
        (``LeaseManager.pool_for_auction``: ascending machine id, no
        empty machine): one ``len`` per machine, nothing sorted."""
        return cls(zip(pool, map(len, pool.values())))


def offer_counts(pool: Mapping[int, int]) -> OfferCounts:
    """``pool`` (machine id -> free GPUs) as the canonical offer vector:
    ``pool`` itself when it is an :class:`OfferCounts`, else its
    machines with a positive count in ascending id."""
    if type(pool) is OfferCounts:
        return pool
    return OfferCounts(sorted((m, c) for m, c in pool.items() if c > 0))


@dataclass
class AuctionOutcome:
    """Everything the ARBITER needs from one auction round."""

    winners: dict[str, dict[int, int]]
    proportional_fair: dict[str, dict[int, int]]
    payments: dict[str, float]
    leftover: dict[int, int]
    participants: tuple[str, ...]
    nash_log_welfare: float = 0.0

    @property
    def total_allocated(self) -> int:
        """GPUs handed to auction winners (excluding leftovers)."""
        return sum(_bundle_total(bundle) for bundle in self.winners.values())

    @property
    def total_leftover(self) -> int:
        """GPUs no winner keeps (to be given to non-participants): the
        ones hidden payments withheld and the ones no bidder took."""
        return _bundle_total(self.leftover)

    @property
    def num_paid(self) -> int:
        """Proportional-fair winners that kept fewer GPUs than their bundle."""
        winners = self.winners
        return sum(
            1 for app_id, bundle in self.proportional_fair.items()
            if _bundle_total(winners.get(app_id, {})) < _bundle_total(bundle)
        )

    @property
    def gpus_withheld(self) -> int:
        """GPUs the hidden payments took off the proportional-fair bundles."""
        return (
            sum(_bundle_total(bundle) for bundle in self.proportional_fair.values())
            - self.total_allocated
        )


@dataclass
class AuctionSolveStats:
    """Instrumentation for one :meth:`PartialAllocationAuction.run` call.

    ``pair_scores`` counts candidate (app, machine) scorings — each is
    at most two valuation probes — and is the quantity the lazy heap
    exists to minimise; ``replayed_moves`` counts the moves the payment
    re-solves skip by resuming the full solve's checkpoint (the moves
    before the excluded app's first win), none of them scored again.

    ``warm_hits`` counts pair scores served from the per-bid
    pair-score memo, which holds gain-path scores only (module
    docstring, "Skip rule"), and ``warm_misses`` the ones that had to
    be probed fresh, every rescue score among them.

    The ``rescore_*`` pair instruments the post-move re-scoring wall:
    ``rescore_carves`` counts kernel carves the row/column re-scores
    after applied moves performed; ``rescore_skipped`` counts post-move
    gain-path scores served whole from the memo (no probe at all).  Total
    work is ``estimator.carve_count`` — what the CI ceiling gates —
    and ``heap_pushes``: one per scored pair or class, one per successor.
    """

    solves: int = 0
    moves: int = 0
    replayed_moves: int = 0
    pair_scores: int = 0
    warm_hits: int = 0
    warm_misses: int = 0
    rescore_carves: int = 0
    rescore_skipped: int = 0
    heap_pushes: int = 0


#: One applied greedy move: (app_id, machine_id, step, value after move).
_Move = tuple[str, int, int, float]


class _Checkpoint(NamedTuple):
    """The full solve's state as it popped the first live move of one
    app, the move not yet applied: where that app's payment re-solve
    resumes (module docstring, "Payment re-solves").  Every field is a
    copy; a resume copies again, so a checkpoint can be resumed twice."""

    heap: list
    remaining: dict[int, int]
    assignment: dict[str, dict[int, int]]
    bundle_keys: dict[str, _BundleKey]
    values: dict[str, float]
    granted: dict[str, int]
    app_moved_at: dict[str, int]
    machine_moved_at: dict[int, int]
    moves: tuple[_Move, ...]


def _stamped(key: tuple, move: _Move, machine_id: int) -> tuple[tuple, _Move]:
    """The same score on another member of the class: only the
    ``machine_id`` ending the key and naming the move's machine differs."""
    return key[:-1] + (machine_id,), (move[0], machine_id, move[2], move[3])


#: Sentinel distinguishing "memoised as None" from "not memoised".
_MEMO_MISS = object()


class NashWelfare:
    """Themis' objective, the greedy step of max Nash welfare.

    A move's key is ``(1, -gain, step, app_id, machine_id)``, ``gain``
    being the marginal log value per GPU, and only a rise in value is a
    move.  A zero-value bidder is *rescued* first (one GPU makes its
    value positive, and lexicographic max-Nash-welfare maximises the
    number of positive-value apps before the product) under ``(0,
    -value, step, -free * speed, app_id, machine_id)``: highest new
    value, then the machine with the most *effective* free compute
    (count x the bidder's speed class, so the rescued app can grow
    co-located on fast GPUs), then ids.
    """

    #: A bidder valued at most this is rescued.
    rescue_at = 0.0

    @staticmethod
    def key(bid: Bid, app_id: str, machine_id: int, free: int, step: int, value: float,
            current: float) -> Optional[tuple]:
        if value <= current:
            return None
        if current <= 0.0:
            return (0, -value, step, -free * bid.machine_speed(machine_id), app_id, machine_id)
        gain = (math.log(value) - math.log(current)) / step
        return (1, -gain, step, app_id, machine_id)


def _score_pair(
    objective: Any, bid: Any, app_id: str, machine_id: int, free: int,
    held: Mapping[int, int], current_key: _BundleKey, current_value: float, headroom: int,
    stats: Optional[AuctionSolveStats] = None, rescore: bool = False,
    machine_class: Optional[tuple] = None, probe: Any = None,
) -> Optional[tuple[tuple, _Move]]:
    """Best (key, move) for one (app, machine) pair under ``objective``,
    or ``None``; keys are unique per entry, embedding (step, app_id,
    machine_id).  A rescue tries one GPU; any other score tries 1 and
    ``min(CHUNK_SIZE, free, headroom)`` and is memoised per bidder under
    its *exact purity key* ``(machine_id, current_key, chunk)`` (module
    docstring, "Skip rule").  With ``machine_class`` and the ``probe`` of
    the bidder's row it scores a class representative: the class replaces
    the machine in the memo key, a hit scored on another member is
    restamped, and a miss asks ``probe(machine_id, machine_class, step)``
    for each step's value.  ``rescore=True`` marks a post-move re-score
    (counter attribution only).
    """
    rescue = current_value <= objective.rescue_at
    chunk = min(CHUNK_SIZE, free, headroom)
    memo = bid._pair_memo
    if not rescue:
        if machine_class is not None:
            memo_key: tuple = (current_key, *machine_class)
        else:
            memo_key = (machine_id, current_key, chunk)
        cached = memo.get(memo_key, _MEMO_MISS)
        if cached is not _MEMO_MISS:
            if stats is not None:
                stats.warm_hits += 1
                if rescore:
                    stats.rescore_skipped += 1
            if cached is None:
                return None
            key, move = cached  # type: ignore[misc]
            if move[1] != machine_id:
                return _stamped(key, move, machine_id)
            return cached  # type: ignore[return-value]
    if stats is not None:
        stats.warm_misses += 1
    if rescue:
        step_sizes: tuple[int, ...] = (1,)
    else:
        step_sizes = (1,) if chunk <= 1 else (1, chunk)
    key_of = objective.key
    best: Optional[tuple[tuple, _Move]] = None
    for step in step_sizes:
        if machine_class is None:
            new_value = bid.value_after(held, current_key, machine_id, step)
        else:
            new_value = probe(machine_id, machine_class, step)
        key = key_of(bid, app_id, machine_id, free, step, new_value, current_value)
        if key is not None and (best is None or key < best[0]):
            best = (key, (app_id, machine_id, step, new_value))
    if not rescue:
        memo[memo_key] = best
    return best


def greedy_solve(
    pool: Mapping[int, int], bids: Mapping[str, Any], objective: Any,
    exclude: Optional[str] = None, resume: Optional[_Checkpoint] = None,
    checkpoints: Optional[dict[str, _Checkpoint]] = None,
    stats: Optional[AuctionSolveStats] = None, profiler: Any = NULL_PROFILER,
    estimator: Any = None,
) -> tuple[dict[str, dict[int, int]], list[_Move], dict[str, float]]:
    """The greedy assignment of ``pool`` (machine -> free GPUs) to
    ``bids`` under ``objective``, by the lazy heap (module docstring).

    Each step applies the move with the smallest ``objective.key(bid,
    app_id, machine_id, free, step, value, current)`` (``None``: no
    move) among every bidder grabbing 1 or ``min(CHUNK_SIZE, free,
    headroom)`` GPUs on a machine; bidders valued at most
    ``objective.rescue_at`` are rescued.  A bidder supplies ``demand``,
    ``value_of({})``, ``value_after(held, key, machine_id, step)`` (its
    bundle ``held``, canonical ``key``, plus ``step`` GPUs on
    ``machine_id``), ``row(held, key, remaining, cap)`` (machine classes,
    or ``None``: per machine) and ``_pair_memo``.

    The payment re-solves: ``exclude`` drops one bidder, and ``resume``,
    the checkpoint a solve of the same ``pool`` and ``bids`` kept for
    ``exclude``, starts from that state instead of from scratch.  A
    ``checkpoints`` dict is filled with one checkpoint per app, taken
    as the solve pops the app's first live move.  ``estimator`` and
    ``profiler`` serve only ``stats``.  Returns ``(assignment, moves,
    values)``: every bidder in id order, bundles in move order, the moves
    before a resumed checkpoint included, and every bidder with demand's
    value of its final bundle (its last move's, else ``value_of({})``).
    """
    if stats is not None:
        stats.solves += 1
    apps = [a for a in sorted(bids) if a != exclude]
    if resume is None:
        # Ascending machine id: the order the row pass groups classes in.
        remaining = dict(offer_counts(pool))
        assignment: dict[str, dict[int, int]] = {a: {} for a in apps}
        bundle_keys: dict[str, _BundleKey] = dict.fromkeys(apps, ())
        values: dict[str, float] = {}
        granted = dict.fromkeys(apps, 0)
        moves: list[_Move] = []
        # An entry built after ``len(moves)`` applied moves is live while
        # neither its app nor its machine has moved since; a machine
        # that never moved has no clock (it reads 0).
        app_moved_at = dict.fromkeys(apps, 0)
        machine_moved_at: dict[int, int] = {}
        heap: list[tuple] = []
    else:
        # The market without ``exclude`` is the checkpointed state minus
        # its entries: every other bidder's live pair is in the heap.
        heap = [entry for entry in resume.heap if entry[1][0] != exclude]
        heapq.heapify(heap)
        remaining = dict(resume.remaining)
        assignment = {a: resume.assignment[a] for a in apps}
        bundle_keys = dict(resume.bundle_keys)
        values = dict(resume.values)
        del values[exclude]
        granted = dict(resume.granted)
        moves = list(resume.moves)
        app_moved_at = dict(resume.app_moved_at)
        machine_moved_at = dict(resume.machine_moved_at)
        if stats is not None:
            stats.replayed_moves += len(moves)

    def apply(app_id: str, machine_id: int, step: int, new_value: float) -> None:
        assignment[app_id] = _merge(assignment[app_id], machine_id, step)
        bundle_keys[app_id] = extend_key(bundle_keys[app_id], machine_id, step)
        values[app_id] = new_value
        granted[app_id] += step
        remaining[machine_id] -= step
        if remaining[machine_id] <= 0:
            del remaining[machine_id]

    def push(scored, members: Sequence[int], index: int, built_at: int) -> None:
        """Heap entry for ``members[index]``, standing for the rest."""
        if stats is not None:
            stats.heap_pushes += 1
        heapq.heappush(heap, (*scored, built_at, members, index))

    def push_pair(app_id: str, machine_id: int, rescore: bool = False) -> None:
        free = remaining.get(machine_id, 0)
        bid = bids[app_id]
        headroom = bid.demand - granted[app_id]
        if free <= 0 or headroom <= 0:
            return
        if stats is not None:
            stats.pair_scores += 1
        scored = _score_pair(
            objective, bid, app_id, machine_id, free, assignment[app_id],
            bundle_keys[app_id], values[app_id], headroom, stats, rescore,
        )
        if scored is not None:
            push(scored, [machine_id], 0, len(moves))

    def push_row(app_id: str, rescore: bool = False) -> None:
        """Score ``app_id`` against every remaining machine: one entry per
        class of the bidder's ``row`` (module docstring, "Shape symmetry"),
        scored on its lowest member; per machine for the held ones, or
        without classes."""
        bid = bids[app_id]
        headroom = bid.demand - granted[app_id]
        if headroom <= 0:
            return
        held, current_key, current_value = assignment[app_id], bundle_keys[app_id], values[app_id]
        # A rescue's tie-break term reads the raw free count.
        cap = math.inf if current_value <= objective.rescue_at else min(CHUNK_SIZE, headroom)
        row = bid.row(held, current_key, remaining, cap)
        if row is None:
            for machine_id in remaining:
                push_pair(app_id, machine_id, rescore)
            return
        own, classes, probe = row
        for machine_id in own:
            push_pair(app_id, machine_id, rescore)
        built_at = len(moves)
        for machine_class, members in classes.items():
            if stats is not None:
                stats.pair_scores += 1
            scored = _score_pair(
                objective, bid, app_id, members[0], remaining[members[0]], held,
                current_key, current_value, headroom, stats, rescore, machine_class, probe,
            )
            if scored is not None:
                push(scored, members, 0, built_at)

    def rescore_after_move(app_id: str, machine_id: int) -> None:
        """Re-score column ``machine_id`` and row ``app_id``."""
        carves_before = (
            estimator.carve_count
            if stats is not None and estimator is not None
            else 0
        )
        if machine_id in remaining:
            for other_app in apps:
                if other_app != app_id:
                    push_pair(other_app, machine_id, True)
        push_row(app_id, True)
        if stats is not None and estimator is not None:
            stats.rescore_carves += estimator.carve_count - carves_before

    if resume is None and remaining:
        for app_id in apps:
            bid = bids[app_id]
            if bid.demand > 0:
                values[app_id] = bid.value_of({})
                push_row(app_id)

    # Once the pool is placed no entry can be live: stop, don't drain.
    while heap and remaining:
        key, move, built_at, members, index = heapq.heappop(heap)
        app_id, machine_id = move[0], move[1]
        if app_moved_at[app_id] > built_at:
            continue  # stale: the app's row was rebuilt since
        if machine_moved_at.get(machine_id, 0) > built_at:
            # A competitor took from the representative (its own
            # exact entry came from the column pass): the next
            # untouched member of the class now stands for it.
            for successor in range(index + 1, len(members)):
                if machine_moved_at.get(members[successor], 0) <= built_at:
                    scored = _stamped(key, move, members[successor])
                    push(scored, members, successor, built_at)
                    break
            continue
        if checkpoints is not None and app_id not in checkpoints:
            checkpoints[app_id] = _Checkpoint(
                heap[:], dict(remaining), dict(assignment), dict(bundle_keys),
                dict(values), dict(granted), dict(app_moved_at),
                dict(machine_moved_at), tuple(moves),
            )
        apply(*move)
        moves.append(move)
        if stats is not None:
            stats.moves += 1
        # Precise invalidation: only row app_id and column machine_id
        # scores changed; re-score them now so every live heap entry
        # stays exact.
        app_moved_at[app_id] = machine_moved_at[machine_id] = len(moves)
        if profiler.enabled:
            with profiler.phase("rescore"):
                rescore_after_move(app_id, machine_id)
        else:
            rescore_after_move(app_id, machine_id)
    return assignment, moves, values


class PartialAllocationAuction:
    """Greedy-Nash-welfare implementation of the PA mechanism.

    Winner determination is :func:`greedy_solve` under
    :class:`NashWelfare`, whose steps :data:`~repro.core.assignment.CHUNK_SIZE`
    bounds.
    """

    def __init__(self) -> None:
        self.last_stats = AuctionSolveStats()
        # Observability hook; the simulator rewires this at bind time.
        self.profiler = NULL_PROFILER
        #: Shared FairnessEstimator for carve accounting; the scheduler
        #: binds it, ad-hoc callers leave it and it is read off a bid.
        self.estimator = None

    def _solve(
        self,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        exclude: Optional[str] = None,
        resume: Optional[_Checkpoint] = None,
        checkpoints: Optional[dict[str, _Checkpoint]] = None,
        stats: Optional[AuctionSolveStats] = None,
    ) -> tuple[dict[str, dict[int, int]], list[_Move], dict[str, float]]:
        """Stage 1, the proportional-fair assignment, and the payment
        re-solves: ``(assignment, moves, values)`` of :func:`greedy_solve`
        (the seam ``tests/helpers.py::RescanAuction`` overrides).  The
        mechanism reads the value of every solved bundle off ``values``
        (:meth:`_values`)."""
        # All of an auction's bids share one estimator.
        estimator = self.estimator
        if estimator is None and bids:
            estimator = next(iter(bids.values()))._estimator
        return greedy_solve(
            pool, bids, NashWelfare, exclude, resume, checkpoints, stats,
            self.profiler, estimator,
        )

    # ------------------------------------------------------------------
    # Stage 2: hidden payments
    # ------------------------------------------------------------------
    def _log_value(self, value: float) -> float:
        return math.log(max(value, _VALUE_EPSILON))

    @staticmethod
    def _values(
        values: dict[str, float], bids: Mapping[str, Bid], apps: Sequence[str]
    ) -> dict[str, float]:
        """A solve's ``values`` completed over ``apps``: a bidder it holds
        no value for had no demand, so took nothing, and is asked
        ``value_of({})``."""
        for app_id in apps:
            if app_id not in values:
                values[app_id] = bids[app_id].value_of({})
        return values

    def _payment_fraction(
        self,
        app_id: str,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        pf_values: Mapping[str, float],
        resume: Optional[_Checkpoint] = None,
        stats: Optional[AuctionSolveStats] = None,
    ) -> float:
        """``c_i`` of Pseudocode 2: the externality app ``i`` imposes.

        The Cole-Gkatzelis-Goel ratio is defined over divisible goods
        where valuations are strictly positive.  Our indivisible-GPU
        setting admits exactly-zero values (a starved app holding
        nothing), and a 0 -> positive transition between the two
        markets would turn the ratio into an unbounded artefact of the
        zero floor rather than a meaningful externality.  We therefore
        aggregate the ratio over competitors with positive value in
        *both* markets — for everyone else the externality is already
        expressed through the allocation itself.

        ``pf_values`` holds every bidder's value of its proportional-fair
        bundle.  ``resume``, the full solve's checkpoint for ``i``, starts
        the ``without_i`` re-solve where the two markets part (module
        docstring, "Payment re-solves"); without it the re-solve is cold.
        """
        others = [a for a in bids if a != app_id]
        if not others:
            return 1.0
        _, _, without_values = self._solve(
            pool, bids, exclude=app_id, resume=resume, stats=stats
        )
        without_values = self._values(without_values, bids, others)
        log_ratio = 0.0
        for other in others:
            v_with = pf_values[other]
            v_without = without_values[other]
            if v_with > 0.0 and v_without > 0.0:
                log_ratio += math.log(v_with) - math.log(v_without)
        fraction = math.exp(log_ratio)
        return max(0.0, min(1.0, fraction))

    @staticmethod
    def _shrink_bundle(bundle: Mapping[int, int], keep: int) -> dict[int, int]:
        """Drop GPUs down to ``keep``, removing from the most fragmented
        machines first so the surviving bundle stays tightly packed."""
        total = _bundle_total(bundle)
        drop = total - keep
        if drop <= 0:
            return dict(bundle)
        shrunk = dict(bundle)
        # Smallest per-machine counts are the placement-stragglers.
        for machine_id in sorted(shrunk, key=lambda m: (shrunk[m], m)):
            if drop <= 0:
                break
            removed = min(shrunk[machine_id], drop)
            shrunk[machine_id] -= removed
            drop -= removed
            if shrunk[machine_id] == 0:
                del shrunk[machine_id]
        return shrunk

    # ------------------------------------------------------------------
    # Full mechanism
    # ------------------------------------------------------------------
    def run(
        self,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        apply_hidden_payments: bool = True,
    ) -> AuctionOutcome:
        """Run the PA mechanism over ``pool`` with the given bids.

        ``apply_hidden_payments=False`` disables stage 2 (pure
        proportional fairness) — used by the ablation benchmark that
        quantifies what truthfulness protection costs.
        """
        pool = offer_counts(pool)
        participants = tuple(sorted(bids))
        stats = AuctionSolveStats()
        self.last_stats = stats
        if not pool or not participants:
            return AuctionOutcome(
                winners={},
                proportional_fair={},
                payments={},
                leftover=dict(pool),
                participants=participants,
            )
        # Only a market of two or more bidders re-solves for payments.
        checkpoints: Optional[dict[str, _Checkpoint]] = (
            {} if apply_hidden_payments and len(participants) > 1 else None
        )
        with self.profiler.phase("auction_solve"):
            pf_allocation, _, pf_values = self._solve(
                pool, bids, checkpoints=checkpoints, stats=stats
            )
        # The proportional-fair values are fixed for the round; every
        # ``without_i`` ratio reads the same numerators.
        pf_values = self._values(pf_values, bids, participants)
        # Each participant's value of what it keeps: its proportional-fair
        # value unless a payment shrank its bundle.
        kept_values = dict(pf_values)
        payments: dict[str, float] = {}
        winners: dict[str, dict[int, int]] = {}
        with self.profiler.phase("payment_resolves"):
            for app_id in participants:
                bundle = pf_allocation.get(app_id, {})
                if not bundle:
                    payments[app_id] = 1.0
                    continue
                if apply_hidden_payments:
                    fraction = self._payment_fraction(
                        app_id, pool, bids, pf_values,
                        checkpoints.get(app_id) if checkpoints else None, stats,
                    )
                else:
                    fraction = 1.0
                payments[app_id] = fraction
                total = _bundle_total(bundle)
                keep = math.floor(fraction * total + 1e-9)
                shrunk = self._shrink_bundle(bundle, keep)
                if keep < total:
                    kept_values[app_id] = bids[app_id].value_of(shrunk)
                if shrunk:
                    winners[app_id] = shrunk
        # The winners' machines are the only ones whose count moves.
        leftover = dict(pool)
        for bundle in winners.values():
            for machine_id, count in bundle.items():
                left = leftover.get(machine_id, 0) - count
                if left < 0:
                    raise RuntimeError("auction over-allocated a machine; invariant violated")
                if left:
                    leftover[machine_id] = left
                else:
                    del leftover[machine_id]
        welfare = ordered_sum(self._log_value(kept_values[a]) for a in participants)
        return AuctionOutcome(
            winners=winners,
            proportional_fair={a: dict(b) for a, b in pf_allocation.items() if b},
            payments=payments,
            leftover=leftover,
            participants=participants,
            nash_log_welfare=welfare,
        )


def rescan_fair_allocation(
    pool: Mapping[int, int],
    bids: Mapping[str, Bid],
    exclude: Optional[str] = None,
) -> dict[str, dict[int, int]]:
    """Pre-refactor full-rescan greedy solver (reference implementation).

    Every greedy step re-scores every ``(app, machine, step)`` move —
    ``O(apps x machines)`` valuation probes per applied move.  Kept
    verbatim as the ground truth the lazy solver is tested against.
    """
    remaining = {m: c for m, c in pool.items() if c > 0}
    apps = [a for a in sorted(bids) if a != exclude]
    assignment: dict[str, dict[int, int]] = {a: {} for a in apps}
    values = {a: bids[a].value_of({}) for a in apps}
    granted = {a: 0 for a in apps}

    while remaining:
        best_rescue: Optional[tuple] = None  # (key, move)
        best_gain: Optional[tuple] = None
        for app_id in apps:
            bid = bids[app_id]
            headroom = bid.demand - granted[app_id]
            if headroom <= 0:
                continue
            current = assignment[app_id]
            current_value = values[app_id]
            for machine_id in sorted(remaining):
                free = remaining[machine_id]
                if current_value <= 0.0:
                    step_sizes = {1}
                else:
                    step_sizes = {1, min(CHUNK_SIZE, free, headroom)}
                for step in sorted(step_sizes):
                    if step <= 0:
                        continue
                    bundle = _merge(current, machine_id, step)
                    new_value = bid.value_of(bundle)
                    if new_value <= current_value:
                        continue
                    move = (app_id, machine_id, step, new_value)
                    if current_value <= 0.0:
                        key = (
                            -new_value,
                            step,
                            -free * bid.machine_speed(machine_id),
                            app_id,
                            machine_id,
                        )
                        if best_rescue is None or key < best_rescue[0]:
                            best_rescue = (key, move)
                    else:
                        gain = (math.log(new_value) - math.log(current_value)) / step
                        key = (-gain, step, app_id, machine_id)
                        if best_gain is None or key < best_gain[0]:
                            best_gain = (key, move)
        chosen = best_rescue or best_gain
        if chosen is None:
            break
        app_id, machine_id, step, new_value = chosen[1]
        assignment[app_id] = _merge(assignment[app_id], machine_id, step)
        values[app_id] = new_value
        granted[app_id] += step
        remaining[machine_id] -= step
        if remaining[machine_id] <= 0:
            del remaining[machine_id]
    return assignment


def exhaustive_nash_allocation(
    pool: Mapping[int, int],
    bids: Mapping[str, Bid],
    max_states: int = 200_000,
) -> dict[str, dict[int, int]]:
    """Brute-force max-Nash-welfare assignment (reference for tests).

    Enumerates every split of each machine's free GPUs across apps.
    Zero-value apps are handled lexicographically: first maximise how
    many apps get positive value, then the product of positive values.
    Only feasible for tiny instances; guarded by ``max_states``.
    """
    pool = {m: c for m, c in pool.items() if c > 0}
    apps = sorted(bids)
    if not apps:
        return {}
    machines = sorted(pool)

    def splits(count: int, ways: int):
        """All tuples of ``ways`` non-negative ints summing to <= count."""
        if ways == 1:
            for take in range(count + 1):
                yield (take,)
            return
        for take in range(count + 1):
            for rest in splits(count - take, ways - 1):
                yield (take,) + rest

    per_machine_options = [list(splits(pool[m], len(apps))) for m in machines]
    total_states = 1
    for options in per_machine_options:
        total_states *= len(options)
        if total_states > max_states:
            raise ValueError(
                f"instance too large for exhaustive search ({total_states} states)"
            )

    best_key = None
    best_assignment: dict[str, dict[int, int]] = {a: {} for a in apps}
    for combo in itertools.product(*per_machine_options):
        assignment: dict[str, dict[int, int]] = {a: {} for a in apps}
        feasible = True
        for machine_index, split in enumerate(combo):
            machine_id = machines[machine_index]
            for app_index, take in enumerate(split):
                if take > 0:
                    assignment[apps[app_index]][machine_id] = take
        for app_id in apps:
            if _bundle_total(assignment[app_id]) > bids[app_id].demand:
                feasible = False
                break
        if not feasible:
            continue
        values = [bids[a].value_of(assignment[a]) for a in apps]
        positive = sum(1 for v in values if v > 0)
        log_product = ordered_sum(math.log(v) for v in values if v > 0)
        key = (positive, log_product)
        if best_key is None or key > best_key:
            best_key = key
            best_assignment = assignment
    return {a: bundle for a, bundle in best_assignment.items() if bundle}
