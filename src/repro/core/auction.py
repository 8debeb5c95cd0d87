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

Solver complexity and the lazy heap
-----------------------------------

The original winner determination was a full rescan: every greedy step
re-scored every ``(app, machine, step)`` move, i.e. ``O(A x M)``
valuation probes per applied move and ``O(G/chunk x A x M)`` per solve
(``A`` apps, ``M`` machines with free GPUs, ``G`` pool GPUs).  With
hidden payments on, the market is re-solved once per winner, so one
auction round cost ``O(A)`` solves — ``O(G/chunk x A^2 x M)`` probes.

The default solver (:meth:`PartialAllocationAuction._solve_lazy`) is a
CELF-style lazy-greedy over a max-heap of candidate moves.  Each heap
entry caches the score of the best move for one ``(app, machine)``
pair.  The **staleness invariant** that makes the heap exact is:

    a cached score for pair ``(a, m)`` depends *only* on app ``a``'s
    current bundle (and therefore its current value and headroom) and
    on machine ``m``'s free-GPU count.  Applying a move by app ``A``
    on machine ``Q`` therefore invalidates exactly the entries of row
    ``A`` and column ``Q``; every other cached score is still exact.

After each applied move only the ``O(A + M)`` invalidated pairs are
re-scored (version counters mark the remaining heap entries stale, and
stale entries are discarded lazily on pop), so the heap minimum is
always a freshly scored, exact argmin — the solver replays the full
rescan's choice sequence *byte-identically*, including tie-breaks,
without relying on submodularity of the marginal gains.  Per-solve cost
drops to ``O(A x M)`` initial scores plus ``O(G/chunk x (A + M))``
maintenance.

Bound-gated, symmetry-reduced re-scoring
----------------------------------------

The ``O(A + M)`` post-move re-scores are *precise* valuation probes
over trajectory-dependent compound bundles — identical work in
incremental and cold modes, unprimeable by any cross-round cache, and
the dominant cost on wide pools.  Plain lazy-CELF stale-heap
re-validation is NOT exact here: Themis marginal gains are non-monotone
(a shrinking machine can *raise* a pair's normalized gain — see
tests/test_rescore_exactness.py for a pinned counterexample), so the
lazy solver instead applies two *provably exact* reductions.

**Skip rule (the invalidation algebra).**  :meth:`_score_pair`'s result
is a pure function of a key narrower than its argument list:

* on the gain path (``current_value > 0``) the probed bundles are
  ``current_key + {machine: step}`` for ``step in {1, chunk}`` with
  ``chunk = min(chunk_size, free, headroom)``; ``current_value`` is
  itself ``bid.value_from_key(current_key)`` and the heap key
  ``(1, -gain, step, app_id, machine_id)`` never reads ``free`` — so
  the score is pure in ``(machine_id, current_key, chunk)``.  A column
  shrink that leaves ``min(chunk_size, free, headroom)`` unchanged
  therefore *cannot* have changed the score and is served from the
  memo;
* on the rescue path (``current_value <= 0`` — itself pure in
  ``current_key``) the step is always 1 and ``new_value`` is pure in
  ``(machine_id, current_key)``; only the tie-break term
  ``-free * speed`` reads ``free``, so the memo stores ``new_value``
  and rebuilds the heap key from the live ``free`` with the identical
  float expression.

**Shape symmetry (one score per machine class).**  A row is one app
against every remaining machine, and on a wide pool most of those
machines are indistinguishable to it.  By the shape lemma
(:func:`repro.core.fairness.bundle_shape`) a noise-free valuation reads
a bundle only through its *shape* — per machine, in id order: rack
label by first appearance, speeds, count — so within one row two
machines that extend the app's total key (holdings + bundle so far) to
equal shapes score identically up to the ``machine_id`` in the last key
slot.  The class of a machine is therefore:

* a machine already in the total key — its own class (the step lands on
  an existing entry);
* otherwise ``(insertion position among the total key's ids, index of
  its rack among the total key's racks or "new", speeds, chunk)`` with
  ``chunk = min(chunk_size, free, headroom)`` — or raw ``free`` on the
  rescue path, whose tie-break term reads it.  The *position* is part
  of the class because the carve breaks effective-compute ties toward
  lower ids: a free machine of the same rack and speed sorts before or
  after the holdings and can change which rack a job drains first
  (tests/test_shape_symmetry.py pins a 4.0-vs-5.2 counterexample).

The row pass scores **one** representative per class through
:meth:`_score_pair` and stamps the other members' heap entries from it
with their own ``machine_id`` — every machine still owns a heap entry,
so tie-breaks, version tokens and the move sequence are untouched.
With ``bid.noise_theta > 0`` the noise hash reads the id key, the class
degenerates to the machine, and the row is scored per machine; pools
under :data:`_CLASS_MIN_POOL` machines take that path too (nothing to
group).  Columns (every app against the moved machine) stay per pair.
Both reductions change *how often* a float is computed, never *which*
float.

Payment re-solves are warm-started: the greedy state of the
``without_i`` market evolves identically to the full market until the
first move the full solve awarded to ``i`` (removing ``i``'s candidate
entries cannot change any earlier argmin), so that move prefix is
replayed without any probing and only the suffix is solved.  All
solves share each :class:`~repro.core.bids.Bid`'s rho/valuation cache,
so suffix probes of bundles already seen by the full solve are cache
hits.  The pre-refactor full-rescan solver is kept as
:func:`rescan_fair_allocation` — the reference implementation the
equivalence tests and ``repro bench`` compare against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.bids import Bid
from repro.obs.profiler import NULL_PROFILER

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


def _merged_key(base: _BundleKey, machine_id: int, extra: int) -> _BundleKey:
    """``base`` with ``extra`` more GPUs on ``machine_id``, staying sorted.

    The lazy solver's probe path: extending an already-canonical key is
    O(len(bundle)) with no dict build or re-sort (bundles are tiny —
    a handful of machines per app).
    """
    out: list[tuple[int, int]] = []
    inserted = False
    for machine, count in base:
        if machine == machine_id:
            out.append((machine, count + extra))
            inserted = True
        elif not inserted and machine > machine_id:
            out.append((machine_id, extra))
            out.append((machine, count))
            inserted = True
        else:
            out.append((machine, count))
    if not inserted:
        out.append((machine_id, extra))
    return tuple(out)


@dataclass
class AuctionOutcome:
    """Everything the ARBITER needs from one auction round."""

    winners: dict[str, dict[int, int]]
    proportional_fair: dict[str, dict[int, int]]
    payments: dict[str, float]
    leftover: dict[int, int]
    participants: tuple[str, ...]
    nash_log_welfare: float = 0.0

    def won_gpus(self, app_id: str) -> int:
        """Total GPUs app ``app_id`` won after payments."""
        return _bundle_total(self.winners.get(app_id, {}))

    @property
    def total_allocated(self) -> int:
        """GPUs handed to auction winners (excluding leftovers)."""
        return sum(_bundle_total(bundle) for bundle in self.winners.values())

    @property
    def total_leftover(self) -> int:
        """GPUs withheld by hidden payments (to be given to non-participants)."""
        return _bundle_total(self.leftover)


@dataclass
class AuctionSolveStats:
    """Instrumentation for one :meth:`PartialAllocationAuction.run` call.

    ``pair_scores`` counts candidate (app, machine) scorings — each is
    at most two valuation probes — and is the quantity the lazy heap
    exists to minimise; ``replayed_moves`` counts warm-start moves the
    payment re-solves applied without any scoring at all.

    ``warm_hits`` counts pair scores served from the per-bid
    pair-score memo and ``warm_misses`` the ones that had to be probed
    fresh.

    The ``rescore_*`` pair instruments the post-move re-scoring wall:
    ``rescore_carves`` counts kernel carves the row/column re-scores
    after applied moves performed; ``rescore_skipped`` counts post-move
    pair scores served whole from the memo (no probe at all).  Total
    work is ``estimator.carve_count`` — what the CI ceiling gates.
    """

    solves: int = 0
    moves: int = 0
    replayed_moves: int = 0
    pair_scores: int = 0
    warm_hits: int = 0
    warm_misses: int = 0
    rescore_carves: int = 0
    rescore_skipped: int = 0


#: One applied greedy move: (app_id, machine_id, step, value after move).
_Move = tuple[str, int, int, float]

#: Sentinel distinguishing "memoised as None" from "not memoised".
_MEMO_MISS = object()

#: Narrowest pool whose rows are scored per machine class; below it
#: (the median round is a 1-2 machine renewal pool) there is nothing to
#: group and the per-machine path skips the row context.  Purely a perf
#: knob — both paths push identical heap entries.
_CLASS_MIN_POOL = 4


class PartialAllocationAuction:
    """Greedy-Nash-welfare implementation of the PA mechanism.

    ``chunk_size`` bounds how many co-located GPUs a single greedy step
    may hand to one app (defaults to 4 — one typical gang of the
    trace); smaller steps trade solve time for solution quality.

    ``solver`` selects the winner-determination implementation:
    ``"lazy"`` (default) is the CELF-style heap solver, ``"rescan"``
    the pre-refactor full rescan.  Both produce identical assignments
    (see the module docstring); ``"rescan"`` exists for equivalence
    tests and as the ``repro bench`` reference.
    """

    def __init__(self, chunk_size: int = 4, solver: str = "lazy") -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        if solver not in ("lazy", "rescan"):
            raise ValueError(f"solver must be 'lazy' or 'rescan', got {solver!r}")
        self.chunk_size = chunk_size
        self.solver = solver
        self.last_stats = AuctionSolveStats()
        # Observability hook; the simulator rewires this at bind time.
        self.profiler = NULL_PROFILER
        #: Shared FairnessEstimator for carve accounting; the scheduler
        #: binds it, ad-hoc callers leave it and it is read off a bid.
        self.estimator = None

    # ------------------------------------------------------------------
    # Stage 1: proportional-fair (max Nash welfare) assignment
    # ------------------------------------------------------------------
    def proportional_fair_allocation(
        self,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        exclude: Optional[str] = None,
    ) -> dict[str, dict[int, int]]:
        """Greedy max-Nash-welfare assignment of the pool to bidders.

        Each step applies the move with the best marginal log-valuation
        among every app grabbing 1 or ``chunk_size`` GPUs on any machine
        with free GPUs.  Rescue moves (taking an app from zero to
        positive value) always dominate, largest new value first, which
        is the lexicographic max-Nash-welfare rule.
        """
        assignment, _ = self._solve(pool, bids, exclude=exclude)
        return assignment

    def _solve(
        self,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        exclude: Optional[str] = None,
        prefix: Sequence[_Move] = (),
        stats: Optional[AuctionSolveStats] = None,
    ) -> tuple[dict[str, dict[int, int]], list[_Move]]:
        """Dispatch to the configured solver; returns (assignment, moves)."""
        if stats is not None:
            stats.solves += 1
        if self.solver == "rescan":
            assignment = rescan_fair_allocation(
                pool, bids, chunk_size=self.chunk_size, exclude=exclude
            )
            return assignment, []
        return self._solve_lazy(pool, bids, exclude, prefix, stats)

    def _score_pair(
        self,
        bid: Bid,
        app_id: str,
        machine_id: int,
        free: int,
        current_key: _BundleKey,
        current_value: float,
        headroom: int,
        stats: Optional[AuctionSolveStats] = None,
        rescore: bool = False,
    ) -> Optional[tuple[tuple, _Move]]:
        """Best (key, move) for one (app, machine) pair, or ``None``.

        Keys order rescues before gains (leading 0/1) and reproduce the
        rescan solver's tie-breaks exactly; they are unique per entry
        because they embed (step, app_id, machine_id).

        Results are memoised per bid under the *exact purity key* of
        the score (module docstring, "Skip rule"):

        * gain path — ``(machine_id, current_key, chunk)`` with
          ``chunk = min(chunk_size, free, headroom)``: the probed
          bundles and the heap key read ``free``/``headroom`` only
          through ``chunk``, so a column shrink that leaves ``chunk``
          unchanged is a guaranteed hit;
        * rescue path — ``(machine_id, current_key)``: the single
          step-1 probe never reads ``free``; only the heap key's
          tie-break term does, so the memo stores ``new_value`` (or
          ``None`` for "no improving move", equally free-independent)
          and the key is rebuilt from the live ``free`` with the same
          float expression the miss path uses.

        Whether a pair *is* a rescue is pure in ``current_key`` (it is
        ``bid.value_from_key(current_key) <= 0``), and the two key
        shapes differ in length, so the paths cannot collide.
        ``rescore=True`` marks a post-move re-score call (counter
        attribution only).
        """
        rescue = current_value <= 0.0
        memo = bid._pair_memo
        if rescue:
            memo_key: tuple = (machine_id, current_key)
        else:
            memo_key = (
                machine_id,
                current_key,
                min(self.chunk_size, free, headroom),
            )
        cached = memo.get(memo_key, _MEMO_MISS)
        if cached is not _MEMO_MISS:
            if stats is not None:
                stats.warm_hits += 1
                if rescore:
                    stats.rescore_skipped += 1
            if not rescue:
                return cached  # type: ignore[return-value]
            if cached is None:
                return None
            new_value: float = cached  # type: ignore[assignment]
            key = (
                0,
                -new_value,
                1,
                -free * bid.machine_speed(machine_id),
                app_id,
                machine_id,
            )
            return (key, (app_id, machine_id, 1, new_value))
        if stats is not None:
            stats.warm_misses += 1
        if rescue:
            # Rescue with the smallest possible grab: one GPU already
            # makes the app's value positive, and lexicographic
            # max-Nash-welfare maximises the number of positive-value
            # apps before the product.
            step_sizes: tuple[int, ...] = (1,)
        else:
            chunk = min(self.chunk_size, free, headroom)
            step_sizes = (1,) if chunk <= 1 else (1, chunk)
        best: Optional[tuple[tuple, _Move]] = None
        for step in step_sizes:
            new_value = bid.value_from_key(_merged_key(current_key, machine_id, step))
            if new_value <= current_value:
                continue
            move = (app_id, machine_id, step, new_value)
            if rescue:
                # Rescue: infinite log gain; prefer highest new value,
                # then machines with the most *effective* free compute
                # (count x speed class — so the rescued app can grow
                # co-located on fast GPUs), deterministic ties.
                key = (
                    0,
                    -new_value,
                    step,
                    -free * bid.machine_speed(machine_id),
                    app_id,
                    machine_id,
                )
            else:
                gain = (math.log(new_value) - math.log(current_value)) / step
                key = (1, -gain, step, app_id, machine_id)
            if best is None or key < best[0]:
                best = (key, move)
        if rescue:
            memo[memo_key] = None if best is None else best[1][3]
        else:
            memo[memo_key] = best
        return best

    def _solve_lazy(
        self,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        exclude: Optional[str],
        prefix: Sequence[_Move],
        stats: Optional[AuctionSolveStats],
    ) -> tuple[dict[str, dict[int, int]], list[_Move]]:
        """Lazy-greedy solver (see module docstring for the invariant)."""
        remaining = {m: c for m, c in pool.items() if c > 0}
        apps = [a for a in sorted(bids) if a != exclude]
        assignment: dict[str, dict[int, int]] = {a: {} for a in apps}
        bundle_keys: dict[str, _BundleKey] = {a: () for a in apps}
        values = {a: bids[a].value_of({}) for a in apps}
        granted = {a: 0 for a in apps}
        moves: list[_Move] = list(prefix)

        # Warm start: replay an already-validated move sequence without
        # re-scoring anything (see _payment_fraction).
        for app_id, machine_id, step, new_value in prefix:
            assignment[app_id] = _merge(assignment[app_id], machine_id, step)
            bundle_keys[app_id] = _merged_key(bundle_keys[app_id], machine_id, step)
            values[app_id] = new_value
            granted[app_id] += step
            remaining[machine_id] -= step
            if remaining[machine_id] <= 0:
                del remaining[machine_id]
        if stats is not None:
            stats.replayed_moves += len(prefix)

        app_version = {a: 0 for a in apps}
        machine_version = {m: 0 for m in remaining}
        heap: list[tuple] = []
        # Carve accounting needs the shared estimator; the scheduler
        # binds it on the auction, ad-hoc callers reach it through any
        # bid (all of an auction's bids share one).  Instrumentation
        # only — never values.
        estimator = self.estimator
        if estimator is None and bids:
            estimator = next(iter(bids.values()))._estimator

        def push_pair(app_id: str, machine_id: int, rescore: bool = False) -> None:
            free = remaining.get(machine_id, 0)
            if free <= 0:
                return
            bid = bids[app_id]
            headroom = bid.demand - granted[app_id]
            if headroom <= 0:
                return
            if stats is not None:
                stats.pair_scores += 1
            scored = self._score_pair(
                bid,
                app_id,
                machine_id,
                free,
                bundle_keys[app_id],
                values[app_id],
                headroom,
                stats,
                rescore,
            )
            if scored is None:
                return
            key, move = scored
            token = (app_version[app_id], machine_version[machine_id])
            heapq.heappush(heap, (key, app_id, machine_id, token, move))

        def push_row(app_id: str, rescore: bool = False) -> None:
            """Score ``app_id`` against every remaining machine.

            One :meth:`_score_pair` per machine *class* (module
            docstring, "Shape symmetry"); the other members' entries
            are stamped from it with their own ``machine_id``, so every
            machine still owns a heap entry, key and version token.
            Assumes the arbiter's contract that each bid was offered the
            pool being solved: ``Bid.rho_from_key``'s offer check runs
            on the representatives only.
            """
            bid = bids[app_id]
            headroom = bid.demand - granted[app_id]
            if headroom <= 0:
                return
            if len(remaining) < _CLASS_MIN_POOL or bid.noise_theta > 0.0:
                for machine_id in remaining:
                    push_pair(app_id, machine_id, rescore)
                return
            current_key = bundle_keys[app_id]
            current_value = values[app_id]
            rescue = current_value <= 0.0
            chunk_size = self.chunk_size
            version = app_version[app_id]
            reads = bid.state.machine_reads
            held = [machine for machine, _count in bid.total_key_of(current_key)]
            rack_index: dict[int, int] = {}
            for machine in held:
                rack_index.setdefault(reads[machine][0], len(rack_index))
            scored_classes: dict[tuple, object] = {}
            for machine_id, free in remaining.items():
                position = bisect_left(held, machine_id)
                if position < len(held) and held[position] == machine_id:
                    push_pair(app_id, machine_id, rescore)
                    continue
                rack_id, speeds = reads[machine_id]
                machine_class = (
                    position,
                    rack_index.get(rack_id, -1),
                    speeds,
                    free if rescue else min(chunk_size, free, headroom),
                )
                scored = scored_classes.get(machine_class, _MEMO_MISS)
                if scored is _MEMO_MISS:
                    if stats is not None:
                        stats.pair_scores += 1
                    scored = scored_classes[machine_class] = self._score_pair(
                        bid,
                        app_id,
                        machine_id,
                        free,
                        current_key,
                        current_value,
                        headroom,
                        stats,
                        rescore,
                    )
                if scored is None:
                    continue
                key, move = scored  # type: ignore[misc]
                if move[1] != machine_id:
                    key = key[:-1] + (machine_id,)
                    move = (app_id, machine_id, move[2], move[3])
                token = (version, machine_version[machine_id])
                heapq.heappush(heap, (key, app_id, machine_id, token, move))

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

        for app_id in apps:
            push_row(app_id)

        profiler = self.profiler
        while heap:
            key, app_id, machine_id, token, move = heapq.heappop(heap)
            if token != (app_version[app_id], machine_version[machine_id]):
                continue  # stale: a fresher entry for this pair was pushed
            _, _, step, new_value = move
            assignment[app_id] = _merge(assignment[app_id], machine_id, step)
            bundle_keys[app_id] = _merged_key(bundle_keys[app_id], machine_id, step)
            values[app_id] = new_value
            granted[app_id] += step
            remaining[machine_id] -= step
            if remaining[machine_id] <= 0:
                del remaining[machine_id]
            moves.append(move)
            if stats is not None:
                stats.moves += 1
            # Precise invalidation: only row app_id and column machine_id
            # scores changed; re-score them now so every live heap entry
            # stays exact.
            app_version[app_id] += 1
            machine_version[machine_id] += 1
            if profiler.enabled:
                with profiler.phase("rescore"):
                    rescore_after_move(app_id, machine_id)
            else:
                rescore_after_move(app_id, machine_id)
        return assignment, moves

    # ------------------------------------------------------------------
    # Stage 2: hidden payments
    # ------------------------------------------------------------------
    def _log_value(self, value: float) -> float:
        return math.log(max(value, _VALUE_EPSILON))

    def _payment_fraction(
        self,
        app_id: str,
        pool: Mapping[int, int],
        bids: Mapping[str, Bid],
        pf_allocation: Mapping[str, Mapping[int, int]],
        full_moves: Sequence[_Move] = (),
        stats: Optional[AuctionSolveStats] = None,
        pf_values: Optional[Mapping[str, float]] = None,
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

        ``full_moves`` (the full market's greedy move sequence) lets the
        ``without_i`` re-solve replay every move before ``i``'s first
        win for free: up to that point the two markets' greedy states
        are identical, and dropping ``i``'s candidate moves cannot
        change an argmin ``i`` did not win.
        """
        others = [a for a in bids if a != app_id]
        if not others:
            return 1.0
        prefix: Sequence[_Move] = ()
        if full_moves:
            first_win = next(
                (i for i, move in enumerate(full_moves) if move[0] == app_id),
                len(full_moves),
            )
            prefix = full_moves[:first_win]
        without_i, _ = self._solve(
            pool, bids, exclude=app_id, prefix=prefix, stats=stats
        )
        log_ratio = 0.0
        for other in others:
            if pf_values is not None:
                v_with = pf_values[other]
            else:
                v_with = bids[other].value_of(pf_allocation.get(other, {}))
            v_without = bids[other].value_of(without_i.get(other, {}))
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
        pool = {m: c for m, c in pool.items() if c > 0}
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
        with self.profiler.phase("auction_solve"):
            pf_allocation, full_moves = self._solve(pool, bids, stats=stats)
        payments: dict[str, float] = {}
        winners: dict[str, dict[int, int]] = {}
        with self.profiler.phase("payment_resolves"):
            # The proportional-fair values are fixed for the round; every
            # ``without_i`` ratio reads the same numerators.
            pf_values = {
                app_id: bids[app_id].value_of(pf_allocation.get(app_id, {}))
                for app_id in participants
            }
            for app_id in participants:
                bundle = pf_allocation.get(app_id, {})
                if not bundle:
                    payments[app_id] = 1.0
                    continue
                if apply_hidden_payments:
                    fraction = self._payment_fraction(
                        app_id, pool, bids, pf_allocation, full_moves, stats,
                        pf_values,
                    )
                else:
                    fraction = 1.0
                payments[app_id] = fraction
                keep = math.floor(fraction * _bundle_total(bundle) + 1e-9)
                shrunk = self._shrink_bundle(bundle, keep)
                if shrunk:
                    winners[app_id] = shrunk
        leftover = dict(pool)
        for bundle in winners.values():
            for machine_id, count in bundle.items():
                leftover[machine_id] = leftover.get(machine_id, 0) - count
        leftover = {m: c for m, c in leftover.items() if c > 0}
        if any(c < 0 for c in leftover.values()):
            raise RuntimeError("auction over-allocated a machine; invariant violated")
        welfare = sum(
            self._log_value(bids[a].value_of(winners.get(a, {}))) for a in participants
        )
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
    chunk_size: int = 4,
    exclude: Optional[str] = None,
) -> dict[str, dict[int, int]]:
    """Pre-refactor full-rescan greedy solver (reference implementation).

    Every greedy step re-scores every ``(app, machine, step)`` move —
    ``O(apps x machines)`` valuation probes per applied move.  Kept
    verbatim as the ground truth the lazy solver is tested against and
    the baseline ``repro bench`` measures speedups over.
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
                    step_sizes = {1, min(chunk_size, free, headroom)}
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
        log_product = sum(math.log(v) for v in values if v > 0)
        key = (positive, log_product)
        if best_key is None or key > best_key:
            best_key = key
            best_assignment = assignment
    return {a: bundle for a, bundle in best_assignment.items() if bundle}
