"""Bids: valuation functions over subsets of the offered GPUs.

Section 5.2: "In response to an offer, each AGENT prepares a single bid.
This bid contains a valuation function V that provides, for each
resource subset, a value, i.e. the AGENT's estimate of the finish-time
fair metric the app will achieve with the allocation of the resource
subset."

A :class:`Bid` is both things the paper describes: the queryable
valuation function (used by the arbiter's winner determination, with
memoisation since the greedy solver probes many incremental bundles)
and the explicit table of ``(subset, rho)`` rows shown in Figure 3(b).
Bundles are per-machine GPU counts — "each allocation identifies the
fraction of each machine's free GPU resources desired by the app".

Figure 11's experiment injects a percentage error into every valuation;
the noise here is derived deterministically from ``(salt, app, bundle)``
so a bundle is always misestimated the *same* way within an auction
(the solver would otherwise chase inconsistent numbers) while different
auctions and apps see independent errors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.auction import offer_counts
from repro.core.fairness import (
    AppValuationState,
    FairnessEstimator,
    VALUE_CEILING,
    RowProbe,
    extend_key,
    merge_keys,
    shape_classes,
    value_from_rho,
)
from repro.workload.app import App

#: Narrowest pool whose rows are scored per machine class; below it
#: (the median round is a 1-2 machine renewal pool) there is nothing to
#: group and the per-machine path skips the row context.  Purely a perf
#: knob — both paths apply identical moves.
_CLASS_MIN_POOL = 4


def _bundle_key(extra_counts: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical hashable form of a per-machine count bundle."""
    return tuple(sorted((m, c) for m, c in extra_counts.items() if c > 0))


def _noise_factor(salt: int, app_id: str, key: tuple, theta: float) -> float:
    """Deterministic multiplicative error in ``[1 - theta, 1 + theta]``."""
    if theta <= 0.0:
        return 1.0
    digest = hashlib.sha256(f"{salt}:{app_id}:{key}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "little") / float(2**64)
    return 1.0 + theta * (2.0 * fraction - 1.0)


@dataclass(frozen=True)
class BidEntry:
    """One row of the valuation table of Figure 3(b)."""

    bundle: tuple[tuple[int, int], ...]
    rho: float
    value: float


class Bid:
    """An app's complete response to one resource offer."""

    def __init__(
        self,
        app: App,
        estimator: FairnessEstimator,
        now: float,
        offered_counts: Mapping[int, int],
        noise_theta: float = 0.0,
        noise_salt: int = 0,
        state: AppValuationState | None = None,
    ) -> None:
        self.app = app
        self.app_id = app.app_id
        self.now = now
        # The offer is read-only for the round; the arbiter's canonical
        # vector is kept as given.
        self.offered_counts = offer_counts(offered_counts)
        self.noise_theta = noise_theta
        self.noise_salt = noise_salt
        self._estimator = estimator
        # One rho cache per bid, shared across the auction's full solve
        # and every ``without_i`` payment re-solve (the solver probes the
        # same bundles in all of them).  Rhos are noisy and
        # clock-dependent, so they live and die with the bid;
        # ``rho_probes`` counts actual carve computations (cross-round
        # kernel-cache misses) and ``rho_lookups`` all queries; the perf
        # harness reports both.
        self._rho_cache: dict[tuple, float] = {}
        # The solver's gain-path pair-score memo, keyed on the *exact
        # purity key* of a score (repro.core.auction._score_pair):
        # a pair's ``(machine, current_key, step bound)`` or, for a row's
        # class representative, ``(current_key, *class)`` — so a column
        # shrink that leaves the step bound unchanged, or a re-solve
        # whose class has a new lowest member, is a hit.  Like the rho
        # cache it dies with the bid: scores embed clock-dependent
        # values.
        self._pair_memo: dict[tuple, object] = {}
        self.rho_probes = 0
        self.rho_lookups = 0
        # The app's holdings and job states are fixed for the duration
        # of the auction.  The cross-round :class:`AppValuationState`
        # carries the frozen snapshot plus the elapsed-independent
        # kernel caches; an AGENT passes its persistent instance in (so a
        # starved app's bid table survives verbatim between rounds, and
        # the round's rho probe of the app is this bid's current rho),
        # while ad-hoc callers get a fresh single-auction state.
        if state is None:
            state = AppValuationState(app, estimator)
        self._state = state
        carves_before = state.estimator.carve_count
        rho = state.held_rho(now)
        if state.estimator.carve_count != carves_before:
            self.rho_probes += 1
        snap = state.snapshot
        # The app's (single) model family selects its throughput-matrix
        # row for speed-class tie-breaks; mixed-family apps fall back to
        # the scalar generation speeds.  The family is memoised on the
        # snapshot — a starved app's snapshot survives many rounds of
        # bids, a held app's every round its drain keeps the job order —
        # and the map it sees on the perf model.
        self._speed_of = estimator.perf_model.machine_speeds_for(
            estimator.cluster, snap.family
        )
        self.demand = app.unmet_demand()
        # The empty bundle's row, as ``rho_of({})`` would fill it.
        self.rho_lookups += 1
        if noise_theta > 0.0 and not math.isinf(rho):
            rho *= _noise_factor(noise_salt, self.app_id, (), noise_theta)
        self._rho_cache[()] = rho
        self.current_rho = rho

    @property
    def state(self) -> AppValuationState:
        """The cross-round valuation state backing this bid."""
        return self._state

    # ------------------------------------------------------------------
    # Valuation queries
    # ------------------------------------------------------------------
    def rho_of(self, extra_counts: Mapping[int, int]) -> float:
        """(Noisy) estimated rho after adding ``extra_counts`` to the app.

        Raises when the bundle exceeds the offer — an AGENT cannot bid
        on GPUs it was not shown.
        """
        if not extra_counts:
            return self.rho_from_key(())
        return self.rho_from_key(_bundle_key(extra_counts))

    def rho_from_key(self, key: tuple[tuple[int, int], ...]) -> float:
        """``rho_of`` for a pre-canonicalised bundle key.

        The auction solver maintains each app's bundle as a sorted
        ``(machine, count)`` tuple and extends it incrementally, so the
        hot path skips the per-probe dict build and re-sort.
        """
        self.rho_lookups += 1
        cached = self._rho_cache.get(key)
        if cached is not None:
            return cached
        for machine_id, count in key:
            if count > self.offered_counts.get(machine_id, 0):
                raise ValueError(
                    f"bid of app {self.app_id} requests {count} GPUs on machine "
                    f"{machine_id} but only {self.offered_counts.get(machine_id, 0)} "
                    "were offered"
                )
        # For a starved app (the common case at high contention) the
        # bundle *is* the total allocation; otherwise the two canonical
        # keys merge linearly — no dict build on the hot path.
        total_key = merge_keys(self._state.base_key, key)
        state = self._state
        misses_before = state.estimator.carve_count
        rho = state.rho_at(self.now, total_key)
        if state.estimator.carve_count != misses_before:
            self.rho_probes += 1
        if self.noise_theta > 0.0 and not math.isinf(rho):
            rho *= _noise_factor(self.noise_salt, self.app_id, key, self.noise_theta)
        self._rho_cache[key] = rho
        return rho

    def value_of(self, extra_counts: Mapping[int, int]) -> float:
        """Valuation ``V = 1 / rho`` of a bundle (0 when rho is unbounded).

        A degenerate ``rho <= 0`` (an app whose estimated shared finish
        time is not ahead of ``now``) is clamped to the finite
        :data:`~repro.core.fairness.VALUE_CEILING` instead of ``inf`` —
        the solver's log-gain keys and ``nash_log_welfare`` must stay
        finite and totally ordered.
        """
        if not extra_counts:
            return self.value_from_key(())
        return self.value_from_key(_bundle_key(extra_counts))

    def value_from_key(self, key: tuple[tuple[int, int], ...]) -> float:
        """``value_of`` for a pre-canonicalised bundle key (hot path)."""
        return value_from_rho(self.rho_from_key(key))

    def value_after(self, held: Mapping[int, int], key: tuple, machine_id: int, step: int) -> float:
        """The greedy solver's per-machine probe: ``value_from_key`` of the
        bundle ``key`` plus ``step`` GPUs on ``machine_id`` (``held``, the
        same bundle in move order, is unread)."""
        return self.value_from_key(extend_key(key, machine_id, step))

    def row(self, held: Mapping[int, int], key: tuple, remaining: Mapping[int, int], cap: float):
        """The greedy solver's row classes against the bundle ``key``:
        :func:`~repro.core.fairness.shape_classes` and the row's class
        probe, or ``None`` (per machine) for a noisy bid, whose hash reads
        the machine ids, or a pool under :data:`_CLASS_MIN_POOL`.

        The probe ``(machine_id, machine_class, step)`` is the noise-free
        ``value_from_key`` of ``key`` plus ``step`` GPUs on
        ``machine_id`` of ``machine_class``, the kernel read off the row's
        table (:class:`~repro.core.fairness.RowProbe`).  It turns the
        kernel into a value with the arithmetic of
        :meth:`~repro.core.fairness.AppValuationState.rho_at` and
        :func:`~repro.core.fairness.value_from_rho`, bit for bit, reading
        the snapshot's elapsed time, remaining work and ideal time once
        per row.  No key is built: only the noise hash and the offer
        check read it."""
        if len(remaining) < _CLASS_MIN_POOL or self.noise_theta > 0.0:
            return None
        state = self._state
        row = RowProbe(state, key)
        estimator = state.estimator
        kernel_of = row.kernel
        snap = state.snapshot
        # A non-positive ideal time raised in this bid's own current-rho
        # probe, so the row divides by a positive one.
        t_ideal = snap.t_ideal
        elapsed = self.now - snap.arrival_time
        if elapsed < 0.0:
            elapsed = 0.0
        total = snap.total_remaining
        # FIRST_WINNER: the min over the served jobs of their current
        # remaining work over their rate; ALL_JOBS: the total over the
        # aggregate rate.  No active job, or no work left under ALL_JOBS,
        # reads no kernel: delta is 0.
        by_id = state._remaining_by_id if state.first_winner else None
        idle = not snap.job_tuples or (total <= 0 and by_id is None)
        isinf = math.isinf

        def probe(machine_id: int, machine_class: tuple, step: int) -> float:
            self.rho_lookups += 1
            if idle:
                delta = 0.0
            else:
                carves_before = estimator.carve_count
                kernel = kernel_of(machine_id, machine_class, step)
                if estimator.carve_count != carves_before:
                    self.rho_probes += 1
                if by_id is not None:
                    delta = math.inf
                    for job_id, rate in kernel:
                        per_job = by_id[job_id] / rate
                        if per_job < delta:
                            delta = per_job
                elif kernel <= 0:
                    delta = math.inf
                else:
                    delta = total / kernel
            rho = (elapsed + delta) / t_ideal
            if isinf(rho):
                return 0.0
            if rho <= 0:
                return VALUE_CEILING
            value = 1.0 / rho
            return VALUE_CEILING if VALUE_CEILING < value else value

        return (*shape_classes(row, remaining, cap), probe)

    def machine_speed(self, machine_id: int) -> float:
        """Speed class of one offered machine's GPUs, for *this* app.

        The offer vector stays per-machine counts (the paper's R), but
        each dimension carries the machine's GPU generation; the solver
        uses it to break ties toward faster free compute.  Under a
        throughput matrix "faster" is relative to the app's model
        family — two bidders can disagree about which machine is the
        prize, which is exactly the rate-inversion the matrix encodes.
        """
        return self._speed_of.get(machine_id, 1.0)

    # ------------------------------------------------------------------
    # The explicit table (Figure 3b)
    # ------------------------------------------------------------------
    def table(self, max_entries: int = 64) -> list[BidEntry]:
        """Enumerate representative rows of the valuation function.

        Rows cover: the empty bundle (current rho), each machine's free
        GPUs at every feasible fraction (the paper's ``1/n .. n/n``),
        and cumulative cross-machine bundles up to the app's unmet
        demand.  The enumeration is capped because the full subset
        lattice is exponential — the paper's own AGENT reports 334 ms
        p95 bid preparation for the same reason (Section 8.3.2).
        """
        entries: list[BidEntry] = []
        seen: set[tuple] = set()

        def add(bundle: Mapping[int, int]) -> None:
            key = _bundle_key(bundle)
            if key in seen or len(entries) >= max_entries:
                return
            seen.add(key)
            rho = self.rho_of(dict(key))
            entries.append(BidEntry(bundle=key, rho=rho, value=value_from_rho(rho)))

        add({})
        # Per-machine fractions: 1/n, 2/n, ..., n/n of each machine's offer.
        for machine_id in sorted(self.offered_counts):
            available = self.offered_counts[machine_id]
            for count in range(1, min(available, max(1, self.demand)) + 1):
                add({machine_id: count})
        # Cumulative bundles across machines, biggest offers first.
        cumulative: dict[int, int] = {}
        total = 0
        for machine_id in sorted(
            self.offered_counts, key=lambda m: (-self.offered_counts[m], m)
        ):
            if total >= self.demand:
                break
            take = min(self.offered_counts[machine_id], self.demand - total)
            cumulative[machine_id] = take
            total += take
            add(dict(cumulative))
        return entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bid(app={self.app_id}, rho={self.current_rho:.3f}, "
            f"demand={self.demand}, offered={sum(self.offered_counts.values())})"
        )

