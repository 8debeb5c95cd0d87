"""The central ARBITER (Section 5, Pseudocode 1).

One scheduling round, triggered whenever GPUs are available:

1. keep the apps with unmet demand (the only ones that can bid) and
   probe just their AGENTs for their current rho, each exactly once per
   round,
2. sort those apps by rho (worst first; starved apps with unbounded rho
   lead) and keep the top ``1 - f`` fraction — the fairness knob,
3. offer the pooled GPUs to those apps and collect bids; a bid starts
   from its app's step-1 probe (noise-free, taken at the same instant
   on the same snapshot) instead of refreshing and probing again,
4. run the partial-allocation auction to pick winning bundles,
5. hand hidden-payment leftovers to *non-participating* apps in a
   placement-sensitive, work-conserving way,
6. concretise per-machine GPU counts into actual GPUs (slot-packed).

The ARBITER is scheduler-policy only: leases, job state and event
bookkeeping belong to the simulator driving it.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cluster.topology import Cluster, Gpu
from repro.core.agent import Agent
from repro.core.assignment import concretise
from repro.core.auction import AuctionOutcome, OfferCounts, PartialAllocationAuction
from repro.obs import NULL_PROFILER, NULL_TRACER


@dataclass(frozen=True)
class ArbiterConfig:
    """Tunables of the ARBITER.

    ``fairness_knob`` is the paper's ``f``: available GPUs are visible
    to the worst ``1 - f`` fraction of apps; higher f gives stronger
    fairness, lower f more placement flexibility (Figure 4a/4b sweeps
    it; the paper settles on 0.8).  ``hidden_payments`` and
    ``leftover_allocation`` exist for the ablation benchmarks.
    """

    fairness_knob: float = 0.8
    noise_theta: float = 0.0
    hidden_payments: bool = True
    leftover_allocation: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.fairness_knob <= 1.0:
            raise ValueError(f"fairness_knob must be in [0, 1], got {self.fairness_knob}")
        if not 0.0 <= self.noise_theta < 1.0:
            raise ValueError(f"noise_theta must be in [0, 1), got {self.noise_theta}")


@dataclass
class RoundStats:
    """Instrumentation for one scheduling round (overhead benchmarks).

    The ``solver_*`` fields expose the auction's winner-determination
    cost: greedy moves applied across all solves, candidate pairs
    scored by the lazy heap, the moves the payment re-solves skipped by
    resuming the full solve's checkpoint (``solver_replayed_moves``:
    each re-solve's moves before its app's first win, none of them
    scored again), heap entries pushed, and the number of distinct rho
    computations (valuation-cache misses) the round's bids performed.
    ``carves`` counts every carve of the round, wherever it was made
    (the rho probes' included), ``rebuilds`` every valuation snapshot
    the round rebuilt, and ``valuation_lookups`` the values the round's
    bids were asked, cached or not.

    The ``rescore_*`` pair breaks down the post-move re-scoring wall
    (see :class:`~repro.core.auction.AuctionSolveStats`): kernel carves
    the re-scores performed and pair scores the bound-gated memo
    skipped whole.  The last three fields are the hidden payments'
    ledger: winners of the proportional-fair solve, the ones that paid,
    and the GPUs withheld from them.
    """

    now: float
    #: GPUs in the round's pool.
    pool_size: int
    num_active: int
    num_participants: int
    leftover_after_payments: int
    leftover_unassigned: int
    solver_moves: int = 0
    solver_pair_scores: int = 0
    solver_replayed_moves: int = 0
    solver_heap_pushes: int = 0
    valuation_probes: int = 0
    #: The shared estimator's carves over the whole round.
    carves: int = 0
    #: The shared estimator's snapshot rebuilds over the whole round.
    rebuilds: int = 0
    #: Values asked of the round's bids (``Bid.rho_lookups``).
    valuation_lookups: int = 0
    heap_warm_hits: int = 0
    heap_warm_misses: int = 0
    rescore_carves: int = 0
    rescore_skipped: int = 0
    #: Apps with unmet demand: the ones probed for rho and filtered.
    num_eligible: int = 0
    #: Participants with a non-empty proportional-fair bundle.
    num_pf_winners: int = 0
    #: Of those, the ones that paid: kept fewer GPUs than the bundle.
    num_paid: int = 0
    #: GPUs the hidden payments took off the proportional-fair bundles.
    gpus_withheld: int = 0


class Arbiter:
    """Implements OFFERRESOURCES of Pseudocode 1 over live app AGENTs."""

    def __init__(
        self,
        cluster: Cluster,
        config: ArbiterConfig | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or ArbiterConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        speed_of = cluster.machine_speeds()
        #: Every machine id in the leftover drain order: fastest GPU
        #: generation first, lower id on ties.
        self._drain_order = sorted(speed_of, key=lambda m: (-speed_of[m], m))
        #: Machine id -> its place in :attr:`_drain_order`.
        self._drain_rank = {m: rank for rank, m in enumerate(self._drain_order)}
        self.auction = PartialAllocationAuction()
        self.rounds = 0
        self.last_outcome: Optional[AuctionOutcome] = None
        self.history: list[RoundStats] = []
        # Observability hooks; the simulator rewires these at bind time.
        self.tracer = NULL_TRACER
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------------
    # Participant selection (fairness knob)
    # ------------------------------------------------------------------
    def select_participants(
        self, rhos: Mapping[str, float], eligible: Sequence[str]
    ) -> list[str]:
        """Worst ``1 - f`` fraction of eligible apps by reported rho.

        At least one app always participates (otherwise the pool could
        never drain); ties break on app id for determinism.  ``inf``
        rhos (starved apps) sort first.
        """
        if not eligible:
            return []
        ordered = sorted(eligible, key=lambda a: (-rhos[a], a))
        count = max(1, math.ceil((1.0 - self.config.fairness_knob) * len(ordered)))
        return ordered[:count]

    # ------------------------------------------------------------------
    # The full round
    # ------------------------------------------------------------------
    def offer_resources(
        self,
        now: float,
        pool: Mapping[int, Sequence[Gpu]],
        agents: Mapping[str, Agent],
    ) -> dict[str, list[Gpu]]:
        """Run one auction round; returns app_id -> concrete GPUs won.

        ``pool`` holds the available GPUs (unleased + expired leases)
        grouped by machine, slot-sorted within each: its counts are the
        offer vector R.  GPUs the round leaves unassigned (no demand
        anywhere) are simply absent from the result.
        """
        self.rounds += 1
        salt = self.rounds
        if not pool:
            return {}

        # Step 1: only apps that still want GPUs are eligible bidders, and
        # rho only ranks bidders, so only they are probed.
        eligible = [
            app_id for app_id, agent in agents.items() if agent.app.unmet_demand() > 0
        ]
        if not eligible:
            return {}
        # Every agent's state shares the one estimator.
        estimator = agents[eligible[0]].state.estimator
        carves_before = estimator.carve_count
        rebuilds_before = estimator.rebuild_count
        with self.profiler.phase("valuation"):
            rhos = {app_id: agents[app_id].report_rho(now, salt) for app_id in eligible}
        pool_counts = OfferCounts.of_pool(pool)

        # Step 2: fairness knob — visibility limited to worst 1-f apps.
        participants = self.select_participants(rhos, eligible)
        if self.tracer.enabled:
            self.tracer.emit(
                "apps_filtered",
                now,
                round=self.tracer.round,
                eligible=len(eligible),
                participants=sorted(participants),
            )

        # Step 3: offers out, bids back.
        with self.profiler.phase("valuation"):
            # Every bid keeps the shared offer vector: it is read-only
            # for the round.
            bids = {
                app_id: agents[app_id].prepare_bid(now, pool_counts, salt)
                for app_id in participants
            }
        if self.tracer.enabled:
            for app_id in sorted(bids):
                rho = rhos[app_id]
                self.tracer.emit(
                    "bid_submitted",
                    now,
                    round=self.tracer.round,
                    app=app_id,
                    rho=None if math.isinf(rho) else rho,
                    demand=agents[app_id].app.unmet_demand(),
                )

        # Step 4: partial-allocation auction.
        outcome = self.auction.run(
            pool_counts, bids, apply_hidden_payments=self.config.hidden_payments
        )
        self.last_outcome = outcome
        for app_id in outcome.winners:
            agents[app_id].auctions_won += 1

        # Step 5: leftover GPUs to non-participants, placement-sensitively.
        assignments: dict[str, dict[int, int]] = {
            app_id: dict(bundle) for app_id, bundle in outcome.winners.items()
        }
        leftover_unassigned = 0
        if self.config.leftover_allocation:
            with self.profiler.phase("leftovers"):
                leftover_unassigned = self._assign_leftovers(
                    outcome.leftover, eligible, participants, agents, assignments
                )
        else:
            leftover_unassigned = sum(outcome.leftover.values())

        solve_stats = self.auction.last_stats
        self.history.append(
            RoundStats(
                now=now,
                pool_size=sum(pool_counts.values()),
                num_active=len(agents),
                num_participants=len(participants),
                num_eligible=len(eligible),
                leftover_after_payments=outcome.total_leftover,
                leftover_unassigned=leftover_unassigned,
                solver_moves=solve_stats.moves,
                solver_pair_scores=solve_stats.pair_scores,
                solver_replayed_moves=solve_stats.replayed_moves,
                solver_heap_pushes=solve_stats.heap_pushes,
                valuation_probes=sum(bid.rho_probes for bid in bids.values()),
                carves=estimator.carve_count - carves_before,
                rebuilds=estimator.rebuild_count - rebuilds_before,
                valuation_lookups=sum(bid.rho_lookups for bid in bids.values()),
                heap_warm_hits=solve_stats.warm_hits,
                heap_warm_misses=solve_stats.warm_misses,
                rescore_carves=solve_stats.rescore_carves,
                rescore_skipped=solve_stats.rescore_skipped,
                num_pf_winners=len(outcome.proportional_fair),
                num_paid=outcome.num_paid,
                gpus_withheld=outcome.gpus_withheld,
            )
        )
        return concretise(assignments, pool)

    # ------------------------------------------------------------------
    # Leftover allocation (Section 5.1, stage 3)
    # ------------------------------------------------------------------
    def _assign_leftovers(
        self,
        leftover: Mapping[int, int],
        eligible: Sequence[str],
        participants: Sequence[str],
        agents: Mapping[str, Agent],
        assignments: dict[str, dict[int, int]],
    ) -> int:
        """Hand withheld GPUs to non-participants, one GPU at a time.

        Machines are drained fastest GPU generation first, so the most
        valuable leftovers reach non-participants before the stragglers.
        Preference order per GPU: a non-participating app that already
        occupies the GPU's machine — by its holdings, or by a leftover
        this pass granted it there — (the paper's placement-sensitive
        rule, random among candidates), then any app with unmet demand
        (work conservation), else the GPU stays unassigned.  Returns
        the number of GPUs nobody wanted.

        Only apps with headroom (unmet demand beyond what they won) can
        receive a GPU, so only the round's ``eligible`` apps are looked
        at: every other app has no unmet demand.  The pass walks the
        leftover's machines in drain order (their rank, fixed per
        arbiter) and stops as soon as nobody wants another GPU: every
        further GPU would stay unassigned, and no rng draw is skipped,
        since a draw only ever happens while some app has headroom.  An
        empty leftover, or one nobody wants, draws nothing from the rng.
        """
        unassigned = sum(leftover.values())
        if not unassigned:
            return 0
        # App id order: the candidate lists below keep it, and an app
        # leaves ``headroom`` once it is full.
        headroom: dict[str, int] = {}
        for app_id in sorted(eligible):
            want = agents[app_id].app.unmet_demand()
            won = assignments.get(app_id)
            if won:
                want -= sum(won.values())
            if want > 0:
                headroom[app_id] = want
        if not headroom:
            return unassigned
        participant_set = set(participants)
        outsiders = [
            (app_id, agents[app_id].app.allocation())
            for app_id in headroom
            if app_id not in participant_set
        ]
        for machine_id in sorted(leftover, key=self._drain_rank.__getitem__):
            # The non-participants on the machine, in app id order: by
            # their holdings, and by the GPUs this pass grants them here
            # (each machine is walked once, so no earlier grant is on it).
            local = [app_id for app_id, held in outsiders if held.count_on(machine_id)]
            for _ in range(leftover[machine_id]):
                candidates = [app_id for app_id in local if app_id in headroom]
                if not candidates:
                    candidates = list(headroom)
                choice = candidates[int(self.rng.integers(len(candidates)))]
                bundle = assignments.setdefault(choice, {})
                bundle[machine_id] = bundle.get(machine_id, 0) + 1
                if choice not in participant_set and choice not in local:
                    insort(local, choice)
                unassigned -= 1
                headroom[choice] -= 1
                if not headroom[choice]:
                    del headroom[choice]
                    if not headroom:
                        return unassigned
        return unassigned
