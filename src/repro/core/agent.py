"""The per-app AGENT (Section 5.2).

"To minimize changes in the ML app scheduler to participate in
auctions, THEMIS introduces an AGENT that is co-located with each ML
app scheduler.  The AGENT serves as an intermediary between the ML app
and the ARBITER."

The AGENT exposes exactly the two RPCs of Figure 3: answering a rho
probe (step 1) and turning a resource offer into a bid (step 3).  All
app-specific knowledge — work left, max parallelism, placement
sensitivity — flows through the :class:`~repro.workload.app.App` it
wraps, mirroring the narrow app-scheduler-to-AGENT API of the paper.

The bid-valuation error of Figure 11 is injected here (``noise_theta``):
apps "can make errors (not willingly) in computing a new estimate of
rho due to error in estimation of work (W) or placement-sensitivity (S)".
"""

from __future__ import annotations

import math

from repro.core.bids import Bid, _noise_factor
from repro.core.fairness import AppValuationState


class Agent:
    """Intermediary between one app's scheduler and the ARBITER.

    The AGENT wraps its app's cross-round
    :class:`~repro.core.fairness.AppValuationState`, which the
    scheduler owns (``ThemisScheduler.states``, as every policy keeps
    its states): as long as the app is dirty-free (epoch unchanged,
    nothing allocated) the snapshot and the rho kernel caches survive
    verbatim between scheduling rounds, so the many starved apps at
    high contention answer rho probes and rebuild bid tables without
    recomputing a single carve.
    """

    def __init__(self, state: AppValuationState, noise_theta: float = 0.0) -> None:
        if not 0.0 <= noise_theta < 1.0:
            raise ValueError(f"noise_theta must be in [0, 1), got {noise_theta}")
        self.app = state.app
        self.state = state
        self.noise_theta = noise_theta
        self.bids_prepared = 0
        self.auctions_won = 0

    @property
    def app_id(self) -> str:
        """The wrapped app's identifier."""
        return self.app.app_id

    def report_rho(self, now: float, salt: int = 0) -> float:
        """Answer the ARBITER's probe with the current (noisy) rho estimate.

        Starved apps report ``inf`` — the unbounded metric that keeps
        them in every subsequent auction until they win (Section 5.1).
        The state keeps the noise-free probe, and a bid prepared at the
        same instant starts from it (``AppValuationState.held_rho``).
        """
        rho = self.state.current_rho(now)
        if not self.noise_theta or math.isinf(rho):
            return rho
        return rho * _noise_factor(salt, self.app_id, ("probe",), self.noise_theta)

    def prepare_bid(
        self,
        now: float,
        offered_counts: dict[int, int],
        salt: int = 0,
    ) -> Bid:
        """Turn a resource offer into a bid (PREPAREBIDS of Pseudocode 1)."""
        self.bids_prepared += 1
        return Bid(
            app=self.app,
            estimator=self.state.estimator,
            now=now,
            offered_counts=offered_counts,
            noise_theta=self.noise_theta,
            noise_salt=salt,
            state=self.state,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Agent(app={self.app_id}, bids={self.bids_prepared})"
