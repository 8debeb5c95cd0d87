"""Themis core: finish-time fairness, bids, auctions, AGENT and ARBITER.

This package implements the paper's primary contribution:

* :mod:`repro.core.fairness` — the finish-time fairness metric
  ``rho = T_sh / T_id`` and the placement-aware estimators behind bid
  valuations (Section 5.2),
* :mod:`repro.core.bids` — bid tables / valuation functions,
* :mod:`repro.core.auction` — the partial-allocation mechanism with
  hidden payments (Section 5.1, Pseudocode 2),
* :mod:`repro.core.leases` — GPU leases (Section 3),
* :mod:`repro.core.agent` — the per-app AGENT (Section 5.2),
* :mod:`repro.core.arbiter` — the central ARBITER (Pseudocode 1).
"""

from repro.core.agent import Agent
from repro.core.arbiter import Arbiter, ArbiterConfig
from repro.core.auction import (
    AuctionOutcome,
    PartialAllocationAuction,
    exhaustive_nash_allocation,
)
from repro.core.bids import Bid, BidEntry
from repro.core.fairness import FairnessEstimator, JobAllotment, carve_allotments
from repro.core.leases import Lease, LeaseManager
from repro.core.policy import OfflineSolution, solve_offline_max_min

__all__ = [
    "Agent",
    "Arbiter",
    "ArbiterConfig",
    "AuctionOutcome",
    "Bid",
    "BidEntry",
    "FairnessEstimator",
    "JobAllotment",
    "Lease",
    "LeaseManager",
    "OfflineSolution",
    "PartialAllocationAuction",
    "solve_offline_max_min",
    "carve_allotments",
    "exhaustive_nash_allocation",
]
