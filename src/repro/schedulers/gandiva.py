"""Gandiva baseline: introspective placement-score packing (Section 8).

"We model Gandiva by having all apps report the placement score for the
resources offered, and running the same greedy placement algorithm at
the end of each lease to maximize the placement scores for all apps."

The social objective is the *sum* of per-app packing quality — each
job's GPUs weighted by the 4-level placement score of their spread —
maximised by the auction's greedy solver under the additive objective
(:class:`~repro.core.assignment.AdditiveWelfare`).  No fairness terms
at all, which is why Gandiva places well (Figure 7) but lands far from
ideal on max finish-time fairness (Figure 5a).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.assignment import AdditiveWelfare, UtilityBid, concretise
from repro.core.auction import OfferCounts, greedy_solve
from repro.core.fairness import AppValuationState, RowProbe, merge_keys, shape_classes
from repro.schedulers.base import CarvingScheduler


class _PackingUtility:
    """The app's placement-score utility of a bundle on top of its holdings.

    Pure while the round runs (the state is refreshed before the greedy
    starts), as the greedy solver needs; each value is the kernel of the
    app's packing state, cached across rounds by shape.

    Machine classes (its ``row``, :class:`~repro.core.assignment.UtilityBid`)
    are the auction's (:func:`~repro.core.fairness.shape_classes`): a row is
    classed against the total key (holdings plus bundle), so a machine
    the app holds from an earlier round is its own class too.  The row's
    probe reads the packing utility off the state's table for the row's
    shape by ``(position, rack label, speeds, step)``, as the auction's
    class probe reads its kernel (:class:`~repro.core.fairness.RowProbe`).
    """

    __slots__ = ("state",)

    def __init__(self, state: AppValuationState) -> None:
        self.state = state

    def __call__(self, bundle: Mapping[int, int]) -> float:
        state = self.state
        return state.kernel_of(merge_keys(state.base_key, tuple(sorted(bundle.items()))))

    def row(self, bundle: Mapping[int, int], remaining: Mapping[int, int], cap: float):
        row = RowProbe(self.state, tuple(sorted(bundle.items())))
        own, classes = shape_classes(row, remaining, cap)
        return own, classes, row.kernel


class GandivaScheduler(CarvingScheduler):
    """Greedy aggregate placement-score maximisation."""

    name = "gandiva"
    packing = True

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        apps = self.apps_with_demand()
        if not apps:
            return {}
        counts = OfferCounts.of_pool(pool)
        bids = {}
        for app in apps:
            state = self.states[app.app_id]
            state.refresh()
            bids[app.app_id] = UtilityBid(_PackingUtility(state), app.unmet_demand())
        assignment, _, _ = greedy_solve(counts, bids, AdditiveWelfare)
        return concretise(assignment, pool)
