"""Themis: the full two-level semi-optimistic scheduler (Sections 3-5).

This class only wires the pieces together: the carving schedulers'
:class:`~repro.core.fairness.FairnessEstimator` and per-app valuation
states, one :class:`~repro.core.agent.Agent` per active app wrapping
its state, and the central :class:`~repro.core.arbiter.Arbiter` that
runs the partial-allocation auctions.  All policy lives in those core
modules.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.topology import Gpu
from repro.core.agent import Agent
from repro.core.arbiter import Arbiter, ArbiterConfig
from repro.schedulers.base import CarvingScheduler
from repro.workload.app import App


class ThemisScheduler(CarvingScheduler):
    """Finish-time-fair auctions with the fairness knob ``f``.

    Defaults follow the paper's operating point: ``f = 0.8`` and hidden
    payments enabled.  ``noise_theta`` injects the bid-valuation error
    of Figure 11; the two boolean switches feed the ablation benches.
    """

    name = "themis"

    def __init__(
        self,
        fairness_knob: float = 0.8,
        noise_theta: float = 0.0,
        hidden_payments: bool = True,
        leftover_allocation: bool = True,
    ) -> None:
        super().__init__()
        self.config = ArbiterConfig(
            fairness_knob=fairness_knob,
            noise_theta=noise_theta,
            hidden_payments=hidden_payments,
            leftover_allocation=leftover_allocation,
        )
        self.arbiter: Arbiter | None = None
        self.agents: dict[str, Agent] = {}

    def on_bind(self) -> None:
        super().on_bind()
        assert self.sim is not None
        self.arbiter = Arbiter(self.sim.cluster, config=self.config)
        self.arbiter.auction.estimator = self.estimator
        self.arbiter.tracer = self.sim.tracer
        self.arbiter.profiler = self.arbiter.auction.profiler = self.sim.profiler
        self.agents = {}

    def on_app_arrival(self, now: float, app: App) -> None:
        super().on_app_arrival(now, app)
        self.agents[app.app_id] = Agent(
            self.states[app.app_id], noise_theta=self.config.noise_theta
        )

    def on_app_finish(self, now: float, app: App) -> None:
        super().on_app_finish(now, app)
        self.agents.pop(app.app_id, None)

    def assign(self, now: float, pool: Mapping[int, Sequence[Gpu]]) -> dict[str, list[Gpu]]:
        assert self.arbiter is not None
        # Arrival and finish keep the agents to the active apps, in order.
        if not self.agents:
            return {}
        return self.arbiter.offer_resources(now, pool, self.agents)
