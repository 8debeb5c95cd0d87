"""Scenario execution: one scheduler over one scenario.

:func:`run_scenario` is the pure single-run primitive — what the sweep
subsystem's workers execute, and therefore below :mod:`repro.sweep` in
the import order.  Comparisons and figures, which *use* the sweep
subsystem, live above it in :mod:`repro.experiments.figures`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.experiments.config import ScenarioConfig
from repro.obs import Observability, ObsConfig
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationResult


def run_scenario(
    scenario: ScenarioConfig,
    scheduler: str = "themis",
    scheduler_kwargs: Optional[Mapping] = None,
    obs: Union[Observability, ObsConfig, None] = None,
) -> SimulationResult:
    """Run one scheduler over the scenario and return its results.

    ``obs`` attaches observability (tracing / profiling) to the run;
    file-backed tracers are closed before returning so the trace is
    complete on disk even if the simulation raises.
    """
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=make_scheduler(scheduler, **dict(scheduler_kwargs or {})),
        config=scenario.build_sim_config(),
        perf_model=scenario.build_perf_model(),
        obs=obs,
    )
    try:
        return simulator.run()
    finally:
        simulator.obs.close()
