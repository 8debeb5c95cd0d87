"""Experiment harness: scenarios, single runs, and the figure registry.

Two layers, split by the sweep subsystem they sandwich:

* below :mod:`repro.sweep` — :mod:`repro.experiments.config` (the two
  scenario presets the paper evaluates on, the 256-GPU simulated
  cluster and the 50-GPU testbed of Section 8.1) and
  :mod:`repro.experiments.runner` (:func:`run_scenario`, what a sweep
  worker executes).  These are what this package exports.
* above it — :mod:`repro.experiments.figures` (the :data:`FIGURES`
  registry, :func:`run_figure`, :func:`compare_schedulers`) and
  :mod:`repro.experiments.report` (text tables).  Import those by
  their full module name; importing them here would make
  ``import repro.sweep`` circular.
"""

from repro.experiments.config import (
    ScenarioConfig,
    hetero_scenario,
    sim_scenario,
    testbed_scenario,
)
from repro.experiments.runner import run_scenario

__all__ = [
    "ScenarioConfig",
    "hetero_scenario",
    "run_scenario",
    "sim_scenario",
    "testbed_scenario",
]
