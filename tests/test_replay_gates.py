"""The deterministic replay gates: four pinned traces, exact digests and work counts.

Each profile is one full Themis replay, run untraced and then again
with full tracing plus the phase profiler attached.  Frozen in
``tests/golden_sim.json``, all exact (they are integers of a pinned
trace, so any move is a reviewed one-line diff of that file):

* the result digest, at up to 2048 GPUs x 512 apps (``sim-xl``) and
  through the per-family carve kernel (``sim-matrix``);
* the whole replay's precise carves (``estimator.carve_count`` — rho
  probes, bid preparation and solver re-scores alike, so work re-filed
  under another category cannot hide), applied solver moves and solver
  heap pushes (one per machine *class* per row, not per machine; a
  payment re-solve pushes only after the full solve's checkpoint);
* the traced replay's emitted-event count — the deterministic stand-in
  for a tracing-overhead ratio: an emit site landing in an inner loop
  moves it exactly.  It does *not* catch a slower emit; per-layer time
  is the job of ``benchmarks/e2e/run.py``'s traced pass.

The traced replay must also produce the untraced digest: observability
never changes results.

The two baselines that carve (Gandiva's packing utility, the strawman's
rho ranking) replay ``sim-small`` under ``sim-small/<policy>`` with
their digest and carve count: their carves go through the same
estimator and cross-round cache as Themis', so the count moves if the
cache stops engaging.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import hetero_scenario, sim_scenario
from repro.obs import Observability, PhaseProfiler, RingTracer

from helpers import assert_golden, assert_golden_carves, assert_golden_counts, simulator


def _scenario(builder, gpus, num_apps, duration_scale, interarrival, jobs=(8.0, 24), **overrides):
    """``gpus`` of the 256-GPU fleet shape, ``num_apps`` arriving every
    ``interarrival`` minutes with ``jobs`` = (median, max) per app."""
    median, most = jobs
    return (
        builder(num_apps=num_apps, seed=11, duration_scale=duration_scale)
        .replace(cluster_scale=gpus / 256.0, downsample=256, **overrides)
        .with_generator(
            mean_interarrival_minutes=interarrival,
            jobs_per_app_median=median,
            jobs_per_app_max=most,
        )
    )


PROFILES = {
    # 64 and 128 GPUs at the 2x / 4x contention classes.
    "sim-small": _scenario(sim_scenario, 64, 12, 0.3, 8.0),
    "sim-medium": _scenario(sim_scenario, 128, 36, 0.35, 5.0),
    # sim-small's size on a mixed fleet under a throughput matrix: the
    # valuation path runs the per-family carve kernel.
    "sim-matrix": _scenario(
        hetero_scenario, 64, 12, 0.3, 8.0, perf_matrix="rate-inversion"
    ),
    # The breadth gate: 2048 GPUs (512 machines) x 512 apps, an order of
    # magnitude more machines than any other cell.  Tiny short jobs and
    # a long lease keep the round count tracking workload churn instead
    # of lease churn, which keeps the replay to a few seconds.
    "sim-xl": _scenario(
        sim_scenario, 2048, 512, 0.03, 0.1, jobs=(1.0, 2), lease_minutes=120.0
    ),
}


def _replay(scenario, obs=None, scheduler="themis"):
    sim = simulator(scenario, scheduler, obs=obs)
    return sim, sim.run()


@pytest.mark.parametrize("name", PROFILES)
def test_replay_gate(name):
    sim, result = _replay(PROFILES[name])
    assert_golden(name, result)
    assert_golden_carves(name, sim.scheduler.estimator.carve_count)

    tracer = RingTracer(capacity=1 << 20)
    _, traced = _replay(
        PROFILES[name], Observability(tracer=tracer, profiler=PhaseProfiler())
    )
    assert traced.digest() == result.digest(), "tracing changed the replay"
    assert tracer.events_written == len(tracer.events)
    totals = result.round_stats["totals"]
    # The pair memo engages: gain-path scores are served whole, and a
    # post-move skip is always a memo hit.
    assert 0 < totals["rescore_skipped"] <= totals["heap_warm_hits"]
    assert_golden_counts(
        name,
        {
            "solver_moves": totals["solver_moves"],
            "solver_heap_pushes": totals["solver_heap_pushes"],
            "trace_events": tracer.events_written,
        },
    )


@pytest.mark.parametrize("scheduler", ["gandiva", "strawman"])
def test_carving_baseline_gate(scheduler):
    cell = f"sim-small/{scheduler}"
    sim, result = _replay(PROFILES["sim-small"], scheduler=scheduler)
    assert_golden(cell, result)
    assert_golden_carves(cell, sim.scheduler.estimator.carve_count)
