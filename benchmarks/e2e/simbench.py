"""The five ``sim-*`` workloads: whole-trace replays through ``ClusterSimulator``.

A workload is a cluster/trace *shape*, the schedulers replayed on it
and a number of traces; one (scheduler, trace) pair is a *cell* and
one pass replays every cell once.  The traces are **pinned**: trace
seeds are ``BASE_TRACE_SEED + i``, constants of the workload, and the
benchmark's ``--seed`` only decides the order in which the cells are
replayed.  The simulator is chaotic in its inputs (another trace seed
moves ``max_rho`` by 20-50 %, another arbiter RNG seed by 6 %), so a
0.5 % bound on a simulated metric means something only on fixed
traces — see README.md, "Why the traces are pinned".

Only the program's public names are used: the scenario builders, the
scheduler registry, ``ClusterSimulator``, ``FailureInjector`` and the
counters a run leaves behind (``estimator.carve_count``,
``round_stats["totals"]``, ``arbiter.history``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

from spans import (
    SpanRecorder,
    nearest_rank,
    on_clock,
    owners_of,
    patched,
    span_patches,
    summarise,
    trace_overhead,
    write_jsonl,
)
from speed import SpeedMeter

#: First pinned trace seed — ``SimBenchProfile``'s default, so the
#: shapes below replay the very traces ``BENCH_sim.json`` was sized on.
BASE_TRACE_SEED = 11

#: Set-ups timed per cell in an untraced pass; the median is reported.
SETUP_REPEATS = 5

BASELINES = ("gandiva", "tiresias", "slaq", "optimus", "strawman", "drf", "fifo")


@dataclass(frozen=True)
class Shape:
    """Cluster and trace-generator knobs of one workload."""

    gpus: int
    apps: int
    duration_scale: float
    interarrival_minutes: float
    jobs_per_app_median: float = 8.0
    jobs_per_app_max: int = 24
    lease_minutes: Optional[float] = None
    hetero: bool = False
    perf_matrix: str = ""
    migration: bool = False
    #: ``(machine_id, at_minutes, duration_minutes)`` outages.
    failures: tuple = ()


@dataclass(frozen=True)
class SimWorkload:
    shape: Shape
    schedulers: tuple
    traces: int


_MEDIUM = Shape(gpus=128, apps=36, duration_scale=0.35, interarrival_minutes=5.0)

SIM_WORKLOADS: dict[str, SimWorkload] = {
    "sim-contended": SimWorkload(
        Shape(gpus=128, apps=64, duration_scale=0.35, interarrival_minutes=2.5),
        ("themis",),
        traces=3,
    ),
    "sim-wide": SimWorkload(
        Shape(
            gpus=1024,
            apps=256,
            duration_scale=0.03,
            interarrival_minutes=0.1,
            jobs_per_app_median=1.0,
            jobs_per_app_max=2,
            lease_minutes=120.0,
        ),
        ("themis",),
        traces=1,
    ),
    "sim-wide-contended": SimWorkload(
        Shape(
            gpus=512,
            apps=128,
            duration_scale=0.1,
            interarrival_minutes=0.1,
            jobs_per_app_median=4.0,
            jobs_per_app_max=8,
            lease_minutes=30.0,
        ),
        ("themis",),
        traces=1,
    ),
    "sim-baselines": SimWorkload(_MEDIUM, BASELINES, traces=1),
    "sim-churn": SimWorkload(
        replace(
            _MEDIUM,
            hetero=True,
            perf_matrix="rate-inversion",
            migration=True,
            failures=((3, 120.0, 120.0), (17, 200.0, 180.0), (9, 300.0, 90.0)),
        ),
        ("themis",),
        traces=3,
    ),
}


def smoke(workload: SimWorkload) -> SimWorkload:
    """About a tenth of the work: an eighth of the apps, one trace."""
    shape = replace(workload.shape, apps=max(4, workload.shape.apps // 8))
    return replace(workload, shape=shape, traces=1)


# Span name -> public callable wrapped for the traced pass.  Per-probe
# functions (Bid.rho_of, AppValuationState.delta_of, Job.advance_to)
# run millions of times and are left alone; the program's own counters
# cover them.
SIM_TARGETS = {
    "workload.generate": "repro.experiments.config:ScenarioConfig.build_trace",
    "workload.instantiate": "repro.workload.trace:Trace.instantiate",
    "cluster.build": "repro.experiments.config:ScenarioConfig.build_cluster",
    "simulation.run": "repro.simulation.simulator:ClusterSimulator.run",
    "core.arbiter.offer": "repro.core.arbiter:Arbiter.offer_resources",
    "core.bids.report_rho": "repro.core.agent:Agent.report_rho",
    "core.bids.prepare_bid": "repro.core.agent:Agent.prepare_bid",
    "core.fairness.batch_prime": "repro.core.fairness:FairnessEstimator.batch_prime",
    "core.auction.run": "repro.core.auction:PartialAllocationAuction.run",
    "core.assignment.concretise": "repro.core.assignment:concretise",
    "core.leases.grant": "repro.core.leases:LeaseManager.grant",
    "core.leases.release": "repro.core.leases:LeaseManager.release",
    "core.leases.revoke": "repro.core.leases:LeaseManager.revoke",
    "core.leases.pool_for_auction": "repro.core.leases:LeaseManager.pool_for_auction",
}

_LEASE_SPANS = tuple(name for name in SIM_TARGETS if name.startswith("core.leases."))


def scenario_for(shape: Shape, trace_seed: int):
    """The shape as a ``ScenarioConfig`` (paper-shaped cluster, scaled)."""
    from repro.experiments.config import hetero_scenario, sim_scenario

    builder = hetero_scenario if shape.hetero else sim_scenario
    scenario = builder(
        num_apps=shape.apps, seed=trace_seed, duration_scale=shape.duration_scale
    )
    overrides: dict = {
        "cluster_scale": shape.gpus / 256.0,
        "downsample": 256,
        "perf_matrix": shape.perf_matrix or (),
        "migration": shape.migration,
    }
    if shape.lease_minutes is not None:
        overrides["lease_minutes"] = shape.lease_minutes
    return scenario.replace(**overrides).with_generator(
        mean_interarrival_minutes=shape.interarrival_minutes,
        jobs_per_app_median=shape.jobs_per_app_median,
        jobs_per_app_max=shape.jobs_per_app_max,
    )


def build_simulator(shape: Shape, scheduler_name: str, trace_seed: int):
    """Set-up: cluster, generated and instantiated trace, bound scheduler."""
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.failures import FailureInjector, MachineFailure
    from repro.simulation.simulator import ClusterSimulator

    scenario = scenario_for(shape, trace_seed)
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=make_scheduler(scheduler_name),
        config=scenario.build_sim_config(),
        perf_model=scenario.build_perf_model(),
    )
    if shape.failures:
        FailureInjector(
            [
                MachineFailure(machine_id=machine, at=at, duration=duration)
                for machine, at, duration in shape.failures
            ]
        ).install(simulator)
    return simulator


def result_digest(result) -> str:
    """sha256 of the result's JSON, instrumentation excluded.

    Same exclusions as ``repro.perf.bench.canonical_result_json`` (the
    ``incremental`` flag, ``round_stats``, ``profile``), kept here so a
    later split of ``perf/bench.py`` cannot break the benchmark.
    """
    payload = result.to_json()
    payload["config"] = {
        key: value for key, value in payload["config"].items() if key != "incremental"
    }
    payload.pop("round_stats", None)
    payload.pop("profile", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _assign_owners() -> list:
    """Every concrete policy class that defines ``assign``."""
    import repro.schedulers.registry  # noqa: F401 - loads every policy class
    from repro.schedulers.base import InterAppScheduler

    found, stack = [], [InterAppScheduler]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not InterAppScheduler and "assign" in vars(cls):
            found.append((cls, "assign"))
    return found


def _grant_audit(violations: list):
    """Wrapper factory: count grants over another app's unexpired lease."""

    def make(grant):
        def audited(self, gpu, app_id, job_id, now, duration):
            lease = self.lease_of(gpu)
            if (
                lease is not None
                and lease.app_id != app_id
                and not lease.is_expired(now)
            ):
                violations.append((gpu.gpu_id, lease.app_id, app_id, now))
            return grant(self, gpu, app_id, job_id, now, duration)

        return audited

    return make


def run_pass(
    name: str, order_seed: int, traced: bool, small: bool, trace_out: Optional[str]
) -> dict:
    """Replay every cell of workload ``name`` once; returns the pass record."""
    workload = SIM_WORKLOADS[name]
    if small:
        workload = smoke(workload)
    cells = [
        (scheduler, BASE_TRACE_SEED + index)
        for scheduler in workload.schedulers
        for index in range(workload.traces)
    ]
    random.Random(order_seed).shuffle(cells)

    recorder = SpanRecorder()
    double_grants: list = []
    patches: list = []
    unwrapped = 0
    if traced:
        patches, unwrapped = span_patches(recorder, SIM_TARGETS)
        # Patched after the grant span, so outside it: the audit is not
        # billed to leases.
        for owner, attr in owners_of(SIM_TARGETS["core.leases.grant"]):
            patches.append((owner, attr, _grant_audit(double_grants)))
        for owner, attr in _assign_owners():
            patches.append(
                (owner, attr, lambda f: recorder.wrap("schedulers.assign", f))
            )

    runs: list[dict] = []
    meter = SpeedMeter()
    with patched(patches):
        for run_id, (scheduler_name, trace_seed) in enumerate(cells):
            recorder.run = run_id
            runs.append(
                _run_cell(
                    workload.shape,
                    scheduler_name,
                    trace_seed,
                    1 if traced else SETUP_REPEATS,
                    meter,
                )
            )
    # From here on every host time is read off the reference clock.
    to_reference = meter.reference_clock()

    def lasted(stamps: tuple) -> float:
        return to_reference(stamps[1]) - to_reference(stamps[0])

    for run in runs:
        setups = sorted(lasted(stamps) for stamps in run.pop("setup_stamps"))
        run["setup_s"] = setups[len(setups) // 2]
        run["latencies"] = sorted(lasted(stamps) for stamps in run.pop("op_stamps"))
        raw_wall = run["run_stamps"][1] - run["run_stamps"][0]
        run["wall_s"] = lasted(run.pop("run_stamps"))
        run["cpu_s"] *= run["wall_s"] / raw_wall

    failures = [msg for run in runs for msg in run["failures"]]
    failures += [
        f"GPU {gpu} granted to {new} while leased to {old} at {now}"
        for gpu, old, new, now in double_grants
    ]
    completion = [t for run in runs for t in run["completion_times"]]
    record = {
        "ops": sum(len(run["latencies"]) for run in runs),
        "kernel_s": meter.kernel_s(),
        "failures": failures,
        "digest": hashlib.sha256(
            "".join(run["digest"] for run in sorted(runs, key=lambda r: r["cell"]))
            .encode()
        ).hexdigest(),
        "cells": [
            {key: run[key] for key in ("cell", "wall_s", "rounds", "digest")}
            for run in runs
        ],
        "end_to_end": {
            "setup_s": sum(run["setup_s"] for run in runs),
            "wall_s": sum(run["wall_s"] for run in runs),
            # Percentiles are taken per cell and averaged: pooled over
            # seven policies whose rounds cost 0.03-2 ms the median sits
            # in a gap between two policies and jumps with the noise.
            "op_p50_ms": _cell_mean(runs, 0.50) * 1e3,
            "op_p99_ms": _cell_mean(runs, 0.99) * 1e3,
            "max_rho": max(run["max_rho"] for run in runs),
            "avg_jct_min": sum(completion) / len(completion),
            "gpu_time_h": sum(run["gpu_time_min"] for run in runs) / 60.0,
        },
    }
    if traced:
        spans = on_clock(recorder.spans, to_reference)
        record["per_layer"] = _per_layer(spans, runs, unwrapped, len(double_grants))
        if trace_out:
            write_jsonl(
                trace_out,
                spans,
                {i: f"{name}/{run['cell']}" for i, run in enumerate(runs)},
            )
    return record


def _cell_mean(runs: list, quantile: float) -> float:
    return sum(nearest_rank(run["latencies"], quantile) for run in runs) / len(runs)


def _run_cell(
    shape: Shape, scheduler_name: str, trace_seed: int, setups: int, meter: SpeedMeter
) -> dict:
    """Set up and replay one cell; host times stay raw ``(start, end)`` stamps."""
    clock = time.perf_counter
    setup_stamps = []
    for _ in range(setups):
        meter.sample()
        start = clock()
        simulator = build_simulator(shape, scheduler_name, trace_seed)
        setup_stamps.append((start, clock()))
    meter.sample()

    # The one piece of instrumentation an untraced pass carries: a round
    # is the operation whose latency a user waits for.  The speed probe
    # runs between rounds, outside every timed op.
    scheduler = simulator.scheduler
    assign = scheduler.assign
    op_stamps: list[tuple[float, float]] = []

    def timed_assign(now, pool):
        start = clock()
        try:
            return assign(now, pool)
        finally:
            op_stamps.append((start, clock()))
            meter.tick()

    scheduler.assign = timed_assign
    probes_before = len(meter.runs)
    cpu_start = time.process_time()
    start = clock()
    result = simulator.run()
    run_stamps = (start, clock())
    cpu = time.process_time() - cpu_start
    # process_time cannot be mapped; drop the probe's share here and let
    # the caller scale the rest like the wall.
    cpu -= sum(end - start for start, end in meter.runs[probes_before:])

    rhos = result.rhos(finished_only=False)
    failures = []
    cell = f"{scheduler_name}/trace{trace_seed}"
    if not result.completed:
        failures.append(f"{cell}: not every app completed")
    if len(result.app_stats) != len(simulator.apps) or len(rhos) != shape.apps:
        failures.append(f"{cell}: {len(rhos)} AppStats for {shape.apps} trace apps")
    failures += [
        f"{cell}: rho {rho!r} is not finite and positive"
        for rho in rhos
        if not (math.isfinite(rho) and rho > 0)
    ]
    totals = (result.round_stats or {}).get("totals", {})
    history = getattr(getattr(scheduler, "arbiter", None), "history", None) or []
    return {
        "cell": cell,
        "scheduler": scheduler_name,
        "setup_stamps": setup_stamps,
        "op_stamps": op_stamps,
        "run_stamps": run_stamps,
        "cpu_s": cpu,
        "failures": failures,
        "digest": result_digest(result),
        "rounds": result.num_rounds,
        "events": result.events_processed,
        "migrations": result.num_migrations,
        "max_rho": max(rhos),
        "completion_times": result.completion_times(),
        "gpu_time_min": result.total_gpu_time,
        "totals": totals,
        "carves": getattr(getattr(scheduler, "estimator", None), "carve_count", 0),
        "participants": [stats.num_participants for stats in history],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(spans: list, runs: list, unwrapped: int, double_grants: int) -> dict:
    row = summarise(spans).__getitem__

    def total(key: str) -> float:
        return sum(run["totals"].get(key, 0) for run in runs)

    wall = sum(run["wall_s"] for run in runs)
    rounds = sum(run["rounds"] for run in runs)
    events = sum(run["events"] for run in runs)
    carves = sum(run["carves"] for run in runs)
    participants = [n for run in runs for n in run["participants"]]
    skipped, scalar, batched = (
        total("rescore_skipped"),
        total("rescore_carves"),
        total("rescore_batched"),
    )
    metrics = {
        "workload.generate_s": row("workload.generate")["total_s"],
        "workload.instantiate_s": row("workload.instantiate")["total_s"],
        "cluster.build_s": row("cluster.build")["total_s"],
        "simulation.run.total_s": row("simulation.run")["total_s"],
        "simulation.run.self_s": row("simulation.run")["self_s"],
        "simulation.rounds": rounds,
        "simulation.events": events,
        "simulation.events_per_s": _ratio(events, wall),
        "simulation.migrations": sum(run["migrations"] for run in runs),
        "core.arbiter.participants_mean": _ratio(sum(participants), len(participants)),
        "core.fairness.carves": carves,
        "core.fairness.carves_per_round": _ratio(carves, rounds),
        "core.fairness.carves_per_move": _ratio(carves, total("solver_moves")),
        "core.auction.moves": total("solver_moves"),
        "core.auction.pair_scores": total("solver_pair_scores"),
        "core.auction.replayed_moves": total("solver_replayed_moves"),
        "core.auction.rescore_carves": scalar,
        "core.auction.rescore_batched": batched,
        "core.auction.rescore_skipped": skipped,
        "core.auction.memo_hit_rate": _ratio(
            total("heap_warm_hits"),
            total("heap_warm_hits") + total("heap_warm_misses"),
        ),
        "core.auction.rescore_skip_rate": _ratio(skipped, skipped + scalar + batched),
        "core.assignment.concretise.total_s": row("core.assignment.concretise")[
            "total_s"
        ],
        "core.leases.grant.calls": row("core.leases.grant")["calls"],
        "core.leases.total_s": sum(row(name)["self_s"] for name in _LEASE_SPANS),
        "core.leases.double_grants": double_grants,
        "bench.cpu_s": sum(run["cpu_s"] for run in runs),
        "bench.span_count": len(spans),
        "bench.trace_overhead": trace_overhead(wall, len(spans)),
        "bench.unwrapped_targets": unwrapped,
        # What the spans under the measured roots do not explain: the
        # gap between the stopwatch around run() and the run() spans.
        "bench.unattributed_s": wall - row("simulation.run")["total_s"],
    }
    for name, fields in (
        ("schedulers.assign", ("calls", "total_s", "self_s")),
        ("core.arbiter.offer", ("calls", "total_s", "self_s")),
        ("core.bids.report_rho", ("calls", "total_s")),
        ("core.bids.prepare_bid", ("calls", "total_s")),
        ("core.fairness.batch_prime", ("calls", "total_s")),
        ("core.auction.run", ("calls", "total_s", "self_s")),
    ):
        for field in fields:
            metrics[f"{name}.{field}"] = row(name)[field]
    # Per-policy split, from the run id each span carries.
    assign_by_run: dict[int, float] = {}
    for span_name, run_id, _parent, start, end in spans:
        if span_name == "schedulers.assign":
            assign_by_run[run_id] = assign_by_run.get(run_id, 0.0) + end - start
    for run_id, run in enumerate(runs):
        if run["scheduler"] in BASELINES:
            metrics[f"schedulers.{run['scheduler']}.assign_s"] = assign_by_run.get(
                run_id, 0.0
            )
            metrics[f"schedulers.{run['scheduler']}.wall_s"] = run["wall_s"]
    return metrics
