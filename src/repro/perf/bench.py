"""Benchmark harnesses: the PA-auction hot path and whole-trace runs.

Each :class:`AuctionBenchProfile` describes one contended auction round
— a cluster size, a contention factor (aggregate unmet demand over
offered GPUs) and a bidder count — from which a deterministic instance
is synthesised: apps hold a slice of the cluster already (so the greedy
solver exercises the gain path, not just rescues), the rest of the
GPUs form the offered pool, and every app bids through the real
:class:`~repro.core.bids.Bid` / :class:`~repro.core.fairness.FairnessEstimator`
machinery.

For every profile the harness times :meth:`PartialAllocationAuction.run`
with the default lazy solver and (optionally) with the pre-refactor
full-rescan reference solver, asserts the two outcomes are identical,
and reports wall-clock plus valuation-probe counts.  The *speedup*
ratio (reference / lazy on the same machine, same instance) is the
machine-independent number the CI regression guard tracks across
commits; absolute seconds are recorded for context only.

End-to-end profiles time a whole ``themis`` simulation through
:func:`repro.experiments.runner.run_scenario`, covering the simulator's
round loop (active-job index, batched lease expiries) as well as the
auction.

The **sim macro-benchmark** (``repro bench sim``) is the honest
events-per-second number for full trace replays: every
:class:`SimBenchProfile` runs one whole simulation twice — once with the
cross-round incremental valuation pipeline
(``SimulationConfig.incremental=True``, the default) and once with the
cold rebuild-everything baseline — asserts the two
``SimulationResult.to_json()`` payloads are byte-identical (modulo the
``incremental`` flag itself), and reports wall seconds, events/sec,
rounds/sec and carve ("rho probe") counts into ``BENCH_sim.json``.  The
machine-independent *speedup* ratio (cold / incremental, same machine,
same process) is what the CI smoke job gates on.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Optional, Sequence

from repro.cluster.topology import (
    Cluster,
    ClusterSpec,
    MachineSpec,
    build_cluster,
    split_by_mix,
)
from repro.core.auction import AuctionOutcome, PartialAllocationAuction
from repro.core.bids import Bid, build_bid
from repro.core.fairness import FairnessEstimator
from repro.workload.app import App
from repro.workload.job import Job, JobSpec

#: Schema version of the BENCH_auction.json payload.
BENCH_SCHEMA = 1

#: Schema version of the BENCH_sim.json payload.
#: 2: per-profile ``obs`` record (tracing-on overhead ratio, byte-
#:    identity with tracing, event count, phase profile).
#: 3: top-level ``trajectory`` list — one timestamped summary entry
#:    appended per ``repro bench sim --out`` run, so the committed
#:    baseline carries its own speedup history instead of silently
#:    overwriting it.
BENCH_SIM_SCHEMA = 3

#: Models sampled for synthetic bench apps (mix of placement-sensitive
#: and compute-bound profiles so valuations are not all alike).
_BENCH_MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")


@dataclass(frozen=True)
class AuctionBenchProfile:
    """One synthetic auction round to benchmark."""

    name: str
    gpus: int
    contention: float  # aggregate unmet demand / offered GPUs
    num_apps: int
    gpus_per_machine: int = 4
    held_fraction: float = 0.25  # slice of the cluster apps already hold
    hidden_payments: bool = True
    chunk_size: int = 4
    seed: int = 0
    #: Skip the (much slower) rescan reference by default for this
    #: profile; the lazy solver is still timed.
    reference: bool = True
    #: Documented reason the rescan reference is skipped.  A *gated*
    #: profile must either time the reference (tracked ``speedup``) or
    #: carry this marker — ``check_regression`` fails on a silent
    #: neither, and falls back to gating the profile's deterministic
    #: probe counts instead of the timing ratio.
    skip_reference_reason: Optional[str] = None
    #: GPU-generation mixture, (type name, fraction) pairs; empty means
    #: a homogeneous default-type cluster.  Machines are split across
    #: generations by largest remainder, so the valuation path exercises
    #: the speed-weighted carve and the speed-class tie-breaks.
    gpu_mix: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class EndToEndProfile:
    """One whole-simulation run to benchmark."""

    name: str
    num_apps: int
    seed: int = 42
    duration_scale: float = 0.1
    scheduler: str = "themis"


#: The tracked auction profiles: 64–512 GPUs at 2x–8x contention.  The
#: ``medium`` and ``hetero-medium`` profiles (128 GPUs, 4x contention,
#: hidden payments on; the latter on a 50/25/25 V100/P100/K80 fleet)
#: are the acceptance/CI gates.  ``large`` skips the rescan reference —
#: at 512 GPUs the O(apps x machines)-per-move rescan needs minutes.
AUCTION_PROFILES: dict[str, AuctionBenchProfile] = {
    p.name: p
    for p in (
        AuctionBenchProfile(name="small", gpus=64, contention=2.0, num_apps=8),
        AuctionBenchProfile(name="medium", gpus=128, contention=4.0, num_apps=16),
        AuctionBenchProfile(
            name="hetero-medium",
            gpus=128,
            contention=4.0,
            num_apps=16,
            gpu_mix=(("v100", 0.5), ("p100", 0.25), ("k80", 0.25)),
        ),
        AuctionBenchProfile(
            name="large",
            gpus=512,
            contention=8.0,
            num_apps=32,
            reference=False,
            skip_reference_reason=(
                "the O(apps x machines)-per-move rescan reference needs "
                "minutes per solve at 512 GPUs; the profile is gated on its "
                "deterministic rho-probe and pair-score counts instead"
            ),
        ),
    )
}

E2E_PROFILES: dict[str, EndToEndProfile] = {
    p.name: p
    for p in (
        EndToEndProfile(name="e2e-small", num_apps=6, duration_scale=0.05),
        EndToEndProfile(name="e2e-medium", num_apps=12, duration_scale=0.1),
    )
}


@dataclass(frozen=True)
class SimBenchProfile:
    """One full trace replay, timed incremental vs cold-rebuild.

    ``contention`` is the profile's target contention class (the knob
    compresses arrivals toward it); the *measured* peak contention is
    recorded in the payload.  ``failures`` injects machine outages as
    ``(machine_id, at_minutes, duration_minutes)`` triples.
    """

    name: str
    gpus: int
    contention: float
    num_apps: int
    duration_scale: float
    interarrival_minutes: float
    seed: int = 11
    scheduler: str = "themis"
    hetero: bool = False
    failures: tuple[tuple[int, float, float], ...] = ()
    downsample: int = 256
    jobs_per_app_median: float = 8.0
    jobs_per_app_max: int = 24
    #: Perf-matrix preset name ("" = scalar speeds); with a matrix the
    #: valuation path exercises the per-family carve kernel.
    perf_matrix: str = ""
    #: Speed-aware migration knob (exercises the post-round gang swaps).
    migration: bool = False
    #: Lease duration override (None = the scenario default, 20 min).
    #: The scale profiles stretch it so round count tracks workload
    #: churn instead of lease churn.
    lease_minutes: Optional[float] = None


#: The tracked sim profiles: 64-128 GPU traces at 2x/4x/8x contention
#: classes, homogeneous + hetero fleets, with and without failure
#: injection.  ``sim-medium`` (128 GPUs, 4x) is the acceptance gate
#: (>= 2x incremental-over-cold); ``sim-small`` is the CI smoke gate.
SIM_PROFILES: dict[str, SimBenchProfile] = {
    p.name: p
    for p in (
        SimBenchProfile(
            name="sim-small",
            gpus=64,
            contention=2.0,
            num_apps=12,
            duration_scale=0.3,
            interarrival_minutes=8.0,
        ),
        SimBenchProfile(
            name="sim-medium",
            gpus=128,
            contention=4.0,
            num_apps=36,
            duration_scale=0.35,
            interarrival_minutes=5.0,
        ),
        SimBenchProfile(
            name="sim-8x",
            gpus=128,
            contention=8.0,
            num_apps=64,
            duration_scale=0.35,
            interarrival_minutes=2.5,
        ),
        SimBenchProfile(
            name="sim-hetero",
            gpus=128,
            contention=4.0,
            num_apps=36,
            duration_scale=0.35,
            interarrival_minutes=5.0,
            hetero=True,
        ),
        SimBenchProfile(
            name="sim-failures",
            gpus=128,
            contention=4.0,
            num_apps=36,
            duration_scale=0.35,
            interarrival_minutes=5.0,
            failures=((3, 120.0, 120.0), (17, 200.0, 180.0), (9, 300.0, 90.0)),
        ),
        SimBenchProfile(
            name="sim-matrix",
            gpus=64,
            contention=2.0,
            num_apps=12,
            duration_scale=0.3,
            interarrival_minutes=8.0,
            hetero=True,
            perf_matrix="rate-inversion",
        ),
        SimBenchProfile(
            name="sim-migration",
            gpus=128,
            contention=4.0,
            num_apps=36,
            duration_scale=0.35,
            interarrival_minutes=5.0,
            hetero=True,
            perf_matrix="rate-inversion",
            migration=True,
        ),
        # The breadth/scale gate: 2048 GPUs (512 machines) x 512 apps.
        # What it proves is byte-identity and CI-budget wall clock at an
        # order of magnitude more machines than every other profile —
        # NOT a speedup headline.  At this scale the dominant cost is
        # the auction solver's exact re-scoring after each greedy move
        # (trajectory-dependent compound bundle keys x 512 machines),
        # which is identical work in incremental and cold modes, so the
        # incremental-over-cold ratio is structurally small here.  Tiny
        # short jobs + a long lease keep the round count tracking
        # workload churn instead of lease churn, which is what keeps
        # the whole replay inside the CI budget.  Not in the default
        # suite — run it explicitly (CI does, under a hard timeout).
        SimBenchProfile(
            name="sim-xl",
            gpus=2048,
            contention=0.25,
            num_apps=512,
            duration_scale=0.03,
            interarrival_minutes=0.1,
            jobs_per_app_median=1.0,
            jobs_per_app_max=2,
            lease_minutes=120.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Instance synthesis
# ----------------------------------------------------------------------
def _bench_cluster(profile: AuctionBenchProfile) -> Cluster:
    machines = max(1, profile.gpus // profile.gpus_per_machine)
    if profile.gpu_mix:
        specs = tuple(
            MachineSpec(
                count=count,
                gpus_per_machine=profile.gpus_per_machine,
                gpu_type=gpu_type,
            )
            for gpu_type, count in split_by_mix(machines, profile.gpu_mix)
            if count > 0
        )
    else:
        specs = (
            MachineSpec(count=machines, gpus_per_machine=profile.gpus_per_machine),
        )
    return build_cluster(
        ClusterSpec(
            machine_specs=specs,
            num_racks=max(1, machines // 8),
            name=f"bench-{profile.name}",
        )
    )


def _bench_apps(
    profile: AuctionBenchProfile, cluster: Cluster, rng: random.Random
) -> list[App]:
    """Apps whose aggregate demand hits ``contention x offered GPUs``."""
    offered = int(round(profile.gpus * (1.0 - profile.held_fraction)))
    target_demand = int(round(profile.contention * offered))
    per_job = profile.gpus_per_machine
    jobs_per_app = max(1, round(target_demand / (per_job * profile.num_apps)))
    apps = []
    for index in range(profile.num_apps):
        jobs = [
            Job(
                spec=JobSpec(
                    job_id=f"b{index}-j{j}",
                    model=rng.choice(_BENCH_MODELS),
                    serial_work=rng.uniform(50.0, 400.0),
                    max_parallelism=per_job,
                )
            )
            for j in range(jobs_per_app)
        ]
        apps.append(
            App(app_id=f"b{index:03d}", arrival_time=rng.uniform(0.0, 120.0), jobs=jobs)
        )
    return apps


def build_auction_instance(
    profile: AuctionBenchProfile,
) -> tuple[dict[int, int], dict[str, Bid]]:
    """Deterministic (pool, bids) for one profile.

    ``held_fraction`` of the machines are handed whole to apps
    round-robin before bidding, so bids carry non-empty base
    allocations and positive current values; the remaining machines
    form the offered pool.  Fresh :class:`Bid` objects (cold valuation
    caches) are returned on every call so repeated timings are honest.
    """
    rng = random.Random(profile.seed)
    cluster = _bench_cluster(profile)
    apps = _bench_apps(profile, cluster, rng)
    machines = list(cluster.machines)
    held = machines[: int(len(machines) * profile.held_fraction)]
    for slot, machine in enumerate(held):
        app = apps[slot % len(apps)]
        job = app.jobs[(slot // len(apps)) % len(app.jobs)]
        job.set_allocation(0.0, job.allocation.union(machine.gpus), overhead=0.0)
    pool = {
        machine.machine_id: machine.num_gpus
        for machine in machines[len(held):]
    }
    estimator = FairnessEstimator(cluster)
    now = 150.0
    bids = {
        app.app_id: build_bid(app, estimator, now, pool)
        for app in apps
        if app.unmet_demand() > 0
    }
    return pool, bids


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _outcome_digest(outcome: AuctionOutcome) -> list:
    """Canonical, JSON-stable digest of an auction outcome."""
    return [
        sorted(
            (app_id, sorted(bundle.items()))
            for app_id, bundle in outcome.winners.items()
        ),
        sorted(outcome.payments.items()),
        sorted(outcome.leftover.items()),
        outcome.nash_log_welfare,
    ]


def _time_solver(
    profile: AuctionBenchProfile, solver: str, repeats: int
) -> tuple[dict, list]:
    """Time ``auction.run`` on fresh instances; returns (record, digest)."""
    auction = PartialAllocationAuction(chunk_size=profile.chunk_size, solver=solver)
    seconds: list[float] = []
    digest: list = []
    probes = lookups = moves = pair_scores = 0
    for _ in range(max(1, repeats)):
        pool, bids = build_auction_instance(profile)
        start = time.perf_counter()
        outcome = auction.run(
            pool, bids, apply_hidden_payments=profile.hidden_payments
        )
        seconds.append(time.perf_counter() - start)
        digest = _outcome_digest(outcome)
        probes = sum(bid.rho_probes for bid in bids.values())
        lookups = sum(bid.rho_lookups for bid in bids.values())
        moves = auction.last_stats.moves
        pair_scores = auction.last_stats.pair_scores
    record = {
        "seconds": min(seconds),
        "seconds_mean": statistics.fmean(seconds),
        "repeats": len(seconds),
        "rho_probes": probes,
        "rho_lookups": lookups,
        "solver_moves": moves,
        "solver_pair_scores": pair_scores,
    }
    return record, digest


def run_auction_bench(
    profile: AuctionBenchProfile,
    repeats: int = 3,
    include_reference: Optional[bool] = None,
) -> dict:
    """Benchmark one auction profile; returns its JSON record."""
    if include_reference is None:
        include_reference = profile.reference
    fast, fast_digest = _time_solver(profile, "lazy", repeats)
    record = {
        "gpus": profile.gpus,
        "contention": profile.contention,
        "apps": profile.num_apps,
        "hidden_payments": profile.hidden_payments,
        "fast": fast,
    }
    if include_reference:
        reference, ref_digest = _time_solver(profile, "rescan", repeats)
        record["reference"] = reference
        record["identical_outcomes"] = fast_digest == ref_digest
        record["speedup"] = (
            reference["seconds"] / fast["seconds"] if fast["seconds"] > 0 else None
        )
    elif profile.skip_reference_reason is not None:
        record["skip_reference"] = profile.skip_reference_reason
    return record


def run_end_to_end_bench(profile: EndToEndProfile, repeats: int = 1) -> dict:
    """Time a full simulation run (imports deferred: heavier module)."""
    from repro.experiments.config import sim_scenario
    from repro.experiments.runner import run_scenario

    scenario = sim_scenario(
        num_apps=profile.num_apps,
        seed=profile.seed,
        duration_scale=profile.duration_scale,
    )
    seconds = []
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run_scenario(scenario, profile.scheduler)
        seconds.append(time.perf_counter() - start)
    return {
        "apps": profile.num_apps,
        "scheduler": profile.scheduler,
        "seconds": min(seconds),
        "repeats": len(seconds),
        "makespan": result.makespan,
        "num_rounds": result.num_rounds,
        "events_processed": result.events_processed,
    }


# ----------------------------------------------------------------------
# Sim macro-benchmark (repro bench sim)
# ----------------------------------------------------------------------
def sim_scenario_for(profile: SimBenchProfile):
    """Materialise the profile's scenario (deferred heavy imports)."""
    from repro.experiments.config import hetero_scenario, sim_scenario

    builder = hetero_scenario if profile.hetero else sim_scenario
    scenario = builder(
        num_apps=profile.num_apps,
        seed=profile.seed,
        duration_scale=profile.duration_scale,
    )
    overrides: dict = {
        "cluster_scale": profile.gpus / 256.0,
        "downsample": profile.downsample,
        "perf_matrix": profile.perf_matrix or (),
        "migration": profile.migration,
    }
    if profile.lease_minutes is not None:
        overrides["lease_minutes"] = profile.lease_minutes
    scenario = scenario.replace(**overrides)
    return scenario.with_generator(
        mean_interarrival_minutes=profile.interarrival_minutes,
        jobs_per_app_median=profile.jobs_per_app_median,
        jobs_per_app_max=profile.jobs_per_app_max,
    )


def canonical_result_json(result) -> str:
    """Byte-stable JSON of a SimulationResult, instrumentation excluded.

    The ``incremental`` flag is the experiment variable of the
    incremental-vs-cold comparison; ``round_stats`` (solver work
    counters legitimately differ between incremental and cold solves —
    that difference *is* the optimisation) and ``profile`` (wall-clock
    timings) are observability, not results.  Everything else must
    match byte for byte.
    """
    payload = result.to_json()
    payload["config"] = dict(payload["config"])
    payload["config"].pop("incremental", None)
    payload.pop("round_stats", None)
    payload.pop("profile", None)
    return json.dumps(payload, sort_keys=True)


def run_sim_once(profile: SimBenchProfile, incremental: bool, obs=None) -> dict:
    """One full trace replay; returns timing + result + canonical digest.

    ``obs`` optionally attaches an :class:`~repro.obs.Observability`
    bundle (the tracing-overhead pass of :func:`run_sim_bench`).
    """
    from dataclasses import replace as dc_replace

    from repro.schedulers.registry import make_scheduler
    from repro.simulation.failures import FailureInjector, MachineFailure
    from repro.simulation.simulator import ClusterSimulator

    scenario = sim_scenario_for(profile)
    scheduler = make_scheduler(profile.scheduler)
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=scheduler,
        config=dc_replace(scenario.build_sim_config(), incremental=incremental),
        perf_model=scenario.build_perf_model(),
        obs=obs,
    )
    if profile.failures:
        injector = FailureInjector(
            [
                MachineFailure(machine_id=machine_id, at=at, duration=duration)
                for machine_id, at, duration in profile.failures
            ]
        )
        injector.install(simulator)
    start = time.perf_counter()
    result = simulator.run()
    seconds = time.perf_counter() - start
    estimator = getattr(scheduler, "estimator", None)
    return {
        "seconds": seconds,
        "result": result,
        "digest": canonical_result_json(result),
        "rho_probes": getattr(estimator, "carve_count", 0),
    }


def run_sim_bench(profile: SimBenchProfile, repeats: int = 1) -> dict:
    """Benchmark one sim profile; returns its record.

    Three passes: incremental (the default pipeline), cold rebuild (the
    speedup baseline), and incremental again with full tracing plus the
    phase profiler attached.  The traced pass proves observability is
    pay-for-what-you-use: its results must stay byte-identical and its
    ``trace_overhead`` ratio (traced / untraced, same machine and
    process) is the machine-independent number the CI guard gates.
    """
    from repro.obs import Observability, PhaseProfiler, RingTracer

    def _timed(incremental: bool, make_obs=None) -> dict:
        runs = []
        for _ in range(max(1, repeats)):
            obs = make_obs() if make_obs is not None else None
            run = run_sim_once(profile, incremental, obs=obs)
            run["_obs"] = obs
            runs.append(run)
        best = min(runs, key=lambda r: r["seconds"])
        seconds = best["seconds"]
        result = best["result"]
        # Post-move re-scoring accounting (deterministic per profile
        # and mode): carves the re-scores did and memo skips.  The CI
        # ceiling is on *total* carves per move
        # (:func:`carves_per_move`), not on either category.
        totals = (result.round_stats or {}).get("totals", {})
        solver = {
            "moves": totals.get("solver_moves", 0),
            "rescore_carves": totals.get("rescore_carves", 0),
            "rescore_skipped": totals.get("rescore_skipped", 0),
            "heap_pushes": totals.get("solver_heap_pushes", 0),
        }
        return {
            "seconds": seconds,
            "repeats": len(runs),
            "events_per_sec": result.events_processed / seconds if seconds > 0 else None,
            "rounds_per_sec": result.num_rounds / seconds if seconds > 0 else None,
            "rho_probes": best["rho_probes"],
            "solver": solver,
            "_digest": best["digest"],
            "_result": result,
            "_obs": best["_obs"],
        }

    fast = _timed(True)
    cold = _timed(False)
    traced = _timed(
        True,
        make_obs=lambda: Observability(
            tracer=RingTracer(capacity=1 << 20), profiler=PhaseProfiler()
        ),
    )
    result = fast.pop("_result")
    cold.pop("_result")
    fast.pop("_obs")
    cold.pop("_obs")
    fast_digest = fast.pop("_digest")
    cold_digest = cold.pop("_digest")
    traced_obs = traced["_obs"]
    traced_result = traced["_result"]
    obs_record = {
        "seconds": traced["seconds"],
        "trace_overhead": (
            traced["seconds"] / fast["seconds"] if fast["seconds"] > 0 else None
        ),
        "events": traced_obs.tracer.events_written,
        "events_dropped": traced_obs.tracer.dropped,
        "identical_with_tracing": traced["_digest"] == fast_digest,
        "profile": traced_result.profile,
    }
    return {
        "gpus": profile.gpus,
        "contention": profile.contention,
        "apps": profile.num_apps,
        "scheduler": profile.scheduler,
        "hetero": profile.hetero,
        "failures": len(profile.failures),
        "perf_matrix": profile.perf_matrix,
        "migration": profile.migration,
        "migrations": result.num_migrations,
        "peak_contention": result.peak_contention,
        "makespan": result.makespan,
        "rounds": result.num_rounds,
        "events": result.events_processed,
        "incremental": fast,
        "cold": cold,
        "speedup": cold["seconds"] / fast["seconds"] if fast["seconds"] > 0 else None,
        "identical_results": fast_digest == cold_digest,
        "obs": obs_record,
    }


def run_sim_suite(
    profiles: Sequence[str] = (
        "sim-small",
        "sim-medium",
        "sim-8x",
        "sim-hetero",
        "sim-failures",
        "sim-matrix",
        "sim-migration",
    ),
    repeats: int = 1,
) -> dict:
    """Run the selected sim profiles and assemble the BENCH_sim payload."""
    payload: dict = {"schema": BENCH_SIM_SCHEMA, "sim": {}}
    for name in profiles:
        payload["sim"][name] = run_sim_bench(SIM_PROFILES[name], repeats=repeats)
    return payload


def carves_per_move(side: Mapping) -> Optional[float]:
    """Total precise carves per applied solver move of one bench side.

    ``estimator.carve_count / moves`` over the whole replay — rho
    probes, bid preparation and solver re-scores alike — so work that
    moves between categories cannot hide from the ceiling.
    Deterministic per profile and mode; derived from fields every
    committed record already carries.
    """
    moves = (side.get("solver") or {}).get("moves")
    probes = side.get("rho_probes")
    return probes / moves if moves and probes is not None else None


def pushes_per_move(side: Mapping) -> Optional[float]:
    """Solver heap pushes per applied move of one bench side (one per
    machine *class* per row, not per machine); deterministic."""
    solver = side.get("solver") or {}
    moves, pushes = solver.get("moves"), solver.get("heap_pushes")
    return pushes / moves if moves and pushes is not None else None


def check_sim_regression(
    current: Mapping,
    baseline: Mapping,
    max_slowdown: float = 1.3,
    gate_profiles: Sequence[str] = ("sim-small", "sim-medium", "sim-matrix"),
) -> list[str]:
    """Compare a fresh sim bench run against the committed baseline.

    Gates on the machine-independent incremental-over-cold *speedup*
    ratio (fail when it falls below ``baseline / max_slowdown`` — the
    default tolerates 30%) and on result divergence, which is always a
    failure.  The observability record is gated too: a traced run whose
    results diverge from the untraced run always fails, and the
    traced-over-untraced overhead ratio (same machine, same process)
    must stay below ``baseline * max_slowdown``.

    Every gated profile is additionally held to a ceiling on *total*
    precise carves per solver move (:func:`carves_per_move`) and on
    heap pushes per move (:func:`pushes_per_move`) — both counters are
    *deterministic* per profile and mode (no timing noise at all), so
    they are the perf gates of choice for ``sim-xl``, where the timing
    ratio is structurally ~1 and deliberately not gated.  Each ceiling
    is ``baseline * max_slowdown`` at any baseline value.
    Returns failure messages (empty = pass).
    """
    failures: list[str] = []
    for name in gate_profiles:
        cur = current.get("sim", {}).get(name)
        if cur is None:
            failures.append(f"{name}: profile missing from current run")
            continue
        if not cur.get("identical_results", False):
            failures.append(f"{name}: incremental and cold results diverged")
        cur_obs = cur.get("obs") or {}
        if cur_obs and not cur_obs.get("identical_with_tracing", False):
            failures.append(f"{name}: tracing changed simulation results")
        base = baseline.get("sim", {}).get(name)
        if base is None:
            continue  # new profile: nothing to compare against yet
        cur_speedup = cur.get("speedup")
        base_speedup = base.get("speedup")
        if cur_speedup is None or base_speedup is None:
            continue
        floor = base_speedup / max_slowdown
        if cur_speedup < floor:
            failures.append(
                f"{name}: sim throughput regressed — incremental speedup "
                f"{cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x)"
            )
        cur_overhead = cur_obs.get("trace_overhead")
        base_overhead = (base.get("obs") or {}).get("trace_overhead")
        if cur_overhead is not None and base_overhead is not None:
            ceiling = base_overhead * max_slowdown
            if cur_overhead > ceiling:
                failures.append(
                    f"{name}: tracing overhead regressed — {cur_overhead:.2f}x "
                    f"vs baseline {base_overhead:.2f}x (ceiling {ceiling:.2f}x)"
                )
        for what, per_move in (
            ("precise carves", carves_per_move),
            ("heap pushes", pushes_per_move),
        ):
            cur_rate = per_move(cur.get("incremental", {}))
            base_rate = per_move(base.get("incremental", {}))
            if cur_rate is None or base_rate is None:
                continue
            ceiling = base_rate * max_slowdown
            if cur_rate > ceiling:
                failures.append(
                    f"{name}: solver work regressed — {cur_rate:.2f} {what}/move "
                    f"vs baseline {base_rate:.2f} (ceiling {ceiling:.2f})"
                )
    return failures


def run_bench(
    profiles: Sequence[str] = ("small", "medium", "hetero-medium", "large"),
    e2e_profiles: Sequence[str] = ("e2e-small", "e2e-medium"),
    repeats: int = 3,
    include_reference: Optional[bool] = None,
) -> dict:
    """Run the selected profiles and assemble the BENCH payload."""
    payload: dict = {"schema": BENCH_SCHEMA, "auction": {}, "end_to_end": {}}
    for name in profiles:
        payload["auction"][name] = run_auction_bench(
            AUCTION_PROFILES[name], repeats=repeats, include_reference=include_reference
        )
    for name in e2e_profiles:
        payload["end_to_end"][name] = run_end_to_end_bench(
            E2E_PROFILES[name], repeats=repeats
        )
    return payload


# ----------------------------------------------------------------------
# Regression guard
# ----------------------------------------------------------------------
def check_regression(
    current: Mapping,
    baseline: Mapping,
    max_slowdown: float = 2.0,
    gate_profiles: Sequence[str] = ("medium", "hetero-medium", "large"),
) -> list[str]:
    """Compare a fresh bench run against a committed baseline.

    The guarded metric is the *speedup ratio* (rescan reference over
    lazy solver, measured on the same machine in the same process),
    which is comparable across machines; a profile regresses when its
    ratio falls below ``baseline / max_slowdown``.  Outcome divergence
    between the two solvers is always a failure.  A gated profile with
    no reference timing must carry an explicit ``skip_reference``
    marker — it is then gated on its deterministic work counts
    (rho probes / solver pair scores) instead of wall time; a gated
    profile with neither fails outright, so nothing is silently
    uncompared.  Returns a list of failure messages (empty = pass).
    """
    failures: list[str] = []
    for name in gate_profiles:
        cur = current.get("auction", {}).get(name)
        base = baseline.get("auction", {}).get(name)
        if cur is None:
            failures.append(f"{name}: profile missing from current run")
            continue
        if cur.get("identical_outcomes") is False:
            failures.append(f"{name}: lazy and rescan solvers diverged")
        cur_speedup = cur.get("speedup")
        if cur_speedup is None:
            if "skip_reference" not in cur:
                failures.append(
                    f"{name}: gated profile has neither a reference timing "
                    "nor a skip_reference marker"
                )
                continue
            if base is None:
                continue
            # Reference-free gate: the lazy solver's work counts are
            # deterministic per instance, so a large increase is a hot-
            # path regression even without a timing ratio.
            for counter in ("rho_probes", "solver_pair_scores"):
                cur_count = cur.get("fast", {}).get(counter)
                base_count = base.get("fast", {}).get(counter)
                if not cur_count or not base_count:
                    continue
                if cur_count > base_count * max_slowdown:
                    failures.append(
                        f"{name}: {counter} grew {cur_count} vs baseline "
                        f"{base_count} (allowed x{max_slowdown:g})"
                    )
            continue
        if base is None:
            continue  # new profile: nothing to compare against yet
        base_speedup = base.get("speedup")
        if base_speedup is None:
            continue
        floor = base_speedup / max_slowdown
        if cur_speedup < floor:
            failures.append(
                f"{name}: auction solve regressed — speedup {cur_speedup:.2f}x "
                f"vs baseline {base_speedup:.2f}x (floor {floor:.2f}x)"
            )
    return failures


def load_bench(path: str) -> dict:
    """Read a BENCH_auction.json payload."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_bench(payload: Mapping, path: str) -> None:
    """Write a BENCH_auction.json payload (stable key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Trajectory entries kept in BENCH_sim.json.  Old entries age out so
#: the committed baseline does not grow without bound.
SIM_TRAJECTORY_LIMIT = 50


def sim_trajectory_entry(payload: Mapping, at: Optional[str] = None) -> dict:
    """One timestamped summary row of a sim bench run.

    Only the machine-comparable essentials per profile: the min-of-N
    wall times, the incremental-over-cold speedup ratio, and the byte-
    identity verdict.  ``at`` overrides the timestamp (tests).
    """
    if at is None:
        at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    profiles = {}
    for name, record in payload.get("sim", {}).items():
        entry = {
            "incremental_seconds": record["incremental"]["seconds"],
            "cold_seconds": record["cold"]["seconds"],
            "repeats": record["incremental"]["repeats"],
            "speedup": record["speedup"],
            "identical_results": record["identical_results"],
        }
        for key, per_move in (
            ("carves_per_move", carves_per_move),
            ("pushes_per_move", pushes_per_move),
        ):
            rate = per_move(record["incremental"])
            if rate is not None:
                entry[key] = rate
        profiles[name] = entry
    return {"at": at, "profiles": profiles}


def write_sim_bench(payload: Mapping, path: str, at: Optional[str] = None) -> dict:
    """Write BENCH_sim.json, *appending* to its speedup trajectory.

    Unlike :func:`write_bench`, a prior payload at ``path`` is not
    discarded wholesale:

    * per-profile records merge — profiles absent from this run keep
      their committed entries, so ``--profiles sim-8x --out`` refreshes
      one profile without dropping the rest of the baseline;
    * the ``trajectory`` list is carried forward and this run's
      :func:`sim_trajectory_entry` (covering only the profiles actually
      run) is appended, capped at :data:`SIM_TRAJECTORY_LIMIT`, oldest
      first out.

    A missing or unparsable prior file starts fresh.  Returns the
    payload actually written.
    """
    trajectory: list = []
    prior_sim: dict = {}
    try:
        prior = load_bench(path)
        prior_trajectory = prior.get("trajectory", [])
        if isinstance(prior_trajectory, list):
            trajectory = list(prior_trajectory)
        if isinstance(prior.get("sim"), dict):
            prior_sim = dict(prior["sim"])
    except (OSError, ValueError):
        pass
    trajectory.append(sim_trajectory_entry(payload, at=at))
    merged = dict(payload)
    merged["sim"] = {**prior_sim, **payload.get("sim", {})}
    merged["trajectory"] = trajectory[-SIM_TRAJECTORY_LIMIT:]
    write_bench(merged, path)
    return merged
