"""The sim macro-benchmark (``repro bench sim``): whole-trace replays.

Every :class:`SimBenchProfile` is one full simulation, replayed
untraced and then again with full tracing plus the phase profiler
attached.  What is gated against the committed ``BENCH_sim.json`` is
deterministic: the sha256 of the canonical result JSON must equal the
committed one, the traced replay must produce the same digest, and the
replay's total carves and heap pushes per applied solver move must stay
under a ceiling.  The one timing gate is the traced-over-untraced ratio
(same machine, same process).  Wall seconds, events/sec and rounds/sec
are recorded for context only — wall-clock claims are made with
interleaved parent/change pairs of ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Optional, Sequence

#: Schema version of the BENCH_sim.json payload.
#: 2: per-profile ``obs`` record (tracing-on overhead ratio, byte-
#:    identity with tracing, event count, phase profile).
#: 3: top-level ``trajectory`` list — one timestamped summary entry
#:    appended per ``repro bench sim --out`` run, so the committed
#:    baseline carries its own history instead of silently
#:    overwriting it.
#: 4: one replay mode — a record carries its result ``digest``,
#:    ``seconds`` and work counts directly (no ``incremental`` /
#:    ``cold`` sides, no ``speedup``); trajectory entries written
#:    before 4 keep their old keys.
BENCH_SIM_SCHEMA = 4


@dataclass(frozen=True)
class SimBenchProfile:
    """One full trace replay.

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
#: injection.  ``sim-small`` and ``sim-matrix`` are the CI smoke gates.
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
        # What it proves is a stable digest, bounded solver work per
        # move and CI-budget wall clock at an order of magnitude more
        # machines than every other profile.  At this scale the
        # dominant cost is the auction solver's exact re-scoring after
        # each greedy move (trajectory-dependent compound bundle keys x
        # 512 machines).  Tiny short jobs + a long lease keep the round
        # count tracking workload churn instead of lease churn, which
        # is what keeps the whole replay inside the CI budget.  Not in
        # the default suite — run it explicitly (CI does, under a hard
        # timeout).
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

    ``round_stats`` (solver work counters) and ``profile`` (wall-clock
    timings) are observability, not results.  Everything else must
    match byte for byte between two replays of one trace.
    """
    payload = result.to_json()
    payload.pop("round_stats", None)
    payload.pop("profile", None)
    return json.dumps(payload, sort_keys=True)


def result_digest(result) -> str:
    """sha256 of :func:`canonical_result_json` — what ``BENCH_sim.json`` pins."""
    return hashlib.sha256(canonical_result_json(result).encode("utf-8")).hexdigest()


def run_sim_once(profile: SimBenchProfile, obs=None) -> dict:
    """One full trace replay; returns timing + result + result digest.

    ``obs`` optionally attaches an :class:`~repro.obs.Observability`
    bundle (the tracing-overhead pass of :func:`run_sim_bench`).
    """
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.failures import FailureInjector, MachineFailure
    from repro.simulation.simulator import ClusterSimulator

    scenario = sim_scenario_for(profile)
    scheduler = make_scheduler(profile.scheduler)
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=scheduler,
        config=scenario.build_sim_config(),
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
        "digest": result_digest(result),
        "rho_probes": getattr(estimator, "carve_count", 0),
    }


def run_sim_bench(profile: SimBenchProfile, repeats: int = 1) -> dict:
    """Benchmark one sim profile; returns its record.

    Two passes of ``repeats`` replays each (the fastest is reported):
    untraced, then with full tracing plus the phase profiler attached.
    The traced pass proves observability is pay-for-what-you-use: its
    digest must equal the untraced one and its ``trace_overhead`` ratio
    (traced / untraced, same machine and process) is the one timing
    number the CI guard gates.
    """
    from repro.obs import Observability, PhaseProfiler, RingTracer

    repeats = max(1, repeats)

    def fastest(make_obs=None) -> tuple[dict, object]:
        best, best_obs = None, None
        for _ in range(repeats):
            obs = make_obs() if make_obs is not None else None
            run = run_sim_once(profile, obs=obs)
            if best is None or run["seconds"] < best["seconds"]:
                best, best_obs = run, obs
        return best, best_obs

    plain, _ = fastest()
    traced, traced_obs = fastest(
        lambda: Observability(
            tracer=RingTracer(capacity=1 << 20), profiler=PhaseProfiler()
        )
    )
    result = plain["result"]
    seconds = plain["seconds"]
    # Solver accounting, deterministic per profile.  The CI ceilings
    # are on *total* carves per move (:func:`carves_per_move`) and heap
    # pushes per move, not on either re-score category.
    totals = (result.round_stats or {}).get("totals", {})
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
        "digest": plain["digest"],
        "seconds": seconds,
        "repeats": repeats,
        "events_per_sec": result.events_processed / seconds if seconds > 0 else None,
        "rounds_per_sec": result.num_rounds / seconds if seconds > 0 else None,
        "rho_probes": plain["rho_probes"],
        "solver": {
            "moves": totals.get("solver_moves", 0),
            "rescore_carves": totals.get("rescore_carves", 0),
            "rescore_skipped": totals.get("rescore_skipped", 0),
            "heap_pushes": totals.get("solver_heap_pushes", 0),
        },
        "obs": {
            "seconds": traced["seconds"],
            "trace_overhead": traced["seconds"] / seconds if seconds > 0 else None,
            "events": traced_obs.tracer.events_written,
            "events_dropped": traced_obs.tracer.dropped,
            "identical_with_tracing": traced["digest"] == plain["digest"],
            "profile": traced["result"].profile,
        },
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


def carves_per_move(record: Mapping) -> Optional[float]:
    """Total precise carves per applied solver move of one bench record.

    ``estimator.carve_count / moves`` over the whole replay — rho
    probes, bid preparation and solver re-scores alike — so work that
    moves between categories cannot hide from the ceiling.
    Deterministic per profile.
    """
    moves = (record.get("solver") or {}).get("moves")
    probes = record.get("rho_probes")
    return probes / moves if moves and probes is not None else None


def pushes_per_move(record: Mapping) -> Optional[float]:
    """Solver heap pushes per applied move of one bench record (one per
    machine *class* per row, not per machine); deterministic."""
    solver = record.get("solver") or {}
    moves, pushes = solver.get("moves"), solver.get("heap_pushes")
    return pushes / moves if moves and pushes is not None else None


def check_sim_regression(
    current: Mapping,
    baseline: Mapping,
    max_slowdown: float = 1.3,
    gate_profiles: Sequence[str] = ("sim-small", "sim-medium", "sim-matrix"),
) -> list[str]:
    """Compare a fresh sim bench run against the committed baseline.

    Always a failure: a result digest that differs from the committed
    one (the replay of a pinned trace changed), and a traced run whose
    digest differs from the untraced run's.  Held to
    ``baseline * max_slowdown``: the traced-over-untraced overhead
    ratio (same machine, same process), *total* precise carves per
    solver move (:func:`carves_per_move`) and heap pushes per move
    (:func:`pushes_per_move`) — the two work counters are deterministic
    per profile (no timing noise at all), and the ceiling holds at any
    baseline value, zero included.
    Returns failure messages (empty = pass).
    """
    failures: list[str] = []
    for name in gate_profiles:
        cur = current.get("sim", {}).get(name)
        if cur is None:
            failures.append(f"{name}: profile missing from current run")
            continue
        cur_obs = cur.get("obs") or {}
        if cur_obs and not cur_obs.get("identical_with_tracing", False):
            failures.append(f"{name}: tracing changed simulation results")
        base = baseline.get("sim", {}).get(name)
        if base is None:
            continue  # new profile: nothing to compare against yet
        if cur.get("digest") != base.get("digest"):
            failures.append(
                f"{name}: result digest {str(cur.get('digest'))[:12]} differs "
                f"from the committed {str(base.get('digest'))[:12]}"
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
            cur_rate = per_move(cur)
            base_rate = per_move(base)
            if cur_rate is None or base_rate is None:
                continue
            ceiling = base_rate * max_slowdown
            if cur_rate > ceiling:
                failures.append(
                    f"{name}: solver work regressed — {cur_rate:.2f} {what}/move "
                    f"vs baseline {base_rate:.2f} (ceiling {ceiling:.2f})"
                )
    return failures


def load_bench(path: str) -> dict:
    """Read a BENCH_sim.json payload."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: Trajectory entries kept in BENCH_sim.json.  Old entries age out so
#: the committed baseline does not grow without bound.
SIM_TRAJECTORY_LIMIT = 50


def sim_trajectory_entry(payload: Mapping, at: Optional[str] = None) -> dict:
    """One timestamped summary row of a sim bench run.

    Per profile: the result digest, the min-of-N wall time (context
    only — this box drifts) and the two deterministic per-move work
    rates.  ``at`` overrides the timestamp (tests).
    """
    if at is None:
        at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    profiles = {}
    for name, record in payload.get("sim", {}).items():
        entry = {
            "digest": record["digest"],
            "seconds": record["seconds"],
            "repeats": record["repeats"],
        }
        for key, per_move in (
            ("carves_per_move", carves_per_move),
            ("pushes_per_move", pushes_per_move),
        ):
            rate = per_move(record)
            if rate is not None:
                entry[key] = rate
        profiles[name] = entry
    return {"at": at, "profiles": profiles}


def write_sim_bench(payload: Mapping, path: str, at: Optional[str] = None) -> dict:
    """Write BENCH_sim.json, *appending* to its trajectory.

    A prior payload at ``path`` is not discarded wholesale:

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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return merged
