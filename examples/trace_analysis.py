#!/usr/bin/env python3
"""Decision-trace analysis: observe *why* the scheduler did what it did.

Runs one Themis simulation with full observability on — structured
decision tracing, the phase profiler, and the per-round
fragmentation/starvation series — then analyses the artifacts:

* validates the event stream against the typed, versioned schema,
* reconstructs per-app GPU time purely from ``job_state_change``
  events and reconciles it against the engine's own accounting,
* ranks the auction's winners by wins and GPUs granted,
* prints the phase profile (where the wall-clock actually went).

Run:  PYTHONPATH=src python examples/trace_analysis.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro import ClusterSimulator, make_scheduler
from repro.experiments.config import sim_scenario
from repro.obs import ObsConfig, read_trace, summarize_events, validate_events


def gpu_time_from_trace(events):
    """Integrate held GPUs per app from the job_state_change stream.

    Allocations are piecewise-constant between events, so the exact
    per-app GPU time is recoverable from the trace alone — no access to
    the simulator needed.  (The engine guarantees a terminal event with
    ``gpus=0`` for every job.)
    """
    last = {}      # (app, job) -> (t, gpus)
    totals = {}    # app -> GPU-minutes
    for event in events:
        if event["kind"] != "job_state_change":
            continue
        key = (event["app"], event["job"])
        if key in last:
            t0, gpus0 = last[key]
            totals[event["app"]] = (
                totals.get(event["app"], 0.0) + gpus0 * (event["t"] - t0)
            )
        last[key] = (event["t"], event["gpus"])
    return totals


def main() -> None:
    scenario = sim_scenario(num_apps=8, duration_scale=0.05, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "decisions.jsonl"
        simulator = ClusterSimulator(
            cluster=scenario.build_cluster(),
            workload=scenario.build_trace(),
            scheduler=make_scheduler("themis"),
            config=scenario.build_sim_config(),
            obs=ObsConfig(trace_path=str(trace_path), profile=True),
        )
        result = simulator.run()
        simulator.obs.close()
        header, events = read_trace(str(trace_path))

    problems = validate_events(events, header)
    summary = summarize_events(events)
    print(f"trace: {summary['events']} events over {summary['rounds']} rounds, "
          f"schema {header['schema']}, "
          f"{'VALID' if not problems else f'{len(problems)} PROBLEMS'}")
    for kind, count in summary["by_kind"].items():
        print(f"  {kind:<18} {count:>6}")

    print("\nGPU time: trace integral vs engine accounting")
    from_trace = gpu_time_from_trace(events)
    for stats in sorted(result.app_stats, key=lambda s: -s.gpu_time)[:5]:
        integrated = from_trace.get(stats.app_id, 0.0)
        drift = abs(integrated - stats.gpu_time)
        print(f"  {stats.app_id}: {integrated:10.1f} vs {stats.gpu_time:10.1f} "
              f"GPU-min (drift {drift:.2e})")

    wins = Counter(e["app"] for e in events if e["kind"] == "auction_win")
    gpus_won = Counter()
    for event in events:
        if event["kind"] == "auction_win":
            gpus_won[event["app"]] += event["gpus"]
    print("\nauction winners (wins / total GPUs granted):")
    for app, count in wins.most_common(5):
        print(f"  {app}: {count} wins, {gpus_won[app]} GPUs")

    if result.fragmentation_samples:
        peak_t, peak = max(result.fragmentation_samples, key=lambda tv: tv[1])
        print(f"\nfragmentation peaks at {peak:.3f} (t={peak_t:.0f} min); "
              f"starvation p99 peaks at "
              f"{max(v for _, v in result.starvation_samples)} rounds")

    print("\nphase profile (inclusive wall time, self time and its share):")
    total = sum(rec["self_seconds"] for rec in result.profile.values()) or 1.0
    for name, rec in result.profile.items():
        print(f"  {name:<16} {rec['seconds']:8.4f}s  {rec['self_seconds']:8.4f}s  "
              f"{rec['calls']:>6} calls  {100.0 * rec['self_seconds'] / total:5.1f}%")


if __name__ == "__main__":
    main()
