"""Observability threaded through the engine, for every scheduler.

The acceptance bar: a traced run of each registered scheduler produces
a schema-valid event stream whose ``job_state_change`` events — the
discrete points where a job's held-GPU count changes — integrate
(piecewise-constant) to exactly the GPU time the final ``AppStats``
accounting reports.  Fragmentation and starvation ship as first-class
per-round series for every scheduler, and the CLI surfaces all of it.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.config import tiny_scenario
from repro.obs import ObsConfig, Observability, RingTracer, validate_events
from repro.schedulers.registry import SCHEDULER_NAMES
from repro.experiments.runner import run_scenario


def _traced_run(scheduler_name, seed=9):
    tracer = RingTracer(capacity=1 << 20)
    scenario = tiny_scenario(num_apps=3, seed=seed)
    return run_scenario(scenario, scheduler_name, obs=Observability(tracer=tracer)), tracer


def _integrate_gpu_time(events):
    """Piecewise-constant integral of held GPUs per app, from the
    ``job_state_change`` stream alone."""
    last = {}  # (app, job) -> (t, gpus)
    totals = {}  # app -> GPU-minutes
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
    return totals, last


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
def test_traced_run_is_schema_valid_and_reconciles(scheduler_name):
    result, tracer = _traced_run(scheduler_name)

    # Schema-valid, loss-free stream.
    assert 0 < tracer.events_written == len(tracer.events)
    assert validate_events(tracer.events, tracer.header) == []
    assert tracer.header["scheduler"] == scheduler_name

    # Fragmentation/starvation are first-class series for *every*
    # scheduler, sampled once per round.
    assert len(result.fragmentation_samples) == result.num_rounds
    assert len(result.starvation_samples) == result.num_rounds
    for t, value in result.fragmentation_samples:
        assert 0.0 <= value < 1.0
    for t, value in result.starvation_samples:
        assert value >= 0

    # GPU-time reconciliation: the job_state_change stream integrates to
    # the AppStats accounting, app by app.
    totals, last = _integrate_gpu_time(tracer.events)
    for (app_id, job_id), (_, gpus) in last.items():
        assert gpus == 0, f"job {job_id} has no terminal event"
    for stats in result.app_stats:
        assert totals.get(stats.app_id, 0.0) == pytest.approx(
            stats.gpu_time, rel=1e-9, abs=1e-6
        )

    # Every app that accrued GPU time must have been granted a lease.
    granted = {e["app"] for e in tracer.events if e["kind"] == "lease_grant"}
    assert {s.app_id for s in result.app_stats if s.gpu_time > 0} <= granted


def test_auction_events_only_for_the_arbiter():
    result, tracer = _traced_run("themis")
    kinds = {e["kind"] for e in tracer.events}
    assert {"round_start", "bid_submitted", "auction_win", "apps_filtered"} <= kinds
    # Winners in the stream are a subset of bidders, round by round.
    bids, wins = {}, {}
    for event in tracer.events:
        if event["kind"] == "bid_submitted":
            bids.setdefault(event["round"], set()).add(event["app"])
        elif event["kind"] == "auction_win":
            wins.setdefault(event["round"], set()).add(event["app"])
    assert wins and all(wins[r] <= bids.get(r, set()) for r in wins)
    # Solver instrumentation rides along for arbiter-driven runs.  The
    # arbiter only runs when eligible apps exist, so its round count is
    # the number of distinct bidding rounds, not the simulator's total.
    assert result.round_stats["rounds"] == len(bids)
    assert 0 < result.round_stats["rounds"] <= result.num_rounds
    assert result.round_stats["totals"]["solver_moves"] >= 0

    # ...but baselines have no arbiter, hence only the install path's
    # placement counters and no bid chatter.  ``auction_win`` still
    # appears: the simulator emits it for every per-round assignment
    # decision, whoever made it.
    fifo_result, fifo_tracer = _traced_run("fifo")
    assert list(fifo_result.round_stats) == ["placement"]
    placement = fifo_result.round_stats["placement"]
    assert 0 < placement["gpus_installed"] <= placement["gpus_granted"]
    fifo_kinds = {e["kind"] for e in fifo_tracer.events}
    assert "bid_submitted" not in fifo_kinds and "apps_filtered" not in fifo_kinds
    assert {"auction_win", "lease_grant"} <= fifo_kinds


def test_obs_config_round_trips_through_the_simulator(tmp_path):
    path = tmp_path / "cfg.jsonl"
    obs = ObsConfig(trace_path=str(path), trace_events=("lease_grant",), profile=True)
    result = run_scenario(tiny_scenario(num_apps=2, seed=4), obs=obs)
    assert result.profile  # profiler was live
    from repro.obs import read_trace

    header, events = read_trace(str(path))
    assert events and {e["kind"] for e in events} == {"lease_grant"}
    assert validate_events(events, header) == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_run_trace_profile_then_inspect(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        capsys, "run", "--scheduler", "themis", "--apps", "3",
        "--duration-scale", "0.05", "--seed", "2",
        "--trace", str(trace_path), "--profile",
    )
    assert code == 0
    assert "phase profile" in out
    assert "installs_fully_declined" in out.split("phase profile")[1]
    _, header, _, row, *_ = out.split("auctions:")[1].splitlines()
    assert header.split() == [
        "auctions", "eligible_mean", "eligible_max", "participants_mean", "participants_max"
    ]
    auctions, _, eligible_max, _, participants_max = row.split()
    assert int(auctions) > 0 and 1 <= int(participants_max) <= int(eligible_max)
    _, header, _, row, *_ = out.split("valuation:")[1].splitlines()
    assert header.split() == [
        "carves", "bid_carves", "carves_per_auction", "rebuilds", "lookups",
        "lookups_per_auction",
    ]
    carves, bid_carves, per_auction, rebuilds, lookups, _ = row.split()
    assert 0 < int(bid_carves) <= int(carves) and int(lookups) > 0 and int(rebuilds) > 0
    assert float(per_auction) == pytest.approx(int(carves) / int(auctions), rel=1e-2)
    _, header, _, row, *_ = out.split("payments:")[1].splitlines()
    assert header.split() == ["pf_winners", "paid", "paid_share", "gpus_withheld"]
    pf_winners, paid, paid_share, withheld = row.split()
    assert 0 <= int(paid) <= int(pf_winners) and int(pf_winners) > 0
    assert float(paid_share) == round(int(paid) / int(pf_winners), 3)
    assert int(withheld) >= int(paid)
    assert f"wrote trace to {trace_path}" in out

    code, out, _ = run_cli(capsys, "trace", str(trace_path), "--validate")
    assert code == 0
    assert "trace OK" in out

    code, out, _ = run_cli(capsys, "trace", str(trace_path))
    assert code == 0
    assert "auction_win" in out and "round_start" in out

    code, out, _ = run_cli(
        capsys, "trace", str(trace_path),
        "--filter", "auction_win", "--limit", "3",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert 0 < len(lines) <= 3
    assert all(line["kind"] == "auction_win" for line in lines)


def test_cli_trace_validate_flags_corruption(tmp_path, capsys):
    trace_path = tmp_path / "bad.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--trace", str(trace_path),
    )
    assert code == 0
    with open(trace_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "warp_drive", "t": 1.0}) + "\n")
    code, _, err = run_cli(capsys, "trace", str(trace_path), "--validate")
    assert code == 1
    assert "unknown kind" in err

    code, _, err = run_cli(capsys, "trace", str(tmp_path / "missing.jsonl"),
                           "--validate")
    assert code == 2
    assert "cannot read trace" in err


def test_cli_trace_events_requires_trace(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scheduler", "fifo", "--apps", "2",
        "--duration-scale", "0.05", "--trace-events", "auction_win",
    )
    assert code == 0
    assert "no effect without --trace" in err

    with pytest.raises(SystemExit):
        run_cli(capsys, "run", "--apps", "2", "--trace-events", "warp_drive")


def test_cli_sweep_writes_one_trace_per_cell(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    code, out, _ = run_cli(
        capsys, "sweep", "--schedulers", "themis,fifo", "--seeds", "1",
        "--apps", "2", "--duration-scale", "0.05",
        "--cache-dir", str(tmp_path / "cache"), "--trace", str(trace_dir),
    )
    assert code == 0
    files = sorted(trace_dir.glob("*.jsonl"))
    assert len(files) == 2
    from repro.obs import read_trace

    for path in files:
        header, events = read_trace(str(path))
        assert events
        assert validate_events(events, header) == []


def test_cli_log_level_exposes_sweep_progress(tmp_path, capsys):
    argv = (
        "--log-level", "debug", "sweep", "--schedulers", "fifo", "--seeds", "1",
        "--apps", "2", "--duration-scale", "0.05",
        "--cache-dir", str(tmp_path / "cache"),
    )
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert "repro.sweep.progress" in err
