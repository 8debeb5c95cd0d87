"""BENCH_sim.json: the `--check` gates, and `--out` appending history.

:func:`~repro.perf.bench.check_sim_regression` fails on a moved result
digest and on per-move solver work above the ceiling.
:func:`~repro.perf.bench.write_sim_bench` never erases: the committed
baseline carries a ``trajectory`` list — one timestamped per-profile
summary appended per run, capped at
:data:`~repro.perf.bench.SIM_TRAJECTORY_LIMIT` — so the history
survives baseline refreshes.  The sim-xl scale profile is registered
but explicit-only.
"""

from __future__ import annotations

import json

from repro.perf.bench import (
    SIM_PROFILES,
    SIM_TRAJECTORY_LIMIT,
    check_sim_regression,
    load_bench,
    run_sim_suite,
    sim_trajectory_entry,
    write_sim_bench,
)


def fake_payload(seconds: float, digest: str = "d" * 64) -> dict:
    return {
        "schema": 4,
        "sim": {"sim-small": {"digest": digest, "seconds": seconds, "repeats": 3}},
    }


def test_trajectory_entry_summarises_profiles():
    entry = sim_trajectory_entry(fake_payload(0.4), at="2026-08-08T00:00:00+00:00")
    assert entry["at"] == "2026-08-08T00:00:00+00:00"
    assert entry["profiles"]["sim-small"] == {
        "digest": "d" * 64, "seconds": 0.4, "repeats": 3,
    }


def test_sim_gate_fails_on_a_moved_digest_or_a_traced_divergence():
    gate = ("sim-small",)
    baseline = fake_payload(1.0)
    assert check_sim_regression(fake_payload(9.0), baseline, gate_profiles=gate) == []
    (failure,) = check_sim_regression(
        fake_payload(1.0, digest="e" * 64), baseline, gate_profiles=gate
    )
    assert "result digest eeeeeeeeeeee differs from the committed dddddddddddd" in failure
    # A baseline written before records carried a digest proves nothing.
    stale = {"sim": {"sim-small": {"speedup": 2.0}}}
    assert check_sim_regression(baseline, stale, gate_profiles=gate)
    diverged = fake_payload(1.0)
    diverged["sim"]["sim-small"]["obs"] = {"identical_with_tracing": False}
    (failure,) = check_sim_regression(diverged, baseline, gate_profiles=gate)
    assert "tracing changed simulation results" in failure
    assert check_sim_regression({"sim": {}}, baseline, gate_profiles=gate) == [
        "sim-small: profile missing from current run"
    ]


def test_sim_gate_holds_total_carves_per_move_at_any_baseline():
    """The ceiling is on all carves, so re-filed work cannot slip by.

    The committed sim-xl baseline once read 0.0 on-demand re-score
    carves per move (the work had moved into a batched category) and
    the gate skipped itself on a zero baseline; total carves per move
    has no such blind spot.
    """

    def payload(probes: int) -> dict:
        run = fake_payload(2.0)
        run["sim"]["sim-small"].update(
            rho_probes=probes, solver={"moves": 100, "rescore_carves": 0}
        )
        return run

    gate = ("sim-small",)
    baseline = payload(1000)
    entry = sim_trajectory_entry(baseline, at="t")
    assert entry["profiles"]["sim-small"]["carves_per_move"] == 10.0
    assert check_sim_regression(payload(1250), baseline, gate_profiles=gate) == []
    (failure,) = check_sim_regression(payload(1400), baseline, gate_profiles=gate)
    assert "14.00 precise carves/move vs baseline 10.00" in failure
    # A zero baseline is a ceiling of zero, not a skipped check.
    assert check_sim_regression(payload(0), payload(0), gate_profiles=gate) == []
    assert check_sim_regression(payload(1), payload(0), gate_profiles=gate)


def test_sim_gate_holds_heap_pushes_per_move_to_the_same_ceiling():
    def payload(pushes) -> dict:
        run = fake_payload(2.0)
        solver = {"moves": 100} if pushes is None else {"moves": 100, "heap_pushes": pushes}
        run["sim"]["sim-small"].update(rho_probes=1000, solver=solver)
        return run

    gate = ("sim-small",)
    baseline = payload(500)
    entry = sim_trajectory_entry(baseline, at="t")
    assert entry["profiles"]["sim-small"]["pushes_per_move"] == 5.0
    assert check_sim_regression(payload(650), baseline, gate_profiles=gate) == []
    (failure,) = check_sim_regression(payload(700), baseline, gate_profiles=gate)
    assert "7.00 heap pushes/move vs baseline 5.00" in failure
    # A baseline recorded before the counter existed gates nothing.
    assert check_sim_regression(payload(700), payload(None), gate_profiles=gate) == []
    assert "pushes_per_move" not in sim_trajectory_entry(payload(None), at="t")[
        "profiles"
    ]["sim-small"]


def test_write_sim_bench_appends_across_runs(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    write_sim_bench(fake_payload(2.0), path, at="t0")
    write_sim_bench(fake_payload(3.0), path, at="t1")
    payload = load_bench(path)
    # The latest run's results win; the history keeps both runs.
    assert payload["sim"]["sim-small"]["seconds"] == 3.0
    assert [e["at"] for e in payload["trajectory"]] == ["t0", "t1"]
    assert payload["trajectory"][0]["profiles"]["sim-small"]["seconds"] == 2.0


def test_write_sim_bench_carries_old_schema_trajectory_entries(tmp_path):
    """Entries appended before schema 4 keep their keys, untouched."""
    path = tmp_path / "BENCH_sim.json"
    old_entry = {
        "at": "2026-09-01T00:00:00+00:00",
        "profiles": {"sim-small": {"speedup": 2.1, "incremental_seconds": 0.3}},
    }
    path.write_text(json.dumps({"schema": 3, "sim": {}, "trajectory": [old_entry]}))
    written = write_sim_bench(fake_payload(2.0), str(path), at="t1")
    assert written["trajectory"][0] == old_entry
    assert written["trajectory"][1]["at"] == "t1"


def test_write_sim_bench_merges_profiles_not_rerun(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    write_sim_bench(fake_payload(2.0), path, at="t0")
    xl_only = fake_payload(1.1)
    xl_only["sim"] = {"sim-xl": xl_only["sim"].pop("sim-small")}
    write_sim_bench(xl_only, path, at="t1")
    payload = load_bench(path)
    # A partial run refreshes its own profiles and keeps the rest.
    assert payload["sim"]["sim-small"]["seconds"] == 2.0
    assert payload["sim"]["sim-xl"]["seconds"] == 1.1
    # Each trajectory entry covers only the profiles actually run.
    assert list(payload["trajectory"][1]["profiles"]) == ["sim-xl"]


def test_write_sim_bench_caps_history(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    for i in range(SIM_TRAJECTORY_LIMIT + 5):
        write_sim_bench(fake_payload(2.0), path, at=f"t{i}")
    payload = load_bench(path)
    trajectory = payload["trajectory"]
    assert len(trajectory) == SIM_TRAJECTORY_LIMIT
    # Oldest entries aged out, newest kept.
    assert trajectory[0]["at"] == "t5"
    assert trajectory[-1]["at"] == f"t{SIM_TRAJECTORY_LIMIT + 4}"


def test_write_sim_bench_tolerates_corrupt_prior_file(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text("{not json")
    written = write_sim_bench(fake_payload(2.0), str(path), at="t0")
    assert [e["at"] for e in written["trajectory"]] == ["t0"]
    assert json.loads(path.read_text())["sim"]["sim-small"]["seconds"] == 2.0


def test_sim_xl_profile_registered_but_not_default():
    profile = SIM_PROFILES["sim-xl"]
    assert profile.gpus == 2048
    assert profile.num_apps == 512
    # The scale gate is explicit-only: neither the suite default nor a
    # bare CLI run may pick up a minutes-long profile by accident.
    assert "sim-xl" not in run_sim_suite.__defaults__[0]


def test_cli_bench_sim_out_appends_trajectory(tmp_path, capsys):
    from test_cli import run_cli

    out_path = tmp_path / "BENCH_sim.json"
    for expected_entries in (1, 2):
        code, out, _ = run_cli(
            capsys, "bench", "sim", "--profiles", "sim-small",
            "--repeats", "1", "--out", str(out_path),
        )
        assert code == 0
        assert "trajectory appended" in out
        payload = json.loads(out_path.read_text())
        assert payload["sim"]["sim-small"]["obs"]["identical_with_tracing"] is True
        assert len(payload["trajectory"]) == expected_entries
        assert "sim-small" in payload["trajectory"][-1]["profiles"]
