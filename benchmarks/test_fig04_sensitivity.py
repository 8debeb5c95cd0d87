"""Figures 4a/4b/4c: sensitivity to the fairness knob and lease time."""


def test_fig04ab_fairness_knob_sweep(replay_figure):
    figure = replay_figure("fig04ab")
    by_knob = {row["fairness_knob"]: row for row in figure.rows}
    # Paper shape (4a): strong fairness (f >= 0.8) keeps max rho at or
    # below the efficiency extreme (f = 0); diminishing returns after 0.8.
    assert by_knob[0.8]["max_rho"] <= by_knob[0.0]["max_rho"] * 1.10
    # rho spreads are internally consistent.
    for row in figure.rows:
        assert row["min_rho"] <= row["median_rho"] <= row["max_rho"]
    # 4b: GPU time stays within a plausible band across the sweep (the
    # paper sees higher GPU time at high f; exact shape is workload
    # dependent at this scale).
    gpu_times = [row["gpu_time"] for row in figure.rows]
    assert max(gpu_times) / min(gpu_times) < 1.6


def test_fig04c_lease_time_sweep(replay_figure):
    rows = replay_figure("fig04c").rows
    # Shorter leases reallocate more often...
    assert rows[0]["rounds"] > rows[-1]["rounds"]
    # ...and are no less fair than the longest lease (paper: fairness
    # improves as leases shrink).
    assert rows[0]["max_rho"] <= rows[-1]["max_rho"] * 1.10
