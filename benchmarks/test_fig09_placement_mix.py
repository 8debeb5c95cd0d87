"""Figures 9a/9b: impact of the network-intensive app fraction."""

from repro.experiments.figures import PAPER_SCHEDULERS


def test_fig09_network_intensive_sweep(replay_figure):
    figure = replay_figure("fig09")
    rows = {row["network_intensive_fraction"]: row for row in figure.rows}

    # 9a shape: placement awareness matters more as the workload gets
    # network-heavy — the improvement factor over Tiresias grows from
    # ~1x at 0% to clearly >1x at 100%.
    assert 0.75 <= rows[0.0]["improvement_over_tiresias"] <= 1.35
    assert rows[1.0]["improvement_over_tiresias"] > 1.05
    assert (
        rows[1.0]["improvement_over_tiresias"]
        > rows[0.0]["improvement_over_tiresias"]
    )

    # 9b shape: with only compute-bound apps all schedulers burn about
    # the same GPU time; at 100% network-intensive the placement-blind
    # schedulers inflate GPU time over Themis.
    at_zero = [rows[0.0][f"gpu_time:{s}"] for s in PAPER_SCHEDULERS]
    assert max(at_zero) / min(at_zero) < 1.2
    heavy = rows[1.0]
    assert heavy["gpu_time:tiresias"] > heavy["gpu_time:themis"]
    assert heavy["gpu_time:slaq"] > heavy["gpu_time:themis"]
