"""Figures 5a/5b/6/7: the scheduler macrobenchmark on the testbed cluster.

One comparison run yields all four figures: max finish-time fairness
(5a), Jain's index (5b), the app-completion-time CDF (6) and the
placement-score CDF (7).
"""


def test_fig05_07_macrobenchmark(replay_figure):
    figure = replay_figure("fig05-07")
    rows = {row["scheduler"]: row for row in figure.rows}

    # Figure 5a shape: Themis has the best (lowest) max fairness of the
    # comparison set.
    themis_max = rows["themis"]["max_fairness"]
    for name in ("slaq", "tiresias"):
        assert themis_max <= rows[name]["max_fairness"] * 1.05, name

    # Figure 5b shape: Themis' Jain index is at or near the top.
    best_jain = max(row["jain_index"] for row in figure.rows)
    assert rows["themis"]["jain_index"] >= best_jain - 0.05

    # Figure 6 shape: Themis' average JCT beats the placement-blind
    # schedulers.
    assert rows["themis"]["avg_jct"] <= rows["tiresias"]["avg_jct"] * 1.05
    assert rows["themis"]["avg_jct"] <= rows["slaq"]["avg_jct"] * 1.05

    # Figure 7 shape: placement-aware schedulers (Themis, Gandiva) pack
    # better than placement-blind ones (Tiresias, SLAQ).
    for aware in ("themis", "gandiva"):
        for blind in ("tiresias", "slaq"):
            assert (
                rows[aware]["mean_placement_score"]
                > rows[blind]["mean_placement_score"]
            ), (aware, blind)

    # Efficiency: Themis uses no more GPU time than the blind schedulers.
    assert rows["themis"]["gpu_time"] <= rows["tiresias"]["gpu_time"] * 1.02
