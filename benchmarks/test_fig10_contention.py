"""Figure 10: Jain's fairness index under growing cluster contention."""


def test_fig10_contention(replay_figure):
    figure = replay_figure("fig10")
    rows = {row["contention_factor"]: row for row in figure.rows}

    # Paper shape: at every contention level Themis' Jain index is at
    # least competitive with Tiresias, and at high contention (4X) the
    # gap favours Themis.
    for factor in (1.0, 2.0, 4.0):
        assert rows[factor]["jain:themis"] >= rows[factor]["jain:tiresias"] - 0.06
    assert rows[4.0]["jain:themis"] >= rows[4.0]["jain:tiresias"]
    # Fairness degrades (or at best holds) as contention rises.
    assert rows[4.0]["jain:themis"] <= rows[1.0]["jain:themis"] + 0.05
