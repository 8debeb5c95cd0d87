"""Figure 1: distribution of task durations in the replayed trace."""


def test_fig01_task_duration_cdf(replay_figure):
    figure = replay_figure("fig01")
    rows = {row["percentile"]: row["duration_minutes"] for row in figure.rows}
    # Paper shape: mostly short tasks (median tens of minutes) with a
    # long tail below ~1000 minutes.
    assert 40 <= rows[50] <= 110
    assert rows[99] <= 1000
    assert rows[10] < rows[50] < rows[90]
