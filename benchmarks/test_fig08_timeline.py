"""Figure 8: GPU allocation timeline for a short and a long app."""

from repro.metrics.timeline import sample_series


def test_fig08_timeline(replay_figure):
    figure = replay_figure("fig08")
    rows = {row["app"]: row for row in figure.rows}
    # The short app is preferentially completed...
    assert rows["short-app"]["finished_at"] < rows["long-app"]["finished_at"]
    # ...without starving the long app (bounded rho, it completes).
    assert rows["long-app"]["completion_time"] is not None
    assert rows["long-app"]["rho"] < 6.0

    # The long app is displaced at some point (new arrivals win) but
    # holds GPUs again afterwards — the lease-expiry recovery dynamics.
    series = figure.series["long_app"]
    finished = rows["long-app"]["finished_at"]
    probes = [t for t in range(40, int(finished), 5)]
    values = sample_series(series, [float(t) for t in probes])
    assert 0 in values  # displaced at least once
    assert values[-1] > 0 or values[-2] > 0  # holding GPUs near the end
