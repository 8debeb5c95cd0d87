"""Bounded per-round recording (the ``downsample`` knob)."""

import pytest

from repro.experiments.config import testbed_scenario as _testbed_scenario
from repro.experiments.config import tiny_scenario
from repro.experiments.runner import run_scenario
from repro.metrics import multi_bidder_auctions
from repro.obs.reservoir import ReservoirSeries
from repro.simulation.simulator import SimulationConfig


def test_series_respects_cap_at_any_length():
    for cap in (2, 3, 8, 50):
        series = ReservoirSeries(cap)
        for i in range(1000):
            series.append(i)
            assert len(series) <= cap
        assert len(series) >= cap // 2  # decimation never empties it


def test_series_keeps_every_strideth_append():
    series = ReservoirSeries(4)
    for i in range(16):
        series.append(i)
    items = list(series)
    assert items[0] == 0
    strides = {b - a for a, b in zip(items, items[1:])}
    assert len(strides) == 1  # evenly thinned, not truncated


def test_series_below_cap_keeps_everything():
    series = ReservoirSeries(100)
    for i in range(50):
        series.append(i)
    assert list(series) == list(range(50))


def test_series_rejects_degenerate_cap():
    with pytest.raises(ValueError):
        ReservoirSeries(1)


def test_config_validates_downsample():
    with pytest.raises(ValueError):
        SimulationConfig(downsample=1)
    assert SimulationConfig(downsample=16).downsample == 16


def test_config_json_round_trip_with_downsample():
    config = SimulationConfig(downsample=32)
    assert SimulationConfig.from_json(config.to_json()) == config


def test_bounded_run_stays_within_cap_and_metrics_match():
    scenario = tiny_scenario(num_apps=4, seed=5).replace(record_timeline=True)
    unbounded = run_scenario(scenario, "themis")
    cap = 16
    assert len(unbounded.contention_samples) > cap  # knob actually bites
    bounded = run_scenario(scenario.replace(downsample=cap), "themis")
    assert len(bounded.contention_samples) <= cap
    assert len(bounded.timeline) <= cap
    # Recording granularity must not perturb the simulation itself.
    assert bounded.rhos() == unbounded.rhos()
    assert bounded.makespan == unbounded.makespan
    assert bounded.num_rounds == unbounded.num_rounds
    # Retained samples are a subsequence of the unbounded record.
    it = iter(unbounded.contention_samples)
    assert all(sample in it for sample in bounded.contention_samples)


@pytest.mark.parametrize(
    "apps, interarrival, expected",
    [(12, 1.0, (0, 39)), (20, 0.5, (33, 56))],
)
def test_multi_bidder_count_ignores_downsample(apps, interarrival, expected):
    """The count reads every auction, not the thinned ``per_round`` rows."""
    scenario = _testbed_scenario(
        num_apps=apps, seed=3, duration_scale=0.05
    ).with_generator(
        mean_interarrival_minutes=interarrival,
        jobs_per_app_median=2,
        jobs_per_app_max=4,
    )
    full = run_scenario(scenario, "themis")
    thinned = run_scenario(scenario.replace(downsample=8), "themis")
    assert len(thinned.round_stats["per_round"]) <= 8
    assert multi_bidder_auctions(full) == multi_bidder_auctions(thinned) == expected


def test_series_stride_doubles_on_each_decimation():
    series = ReservoirSeries(4)
    assert series._stride == 1
    for i in range(5):  # fifth append overflows the cap of 4
        series.append(i)
    assert series._stride == 2
    for i in range(5, 16):  # grows past 4 retained stride-2 items
        series.append(i)
    assert series._stride == 4
    # Retained items are exactly every stride-th append, from zero.
    assert all(item % series._stride == 0 for item in series)


def test_series_len_and_iter_protocols():
    series = ReservoirSeries(8)
    assert len(series) == 0
    assert list(series) == []
    for i in range(6):
        series.append(i)
    assert len(series) == 6
    assert list(series) == [0, 1, 2, 3, 4, 5]
    assert [item for item in series] == list(series)  # iteration is repeatable


def test_series_cap_invariant_under_many_appends():
    for cap in (2, 5, 16):
        series = ReservoirSeries(cap)
        for i in range(10_000):
            series.append((i, float(i)))  # tuple payloads survive intact
            assert len(series) <= cap
        items = list(series)
        assert items[0] == (0, 0.0)
        assert all(isinstance(item, tuple) for item in items)
