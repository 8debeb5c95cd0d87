"""Unit tests for the metrics layer."""

import math

import pytest

from repro.metrics.fairness import distance_from_ideal, jain_index, max_fairness, rho_spread
from repro.metrics.jct import average_jct, cdf, jct_summary, percentile
from repro.metrics.placement import placement_cdf, score_summary
from repro.metrics.timeline import allocation_series, sample_series
from repro.metrics.utilization import gpu_time_total, utilization
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig

from helpers import trace_app, trace_of, uniform_cluster


def test_max_fairness():
    assert max_fairness([1.0, 3.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        max_fairness([])


def test_jain_index_perfect_equality():
    assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)


def test_jain_index_decreases_with_variance():
    equal = jain_index([1.0, 1.0, 1.0, 1.0])
    skewed = jain_index([1.0, 1.0, 1.0, 10.0])
    assert skewed < equal


def test_jain_index_known_value():
    # Two apps, one with everything: (x)^2 / (2 * x^2) = 0.5.
    assert jain_index([0.0, 5.0]) == pytest.approx(0.5)


def test_jain_index_inf_is_zero():
    assert jain_index([1.0, math.inf]) == 0.0


def test_distance_from_ideal():
    assert distance_from_ideal([4.0], contention=4.0) == pytest.approx(0.0)
    assert distance_from_ideal([6.0], contention=4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        distance_from_ideal([1.0], contention=0.0)


def test_rho_spread():
    lo, mid, hi = rho_spread([5.0, 1.0, 3.0])
    assert (lo, mid, hi) == (1.0, 3.0, 5.0)
    lo, mid, hi = rho_spread([1.0, 2.0, 3.0, 4.0])
    assert mid == pytest.approx(2.5)


def test_cdf_points():
    points = cdf([3.0, 1.0, 2.0])
    assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]
    assert cdf([]) == []


def test_percentile_interpolation():
    values = [0.0, 10.0]
    assert percentile(values, 0) == 0.0
    assert percentile(values, 50) == 5.0
    assert percentile(values, 100) == 10.0
    with pytest.raises(ValueError):
        percentile(values, 101)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_average_jct_and_summary():
    times = [10.0, 20.0, 30.0]
    assert average_jct(times) == 20.0
    summary = jct_summary(times)
    assert summary["median"] == 20.0
    assert summary["max"] == 30.0


def test_score_summary():
    summary = score_summary([0.25, 0.5, 1.0, 1.0])
    assert 0.25 <= summary["p10"] <= 0.5
    assert summary["mean"] == pytest.approx(0.6875)
    with pytest.raises(ValueError):
        score_summary([])


def test_placement_cdf_is_cdf():
    assert placement_cdf([1.0, 0.5]) == [(0.5, 0.5), (1.0, 1.0)]


def _timeline_result():
    cluster = uniform_cluster(1)
    trace = trace_of(trace_app("a", 0.0, 20.0))
    return ClusterSimulator(
        cluster=cluster,
        workload=trace,
        scheduler=make_scheduler("fifo"),
        config=SimulationConfig(record_timeline=True),
    ).run()


def test_allocation_series_and_sampling():
    result = _timeline_result()
    series = allocation_series(result, "a")
    assert series[0][1] == 4
    assert series[-1][1] == 0
    sampled = sample_series(series, [0.0, 5.0, 1000.0])
    assert sampled[0] == 4
    assert sampled[-1] == 0


def test_allocation_series_requires_recording():
    result = _timeline_result()
    result.timeline.clear()
    with pytest.raises(ValueError):
        allocation_series(result, "a")


def test_utilization_and_gpu_time():
    result = _timeline_result()
    assert gpu_time_total(result) > 0
    util = utilization(result)
    assert 0.0 < util <= 1.0
