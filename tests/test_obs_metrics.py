"""Reservoir extraction and the streaming metrics registry.

``ReservoirSeries`` replaced a simulator-private bounded series.  The
extraction must be behaviour-preserving: the retention pattern is
pinned against a verbatim copy of the seed implementation, and a
downsampled simulation's contention/timeline output must equal the
seed thinning of the full-resolution run.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.config import tiny_scenario
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReservoirSeries,
    fragmentation_index,
    percentile_nearest_rank,
)
from repro.schedulers.registry import make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator


class _SeedSeries:
    """The pre-extraction implementation, copied verbatim from the seed
    simulator — the oracle the extracted :class:`ReservoirSeries` must
    match append for append."""

    __slots__ = ("cap", "_stride", "_appends", "_items")

    def __init__(self, cap: int) -> None:
        if cap < 2:
            raise ValueError(f"downsample cap must be >= 2, got {cap}")
        self.cap = cap
        self._stride = 1
        self._appends = 0
        self._items: list = []

    def append(self, item) -> None:
        if self._appends % self._stride == 0:
            self._items.append(item)
            if len(self._items) > self.cap:
                self._items = self._items[::2]
                self._stride *= 2
        self._appends += 1


# ----------------------------------------------------------------------
# Extraction equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cap", (2, 3, 5, 8, 64))
@pytest.mark.parametrize("n", (0, 1, 7, 100, 1000))
def test_retention_matches_the_seed_implementation(cap, n):
    new, seed = ReservoirSeries(cap), _SeedSeries(cap)
    for item in range(n):
        new.append(item)
        seed.append(item)
    assert list(new) == seed._items
    assert new.stride == seed._stride
    assert new.total_appends == seed._appends == n
    assert len(new) <= cap


def test_rejects_degenerate_cap():
    with pytest.raises(ValueError):
        ReservoirSeries(1)


def _sim(downsample, failures=()):
    scenario = tiny_scenario(num_apps=3, seed=3).replace(record_timeline=True)
    simulator = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=make_scheduler("themis"),
        config=replace(scenario.build_sim_config(), downsample=downsample),
    )
    if failures:
        FailureInjector(
            [MachineFailure(machine_id=m, at=at, duration=d) for m, at, d in failures]
        ).install(simulator)
    return simulator


def test_downsampled_run_equals_seed_thinning_of_full_run():
    """Byte-equality of contention/timeline/fragmentation outputs: a
    capped run must retain exactly what the seed thinning keeps of the
    full-resolution sequence."""
    full = _sim(downsample=None).run()
    capped_sim = _sim(downsample=8)
    capped = capped_sim.run()

    for full_seq, capped_seq in (
        (full.contention_samples, capped.contention_samples),
        (full.timeline, capped.timeline),
        (full.fragmentation_samples, capped.fragmentation_samples),
        (full.starvation_samples, capped.starvation_samples),
    ):
        assert len(full_seq) > 8, "scenario too small to exercise thinning"
        oracle = _SeedSeries(8)
        for item in full_seq:
            oracle.append(item)
        assert json.dumps(capped_seq) == json.dumps(oracle._items)
        assert len(capped_seq) <= 8


def test_stride_grows_under_failure_injection():
    """Failures lengthen the run (extra rounds, machines flapping); the
    reservoir must keep thinning instead of growing."""
    simulator = _sim(downsample=4, failures=((0, 20.0, 30.0), (3, 45.0, 60.0)))
    result = simulator.run()
    frag = simulator._frag_series
    assert isinstance(frag, ReservoirSeries)
    assert frag.stride > 1
    assert frag.total_appends == result.num_rounds
    assert len(result.fragmentation_samples) <= 4
    assert len(result.starvation_samples) <= 4


# ----------------------------------------------------------------------
# merge()
# ----------------------------------------------------------------------
def test_merge_interleaves_two_series_by_time():
    left, right = ReservoirSeries(64), ReservoirSeries(32)
    left.extend((float(t), "L") for t in range(0, 20, 2))
    right.extend((float(t), "R") for t in range(1, 20, 2))
    merged = ReservoirSeries.merge([left, right])
    assert merged.cap == 32  # defaults to the smallest input cap
    times = [t for t, _ in merged]
    assert times == sorted(times)
    assert list(merged) == sorted(list(left) + list(right))


def test_merge_respects_explicit_cap_and_key():
    a, b = ReservoirSeries(100), ReservoirSeries(100)
    a.extend({"t": float(t)} for t in range(0, 50, 2))
    b.extend({"t": float(t)} for t in range(1, 50, 2))
    merged = ReservoirSeries.merge([a, b], cap=8, key=lambda item: item["t"])
    assert merged.cap == 8 and len(merged) <= 8
    assert merged.total_appends == len(a) + len(b)
    times = [item["t"] for item in merged]
    assert times == sorted(times)


def test_merge_of_nothing_raises():
    with pytest.raises(ValueError):
        ReservoirSeries.merge([])


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    assert percentile_nearest_rank([], 0.99) == 0.0
    assert percentile_nearest_rank([7.0], 0.5) == 7.0
    values = list(range(1, 101))
    assert percentile_nearest_rank(values, 0.50) == 50
    assert percentile_nearest_rank(values, 0.99) == 99
    assert percentile_nearest_rank(values, 1.0) == 100
    with pytest.raises(ValueError):
        percentile_nearest_rank(values, 1.5)


def test_counter_and_gauge():
    counter = Counter("rounds")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = Gauge("pool")
    gauge.set(3.5)
    assert gauge.value == 3.5


def test_histogram_snapshot():
    histogram = Histogram("latency", cap=16)
    assert histogram.snapshot()["count"] == 0
    assert histogram.snapshot()["p99"] is None
    for value in range(1, 11):
        histogram.observe(float(value))
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 10
    assert snapshot["min"] == 1.0 and snapshot["max"] == 10.0
    assert snapshot["mean"] == pytest.approx(5.5)
    assert snapshot["p50"] == 5.0
    assert histogram.percentile(1.0) == 10.0


def test_registry_names_and_bounds_instruments():
    registry = MetricsRegistry(downsample=4)
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("y") is registry.gauge("y")
    assert registry.histogram("z") is registry.histogram("z")
    series = registry.series("s")
    assert isinstance(series, ReservoirSeries)
    series.extend(range(100))
    assert len(series) <= 4

    unbounded = MetricsRegistry(downsample=None).series("s")
    assert isinstance(unbounded, list)

    with pytest.raises(ValueError):
        MetricsRegistry(downsample=1)

    registry.counter("x").inc()
    registry.histogram("z").observe(1.0)
    json.dumps(registry.snapshot())  # snapshot must be pure JSON
    assert registry.snapshot()["counters"] == {"x": 1}


def test_fragmentation_index():
    assert fragmentation_index([]) == 0.0
    assert fragmentation_index([0, 0]) == 0.0
    assert fragmentation_index([4]) == 0.0  # concentrated
    assert fragmentation_index([2, 2]) == pytest.approx(0.5)
    assert fragmentation_index([1, 1, 1, 1]) == pytest.approx(0.75)
    assert fragmentation_index([3, 1]) == pytest.approx(1 - (9 + 1) / 16)
