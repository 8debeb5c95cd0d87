"""The bounded series and the two per-round metrics.

``ReservoirSeries`` replaced a simulator-private bounded series.  The
extraction must be behaviour-preserving: the retention pattern is
pinned against a verbatim copy of the seed implementation (``cap=None``
against a plain list), and a downsampled simulation's per-round series
must equal the seed thinning of the full-resolution run.
"""

import json

import pytest

from repro.experiments.config import tiny_scenario
from repro.obs.metrics import fragmentation_index, percentile_nearest_rank
from repro.obs.reservoir import ReservoirSeries

from helpers import simulator


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
@pytest.mark.parametrize("cap", (None, 2, 3, 5, 8, 64))
@pytest.mark.parametrize("n", (0, 1, 7, 100, 1000))
def test_retention_matches_the_seed_implementation(cap, n):
    new = ReservoirSeries(cap)
    new.extend(range(n))
    if cap is None:  # the seed kept a plain list when nothing capped it
        expected, stride = list(range(n)), 1
    else:
        seed = _SeedSeries(cap)
        for item in range(n):
            seed.append(item)
        expected, stride = seed._items, seed._stride
        assert len(new) <= cap
    assert list(new) == expected
    assert new._stride == stride
    assert new._appends == n


def test_rejects_degenerate_cap():
    with pytest.raises(ValueError):
        ReservoirSeries(1)


def _sim(downsample, failures=()):
    scenario = tiny_scenario(num_apps=3, seed=3).replace(
        record_timeline=True, downsample=downsample
    )
    return simulator(scenario, failures=failures)


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
    sim = _sim(downsample=4, failures=((0, 20.0, 30.0), (3, 45.0, 60.0)))
    result = sim.run()
    frag = sim._frag_series
    assert isinstance(frag, ReservoirSeries)
    assert frag._stride > 1
    assert frag._appends == result.num_rounds
    assert len(result.fragmentation_samples) <= 4
    assert len(result.starvation_samples) <= 4


# ----------------------------------------------------------------------
# The per-round metrics
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    assert percentile_nearest_rank([], 0.99) == 0.0
    assert percentile_nearest_rank([7.0], 0.5) == 7.0
    values = list(range(1, 101))
    assert percentile_nearest_rank(values, 0.50) == 50
    assert percentile_nearest_rank(values, 0.99) == 99
    assert percentile_nearest_rank(values, 1.0) == 100
    # The rank rounds up: the median of three is the second value.
    assert percentile_nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile_nearest_rank([1.0, 2.0, 3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        percentile_nearest_rank(values, 1.5)


def test_fragmentation_index():
    assert fragmentation_index([]) == 0.0
    assert fragmentation_index([0, 0]) == 0.0
    assert fragmentation_index([4]) == 0.0  # concentrated
    assert fragmentation_index([2, 2]) == pytest.approx(0.5)
    assert fragmentation_index([1, 1, 1, 1]) == pytest.approx(0.75)
    assert fragmentation_index([3, 1]) == pytest.approx(1 - (9 + 1) / 16)
