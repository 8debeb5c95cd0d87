"""Golden regression tests: deterministic end-to-end numbers.

Determinism is a feature of this reproduction (seeded RNG streams,
ordered event heap, sorted tie-breaks everywhere), so a fixed scenario
must produce identical metrics on every run and platform.  These tests
pin a small scenario's headline numbers loosely enough to survive
legitimate algorithmic tuning (they assert ranges, not exact floats)
while catching accidental nondeterminism or drastic behaviour drift.
"""

from repro.experiments.config import tiny_scenario
from repro.experiments.figures import compare_schedulers
from repro.experiments.runner import run_scenario
from repro.metrics.fairness import jain_index, max_fairness


SCENARIO = tiny_scenario(num_apps=5, seed=123)


def test_run_is_bit_deterministic():
    a = run_scenario(SCENARIO, "themis")
    b = run_scenario(SCENARIO, "themis")
    assert a.rhos() == b.rhos()
    assert a.makespan == b.makespan
    assert a.total_gpu_time == b.total_gpu_time
    assert a.num_rounds == b.num_rounds


def test_event_counts_are_stable():
    result = run_scenario(SCENARIO, "themis")
    # Loose band: catches runaway auction loops and event storms.
    assert 10 <= result.num_rounds <= 2000
    assert result.events_processed < 50_000


def test_headline_metrics_in_expected_band():
    result = run_scenario(SCENARIO, "themis")
    assert result.completed
    rhos = result.rhos()
    assert 1.0 <= max_fairness(rhos) <= 5.0
    assert jain_index(rhos) >= 0.6


def test_all_schedulers_deterministic_together():
    first = {
        name: res.rhos()
        for name, res in compare_schedulers(SCENARIO, ("themis", "tiresias", "fifo")).items()
    }
    second = {
        name: res.rhos()
        for name, res in compare_schedulers(SCENARIO, ("themis", "tiresias", "fifo")).items()
    }
    assert first == second


def test_different_seeds_give_different_workloads():
    a = run_scenario(tiny_scenario(num_apps=5, seed=1), "fifo")
    b = run_scenario(tiny_scenario(num_apps=5, seed=2), "fifo")
    assert a.rhos() != b.rhos()
