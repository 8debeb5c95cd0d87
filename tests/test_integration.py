"""Cross-module integration tests: the paper's headline claims in miniature."""

from repro.experiments.config import tiny_scenario
from repro.experiments.figures import compare_schedulers
from repro.experiments.runner import run_scenario
from repro.metrics.fairness import jain_index, max_fairness
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.workload.generator import GeneratorConfig, generate_trace

from helpers import trace_app, trace_of, uniform_cluster


def contended_scenario(seed=11):
    """A placement-heavy, contended scenario where Themis should shine."""
    return tiny_scenario(num_apps=8, seed=seed).with_generator(
        network_intensive_fraction=0.8,
        duration_scale=0.15,
        mean_interarrival_minutes=10.0,
    )


def test_themis_no_worse_than_tiresias_on_max_fairness():
    scenario = contended_scenario()
    results = compare_schedulers(scenario, ["themis", "tiresias"])
    themis = max_fairness(results["themis"].rhos())
    tiresias = max_fairness(results["tiresias"].rhos())
    # Headline claim (Figure 5a), small-scale: Themis is at least
    # competitive; allow a small tolerance for tiny-sample noise.
    assert themis <= tiresias * 1.15


def test_themis_places_better_than_placement_blind_baselines():
    scenario = contended_scenario()
    results = compare_schedulers(scenario, ["themis", "tiresias", "slaq"])
    from repro.metrics.placement import score_summary

    themis_score = score_summary(results["themis"].placement_scores())["mean"]
    tiresias_score = score_summary(results["tiresias"].placement_scores())["mean"]
    slaq_score = score_summary(results["slaq"].placement_scores())["mean"]
    assert themis_score > tiresias_score
    assert themis_score > slaq_score


def test_every_app_finishes_under_every_scheduler():
    """No starvation: finish-time fairness dynamics serve everyone."""
    scenario = contended_scenario()
    for name in ("themis", "gandiva", "slaq", "tiresias", "strawman", "drf", "fifo"):
        result = run_scenario(scenario, name)
        assert result.completed, f"{name} left apps unfinished"


def test_fairness_knob_trades_fairness_for_efficiency():
    """Figure 4's qualitative trade-off on a small contended workload."""
    scenario = contended_scenario(seed=3)
    strict = run_scenario(scenario, "themis", {"fairness_knob": 1.0})
    loose = run_scenario(scenario, "themis", {"fairness_knob": 0.0})
    # Not strictly monotone at this scale, but strict fairness should
    # not be dramatically less fair than the efficiency extreme.
    assert max_fairness(strict.rhos()) <= max_fairness(loose.rhos()) * 1.5


def test_bid_noise_does_not_collapse_fairness():
    """Figure 11's claim: 20% valuation error changes little."""
    scenario = contended_scenario(seed=5)
    exact = run_scenario(scenario, "themis", {"noise_theta": 0.0})
    noisy = run_scenario(scenario, "themis", {"noise_theta": 0.2})
    assert max_fairness(noisy.rhos()) <= max_fairness(exact.rhos()) * 1.6


def test_short_app_favoured_but_long_app_unharmed():
    """Section 6's 'Favoring Short Apps' discussion, end to end."""
    cluster = uniform_cluster(2)

    trace = trace_of(
        trace_app("short", 0.0, 20.0), trace_app("long", 0.0, 60.0), trace_app("mid", 0.0, 40.0)
    )
    result = ClusterSimulator(
        cluster=cluster,
        workload=trace,
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(lease_minutes=10.0),
    ).run()
    assert result.completed
    stats = result.stats_by_app()
    assert stats["short"].finished_at < stats["long"].finished_at
    # Long app keeps a bounded rho (no starvation).
    assert stats["long"].rho < 8.0


def test_hidden_payments_cost_little_efficiency():
    """Ablation: disabling hidden payments should not change results
    dramatically (the paper keeps them for truthfulness, not speed)."""
    scenario = contended_scenario(seed=7)
    with_payments = run_scenario(scenario, "themis", {"hidden_payments": True})
    without = run_scenario(scenario, "themis", {"hidden_payments": False})
    ratio = with_payments.total_gpu_time / without.total_gpu_time
    assert 0.8 <= ratio <= 1.25


def test_higher_contention_worsens_fairness_index():
    base = tiny_scenario(num_apps=6, seed=9).with_generator(duration_scale=0.15)
    relaxed = run_scenario(
        base.with_generator(mean_interarrival_minutes=60.0), "themis"
    )
    contended = run_scenario(
        base.with_generator(mean_interarrival_minutes=5.0), "themis"
    )
    assert jain_index(contended.rhos()) <= jain_index(relaxed.rhos()) + 0.05


def test_generated_trace_runs_on_sim_cluster_themis():
    """Medium end-to-end smoke on the 256-GPU cluster."""
    from repro.cluster.topology import themis_sim_cluster

    trace = generate_trace(
        GeneratorConfig(num_apps=6, seed=13, duration_scale=0.15, jobs_per_app_median=6.0)
    )
    result = ClusterSimulator(
        cluster=themis_sim_cluster(),
        workload=trace,
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(lease_minutes=20.0),
    ).run()
    assert result.completed
    assert max_fairness(result.rhos()) < 20.0
