#!/usr/bin/env python3
"""Scheduler shoot-out: Themis vs Gandiva vs SLAQ vs Tiresias.

Replays the same workload under the paper's four schedulers (Section
8.3's macrobenchmark) plus the Section-4 strawman, and prints the
comparison table of Figures 5-7: max finish-time fairness, Jain's
index, average completion time, placement score and GPU time.

Run:  python examples/scheduler_comparison.py
"""

from repro.experiments.config import testbed_scenario
from repro.experiments.figures import PAPER_SCHEDULERS, run_figure
from repro.experiments.report import format_figure


def main() -> None:
    scenario = testbed_scenario(num_apps=16, seed=3)
    print(f"scenario: {scenario.name} on a 50-GPU testbed cluster\n")
    figure = run_figure(
        "fig05-07", scenario, schedulers=(*PAPER_SCHEDULERS, "strawman")
    )
    print(format_figure(figure))
    print(
        "\nreading guide: lower max_fairness and higher jain_index are "
        "fairer;\nlower gpu_time is more efficient; placement scores near "
        "1.0 mean tight packing."
    )


if __name__ == "__main__":
    main()
