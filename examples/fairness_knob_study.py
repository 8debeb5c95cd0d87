#!/usr/bin/env python3
"""The fairness knob f: trading short-term efficiency for fairness.

Sweeps Themis' fairness knob over a contended 256-GPU cluster (the
registry's Figure 4a/4b experiment on a smaller scenario and a coarser
grid) and prints the trade-off:
higher f restricts resource visibility to the worst-off apps, lowering
the worst finish-time fairness at the cost of GPU time.

Run:  python examples/fairness_knob_study.py   (takes a few minutes)
"""

from repro.experiments.config import sim_scenario
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_figure


def main() -> None:
    scenario = sim_scenario(num_apps=12, seed=2, duration_scale=0.3)
    figure = run_figure("fig04ab", scenario, values=(0.0, 0.4, 0.8, 1.0))
    print(format_figure(figure))
    print(f"\nthe paper's claim: {FIGURES['fig04ab'].claim}")
    rows = figure.rows
    best = min(rows, key=lambda row: row["max_rho"])
    print(
        f"\nmost fair setting here: f={best['fairness_knob']} "
        f"(max rho {best['max_rho']:.2f}); the paper selects f=0.8 as the "
        "knee of this trade-off."
    )


if __name__ == "__main__":
    main()
