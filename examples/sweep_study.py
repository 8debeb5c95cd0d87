#!/usr/bin/env python3
"""Orchestrating a scheduler x seed x knob matrix with repro.sweep.

Reproducing a figure of the paper means running the same trace under
many schedulers and knob settings.  This study concatenates two
matrices — a 2-scheduler x 3-seed comparison and a Themis-only
fairness-knob sweep (12 cells total) — executes them across a worker
pool with a warm content-addressed cache, and reads two columns of the
shared metric table (``repro.metrics.METRICS``) per cell.  (Two
matrices because ``fairness_knob`` is a Themis-specific kwarg: expanded
task lists are plain lists, so heterogeneous studies are just
concatenation.)

The figure registry (``repro.experiments.figures.FIGURES``) is this
same machinery with the paper's own matrices written down; a bare
``SweepMatrix`` like here is for studies the paper does not have.

Run:  python examples/sweep_study.py

The second invocation completes near-instantly: every cell is served
from ``.sweep-cache/`` (delete the directory to recompute).
"""

from repro.experiments.config import testbed_scenario
from repro.metrics import metric_values
from repro.sweep import SweepMatrix, run_sweep

CACHE_DIR = ".sweep-cache"


def main() -> None:
    base = testbed_scenario(num_apps=6)
    comparison = SweepMatrix(
        base=base,
        schedulers=("themis", "tiresias"),
        seeds=(1, 2, 3),
    )
    knob_sweep = SweepMatrix(
        base=base,
        schedulers=("themis",),
        seeds=(1, 2, 3),
        scheduler_axes={"fairness_knob": [0.2, 0.8]},
    )
    tasks = comparison.expand() + knob_sweep.expand()
    print(f"matrix expands to {len(tasks)} cells; cache: {CACHE_DIR}/")

    report = run_sweep(tasks, workers=4, cache=CACHE_DIR, progress=print)
    report.raise_on_failure()

    print()
    print(f"{'cell':<50} {'max_rho':>8} {'jain':>6}")
    for task in tasks:
        row = metric_values(report.result_for(task.task_id), ("max_rho", "jain"))
        print(f"{task.task_id:<50} {row['max_rho']:>8.3f} {row['jain']:>6.3f}")

    print()
    print(report.summary())


if __name__ == "__main__":
    main()
