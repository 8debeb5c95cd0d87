"""Shared benchmark fixtures and result recording.

Every figure benchmark replays its entry of
:data:`repro.experiments.figures.FIGURES` — scenario, grid and
schedulers all come from the registry, none is defined here — renders
the table with :func:`repro.experiments.report.format_figure` and
records it under ``benchmarks/results/<figure_id>.txt`` so the
reproduced numbers are inspectable after a ``pytest benchmarks/
--ignore=benchmarks/e2e`` run (pytest captures stdout; the files are
the canonical output).  What the paper reports for each figure is the
registry entry's ``claim``; the assertions here check that shape.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import FigureResult, run_figure
from repro.experiments.report import format_figure

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def replay_figure(benchmark):
    """Replay a registry figure exactly once under pytest-benchmark and
    write its rendered table to benchmarks/results/."""

    def _replay(figure_id: str) -> FigureResult:
        figure = benchmark.pedantic(run_figure, args=(figure_id,), rounds=1, iterations=1)
        text = format_figure(figure)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{figure_id}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")
        return figure

    return _replay
