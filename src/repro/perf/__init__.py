"""Performance benchmarking: the ``repro bench sim`` macro-benchmark.

:mod:`repro.perf.bench` replays whole traces untraced and traced and
produces the ``BENCH_sim.json`` payload whose result digests, tracing
overhead and per-move solver work the CI guard checks.
"""

from repro.perf.bench import (
    SIM_PROFILES,
    SimBenchProfile,
    check_sim_regression,
    run_sim_bench,
    run_sim_suite,
)

__all__ = [
    "SIM_PROFILES",
    "SimBenchProfile",
    "check_sim_regression",
    "run_sim_bench",
    "run_sim_suite",
]
