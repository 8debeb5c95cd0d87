"""Workload model: ML models, jobs, apps, traces and the trace generator.

This package substitutes for the paper's proprietary enterprise trace
(Section 8.1).  :mod:`repro.workload.models` carries a model zoo with
placement-sensitivity profiles shaped after Figure 2;
:mod:`repro.workload.generator` samples synthetic traces matching every
distribution statistic the paper quotes (jobs per app, task durations,
GPU demands, arrival process, sensitive/insensitive mix).
"""

from repro.workload.app import App, AppState
from repro.workload.job import Job, JobState
from repro.workload.models import (
    MODEL_ZOO,
    ModelProfile,
    get_model,
    list_models,
    models_by_family,
    throughput,
)
from repro.workload.perf import (
    PERF_MATRIX_PRESETS,
    ThroughputMatrixModel,
)
from repro.workload.trace import Trace, TraceApp, TraceJob
from repro.workload.generator import GeneratorConfig, generate_trace

__all__ = [
    "App",
    "AppState",
    "GeneratorConfig",
    "Job",
    "JobState",
    "MODEL_ZOO",
    "ModelProfile",
    "PERF_MATRIX_PRESETS",
    "ThroughputMatrixModel",
    "Trace",
    "TraceApp",
    "TraceJob",
    "generate_trace",
    "get_model",
    "list_models",
    "models_by_family",
    "throughput",
]
