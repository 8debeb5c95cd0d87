"""repro.obs — observability for the whole engine.

Two instruments, threaded through simulator, arbiter, auction,
leases, migration and every baseline:

* **structured event tracing** (:mod:`repro.obs.tracer`) — typed,
  schema-versioned decision events into a ring buffer or a JSONL file;
  the default :class:`~repro.obs.tracer.NullTracer` is proven
  zero-overhead (traced and untraced replays share one result digest,
  ``tests/test_replay_gates.py``),
* a **phase profiler** (:mod:`repro.obs.profiler`) — context-manager
  wall timers whose per-phase breakdown (inclusive and self time)
  lands in ``SimulationResult.profile``.

Beside them, :mod:`repro.obs.metrics` defines the two per-round
series every run records — fragmentation and starvation — and
:mod:`repro.obs.reservoir` the bounded
:class:`~repro.obs.reservoir.ReservoirSeries` every per-round record
is kept in.

:class:`Observability` bundles a tracer and a profiler for one run;
:class:`ObsConfig` is its picklable description, so sweep workers can
materialise per-task observability in their own process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.obs.metrics import fragmentation_index, percentile_nearest_rank
from repro.obs.profiler import NULL_PROFILER, NullProfiler, PhaseProfiler
from repro.obs.reservoir import ReservoirSeries
from repro.obs.tracer import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    NullTracer,
    RingTracer,
    TraceError,
    Tracer,
    filter_events,
    read_trace,
    summarize_events,
    validate_events,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "JsonlTracer",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "ObsConfig",
    "Observability",
    "PhaseProfiler",
    "ReservoirSeries",
    "RingTracer",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "Tracer",
    "filter_events",
    "fragmentation_index",
    "percentile_nearest_rank",
    "read_trace",
    "summarize_events",
    "validate_events",
]


class Observability:
    """One run's live observability bundle: a tracer plus a profiler.

    Defaults to the zero-overhead null instruments; pass one or both to
    turn them on.  :meth:`close` flushes file-backed tracers.
    """

    __slots__ = ("tracer", "profiler")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        profiler: Optional[Union[PhaseProfiler, NullProfiler]] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def close(self) -> None:
        self.tracer.close()


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability spec; :meth:`build` makes it live.

    Carried on :class:`~repro.sweep.matrix.SweepTask` cells (excluded
    from cache fingerprints — observability never changes results) and
    materialised inside the worker process, where the trace file must
    actually be opened.
    """

    #: JSONL trace destination; None disables file tracing.
    trace_path: Optional[str] = None
    #: Event kinds to keep (empty = all kinds).
    trace_events: tuple[str, ...] = ()
    #: Collect the per-phase profile into ``SimulationResult.profile``.
    profile: bool = False

    def build(self) -> Observability:
        """Materialise the live bundle (opens the trace file, if any)."""
        tracer: Optional[Tracer] = None
        if self.trace_path is not None:
            tracer = JsonlTracer(self.trace_path, events=self.trace_events or None)
        profiler = PhaseProfiler() if self.profile else None
        return Observability(tracer=tracer, profiler=profiler)
