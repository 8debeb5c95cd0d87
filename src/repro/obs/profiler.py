"""Phase profiler: context-manager wall timers around engine phases.

``with profiler.phase("auction_solve"): ...`` accumulates wall seconds
and call counts per named phase; the per-run breakdown lands in
``SimulationResult.profile`` and in ``repro bench sim`` output, giving
the "raw-speed wall" ROADMAP item per-phase attribution.

The default :class:`NullProfiler` hands out one shared no-op context
manager, so unprofiled hot paths pay two cheap calls per phase — and
the innermost kernels (the carve) additionally guard on
:attr:`PhaseProfiler.enabled` to skip even that.
"""

from __future__ import annotations

import time

#: Engine phases instrumented out of the box (informational; the
#: profiler accepts any name).
KNOWN_PHASES = (
    "advance",
    "metrics",
    "assign",
    "valuation",
    "carve",
    "auction_solve",
    "rescore",
    "payment_resolves",
    "leftovers",
    "placement",
    "migration",
)


class _PhaseTimer:
    """One timing scope; re-created per ``phase()`` call (re-entrant)."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._record(self._name, time.perf_counter() - self._start)


class _NullTimer:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_TIMER = _NullTimer()


class PhaseProfiler:
    """Accumulates wall seconds and call counts per named phase.

    Phases may nest (``assign`` contains ``valuation`` contains
    ``carve``); each accumulates its own inclusive wall time, so the
    snapshot is an attribution aid, not a disjoint partition.
    """

    enabled = True

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    def phase(self, name: str) -> _PhaseTimer:
        """A context manager timing one scope under ``name``."""
        return _PhaseTimer(self, name)

    def _record(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def snapshot(self) -> dict:
        """``{phase: {"seconds": ..., "calls": ...}}``, sorted by cost."""
        return {
            name: {"seconds": self._seconds[name], "calls": self._calls[name]}
            for name in sorted(
                self._seconds, key=lambda n: -self._seconds[n]
            )
        }

    def total_seconds(self) -> float:
        """Sum of all phase wall times (phases nest, so this can exceed
        the run's wall time)."""
        return sum(self._seconds.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseProfiler(phases={len(self._seconds)})"


class NullProfiler:
    """The do-nothing default; ``phase()`` returns one shared no-op."""

    enabled = False

    def phase(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def snapshot(self) -> dict:
        return {}

    def total_seconds(self) -> float:
        return 0.0


#: Shared do-nothing profiler instance (stateless, safe to share).
NULL_PROFILER = NullProfiler()
