"""Phase profiler: context-manager wall timers around engine phases.

``with profiler.phase("auction_solve"): ...`` accumulates wall seconds
and call counts per named phase; the per-run breakdown lands in
``SimulationResult.profile`` (``repro run --profile`` prints it).
Phases nest, so each reports its inclusive time and its *self* time —
inclusive minus the phases opened inside it — and the self times
partition the profiled wall clock.

The default :class:`NullProfiler` hands out one shared no-op context
manager, so unprofiled hot paths pay two cheap calls per phase; the
carve enters its phase unconditionally.  Only the auction's per-move
``rescore`` phase guards on :attr:`PhaseProfiler.enabled` to skip even
that.
"""

from __future__ import annotations

import time


class _PhaseTimer:
    """One timing scope; re-created per ``phase()`` call (re-entrant)."""

    __slots__ = ("_profiler", "_name", "_start", "_nested")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        self._nested = 0.0
        self._profiler._open.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self._start
        open_phases = self._profiler._open
        open_phases.pop()
        if open_phases:
            open_phases[-1]._nested += seconds
        self._profiler._record(self._name, seconds, seconds - self._nested)


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
    ``carve``): ``seconds`` is a phase's inclusive wall time,
    ``self_seconds`` excludes the phases opened inside it, so the self
    times are a disjoint partition of the profiled wall clock.
    """

    enabled = True

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._self_seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        #: Timers entered and not yet exited, outermost first.
        self._open: list[_PhaseTimer] = []

    def phase(self, name: str) -> _PhaseTimer:
        """A context manager timing one scope under ``name``."""
        return _PhaseTimer(self, name)

    def _record(self, name: str, seconds: float, self_seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._self_seconds[name] = self._self_seconds.get(name, 0.0) + self_seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def snapshot(self) -> dict:
        """``{phase: {"seconds", "self_seconds", "calls"}}``, sorted by
        inclusive cost."""
        return {
            name: {
                "seconds": self._seconds[name],
                "self_seconds": self._self_seconds[name],
                "calls": self._calls[name],
            }
            for name in sorted(
                self._seconds, key=lambda n: -self._seconds[n]
            )
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseProfiler(phases={len(self._seconds)})"


class NullProfiler:
    """The do-nothing default; ``phase()`` returns one shared no-op."""

    enabled = False

    def phase(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def snapshot(self) -> dict:
        return {}


#: Shared do-nothing profiler instance (stateless, safe to share).
NULL_PROFILER = NullProfiler()
