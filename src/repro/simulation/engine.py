"""Event-heap core of the discrete-event simulator.

The engine is a classic calendar queue built on :mod:`heapq`.  Three design
points matter for the Themis reproduction:

* **Deterministic ordering.**  Events are ordered by ``(time, priority,
  sequence)``.  The sequence number is a monotonically increasing integer,
  so two events scheduled for the same instant always fire in the order
  they were scheduled.  Experiments are therefore bit-reproducible for a
  given seed.  The heap holds plain ``(time, kind, seq, event)`` tuples:
  ``seq`` is unique, so a comparison never reaches the event.

* **Lazy cancellation.**  Job-completion events are invalidated whenever a
  job's GPU allocation changes.  Rather than rebuilding the heap, cancelled
  events carry a flag and are skipped on pop.  This is the standard
  approach for simulators with frequently rescheduled completions.

* **Priorities.**  Within one instant, resource-releasing events (job
  finish, lease expiry) must run before the auction that redistributes the
  freed GPUs.  The :class:`EventKind` enum encodes that ordering.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the engine is driven incorrectly (e.g. scheduling in the past)."""


class EventKind(enum.IntEnum):
    """Event categories, ordered by same-instant execution priority.

    Lower values run first when several events share a timestamp.  The
    ordering encodes the scheduler contract: arrivals and completions
    mutate cluster state, lease expiries release GPUs, and only then does
    an auction observe the fully updated pool.
    """

    APP_ARRIVAL = 0
    JOB_FINISH = 1
    LEASE_EXPIRY = 2
    AUCTION = 3
    GENERIC = 4


@dataclass
class Event:
    """A scheduled callback.

    Instances are returned by :meth:`SimulationEngine.schedule` and act as
    handles: callers keep them to :meth:`SimulationEngine.cancel` the event
    later.  ``cancelled`` is public but should only be mutated through the
    engine so accounting stays correct.
    """

    time: float
    kind: EventKind
    callback: Callable[["SimulationEngine", "Event"], None]
    label: str = ""
    cancelled: bool = False
    seq: int = field(default=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, kind={self.kind.name}, label={self.label!r}, {state})"


class SimulationEngine:
    """Minimal deterministic discrete-event loop.

    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(5.0, lambda eng, ev: fired.append(eng.now))
    >>> engine.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (minutes in all Themis experiments)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks actually executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the heap."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None`` if idle."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[["SimulationEngine", Event], None],
        kind: EventKind = EventKind.GENERIC,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire at absolute simulation ``time``.

        Scheduling strictly in the past is an error; scheduling at the
        current instant is allowed and fires within the current
        :meth:`run` sweep (after all currently executing callbacks).
        """
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}, clock already at t={self._now:.6f}"
            )
        event = Event(time=max(time, self._now), kind=kind, callback=callback, label=label)
        event.seq = next(self._seq)
        heapq.heappush(self._heap, (event.time, int(kind), event.seq, event))
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns ``False`` if already fired/cancelled."""
        if event.cancelled:
            return False
        event.cancelled = True
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the single next live event.  Returns ``False`` when idle."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            if event.time < self._now - 1e-9:
                raise SimulationError("event heap produced an event in the past")
            self._now = max(self._now, event.time)
            event.cancelled = True  # an event fires exactly once
            self._events_processed += 1
            event.callback(self, event)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the heap, optionally bounded by time or event count.

        ``until`` is inclusive: events stamped exactly ``until`` still fire.
        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("SimulationEngine.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until + 1e-9:
                    self._now = until
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
        return executed
