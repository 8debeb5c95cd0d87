"""Structured decision tracing: schema-versioned typed event streams.

Every scheduling decision the engine makes — rounds firing, bids
submitted, auction winners, lease lifecycle, migrations, job state
changes — can be captured as a typed event.  Three sinks:

* :class:`NullTracer` — the default; ``enabled`` is False and every
  emit site guards on it, so an untraced run does zero extra work and
  produces byte-identical results (``tests/test_replay_gates.py``
  holds traced and untraced replays to one digest).
* :class:`RingTracer` — last-N events in a bounded in-memory ring.
* :class:`JsonlTracer` — one JSON object per line in a file, preceded
  by a schema-versioned header line; ``repro trace <file>`` filters,
  summarises and validates these artifacts.

The event schema is versioned (:data:`TRACE_SCHEMA_VERSION`) and typed
(:data:`EVENT_SCHEMA` names the required fields per kind);
:func:`validate_events` checks a stream against it.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import IO, Iterable, Mapping, Optional, Sequence

#: Version of the event schema; bumped whenever an event kind is
#: added/removed or a required field changes meaning.
#: v2: added the control-plane kinds ``job_retry`` and
#: ``dispatch_token``.
#: v3: added the worker-fleet kinds ``worker_register``,
#: ``worker_lost`` and ``job_report``.
TRACE_SCHEMA_VERSION = 3

#: The ``kind`` of the header record that opens every JSONL trace.
HEADER_KIND = "trace_header"

#: Required fields per event kind (beyond the envelope ``kind``/``t``).
EVENT_SCHEMA: dict[str, frozenset] = {
    "round_start": frozenset({"round", "pool_gpus", "active_apps"}),
    "apps_filtered": frozenset({"round", "eligible", "participants"}),
    "bid_submitted": frozenset({"round", "app", "rho", "demand"}),
    "auction_win": frozenset({"round", "app", "gpus"}),
    "lease_grant": frozenset({"app", "job", "gpu", "expiry"}),
    "lease_expire": frozenset({"gpu", "app"}),
    "lease_revoke": frozenset({"gpu", "app", "reason"}),
    "migration": frozenset({"app", "job", "from_gpus", "to_gpus", "gain"}),
    "job_state_change": frozenset({"app", "job", "state", "gpus"}),
    "job_retry": frozenset({"job", "attempt", "failure_kind", "delay"}),
    "dispatch_token": frozenset({"job", "epoch", "accepted"}),
    "worker_register": frozenset({"worker", "capacity"}),
    "worker_lost": frozenset({"worker", "reason"}),
    "job_report": frozenset({"job", "accepted", "reason"}),
}

EVENT_KINDS = tuple(sorted(EVENT_SCHEMA))


class TraceError(ValueError):
    """A trace file or event stream is malformed."""


def _normalize_kinds(events: Optional[Iterable[str]]) -> Optional[frozenset]:
    if events is None:
        return None
    kinds = frozenset(events)
    unknown = kinds - set(EVENT_SCHEMA)
    if unknown:
        raise TraceError(
            f"unknown trace event kinds {sorted(unknown)}; "
            f"known: {list(EVENT_KINDS)}"
        )
    return kinds or None


class Tracer:
    """Base sink: counts emits, applies an optional event-kind filter.

    Emit sites must guard on :attr:`enabled` before building the event
    payload — that guard is the whole zero-overhead story of the
    default :class:`NullTracer`.
    """

    enabled = True

    def __init__(self, events: Optional[Iterable[str]] = None) -> None:
        self._kinds = _normalize_kinds(events)
        self.events_written = 0
        #: Current scheduling round, stamped by the simulator at each
        #: round start so every emit site — including the arbiter, which
        #: keeps its own auction-invocation counter — shares one
        #: ``round`` numbering.
        self.round = 0
        self._header: dict = {"kind": HEADER_KIND, "schema": TRACE_SCHEMA_VERSION}

    def set_header(self, **fields) -> None:
        """Attach run metadata (scheduler, cluster, ...) to the stream."""
        self._header.update(fields)

    @property
    def header(self) -> dict:
        return dict(self._header)

    def wants(self, kind: str) -> bool:
        """True when this sink records events of ``kind``."""
        return self._kinds is None or kind in self._kinds

    def emit(self, kind: str, t: float, **fields) -> None:
        """Record one event (dropped when filtered out)."""
        if not self.wants(kind):
            return
        event = {"kind": kind, "t": t}
        event.update(fields)
        self.events_written += 1
        self._write(event)

    def _write(self, event: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""


class NullTracer(Tracer):
    """The do-nothing default; ``enabled`` is False so emit sites skip
    building event payloads entirely."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def emit(self, kind: str, t: float, **fields) -> None:
        pass

    def set_header(self, **fields) -> None:
        pass


#: Shared do-nothing tracer instance (stateless, safe to share).
NULL_TRACER = NullTracer()


class RingTracer(Tracer):
    """Keeps the last ``capacity`` events in memory (oldest dropped)."""

    def __init__(
        self, capacity: int = 65536, events: Optional[Iterable[str]] = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        super().__init__(events)
        self._ring: deque = deque(maxlen=capacity)

    def _write(self, event: dict) -> None:
        self._ring.append(event)

    @property
    def events(self) -> list[dict]:
        """The retained events, oldest first."""
        return list(self._ring)


class JsonlTracer(Tracer):
    """Streams events to ``path`` as JSONL, one schema header line first.

    The header is written lazily (so :meth:`set_header` metadata makes
    it into the file) but always — closing an event-free trace still
    yields a valid single-line file.
    """

    def __init__(self, path: str, events: Optional[Iterable[str]] = None) -> None:
        super().__init__(events)
        self.path = str(path)
        self._fh: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self._header_written = False

    def _ensure_header(self) -> None:
        if not self._header_written and self._fh is not None:
            self._fh.write(json.dumps(self._header) + "\n")
            self._header_written = True

    def _write(self, event: dict) -> None:
        if self._fh is None:
            raise TraceError(f"trace file {self.path!r} is already closed")
        self._ensure_header()
        self._fh.write(json.dumps(event) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._ensure_header()
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Reading / validating / summarising trace artifacts
# ----------------------------------------------------------------------
def read_trace(path: str) -> tuple[dict, list[dict]]:
    """Load a JSONL trace file; returns ``(header, events)``.

    Raises :class:`TraceError` on unparsable lines or a missing header.
    """
    header: Optional[dict] = None
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(f"{path}:{lineno}: invalid JSON ({error})")
            if not isinstance(record, dict):
                raise TraceError(f"{path}:{lineno}: expected a JSON object")
            if record.get("kind") == HEADER_KIND:
                if header is not None:
                    raise TraceError(f"{path}:{lineno}: duplicate trace header")
                header = record
            else:
                events.append(record)
    if header is None:
        raise TraceError(f"{path}: no {HEADER_KIND!r} line found")
    return header, events


def validate_events(
    events: Sequence[Mapping], header: Optional[Mapping] = None
) -> list[str]:
    """Check an event stream against the typed schema.

    Returns human-readable error strings (empty = valid): unknown
    kinds, missing required fields, non-numeric timestamps, time going
    backwards, and an unsupported header schema version.
    """
    errors: list[str] = []
    if header is not None:
        schema = header.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            errors.append(
                f"header: unsupported schema version {schema!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})"
            )
    last_t: Optional[float] = None
    for index, event in enumerate(events):
        where = f"event {index}"
        kind = event.get("kind")
        if kind not in EVENT_SCHEMA:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        t = event.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            errors.append(f"{where} ({kind}): non-numeric timestamp {t!r}")
        else:
            if last_t is not None and t < last_t - 1e-9:
                errors.append(
                    f"{where} ({kind}): time went backwards "
                    f"({t} after {last_t})"
                )
            last_t = float(t)
        missing = EVENT_SCHEMA[kind] - set(event)
        if missing:
            errors.append(
                f"{where} ({kind}): missing fields {sorted(missing)}"
            )
    return errors


def filter_events(
    events: Iterable[Mapping],
    kinds: Optional[Iterable[str]] = None,
    app: Optional[str] = None,
) -> list[dict]:
    """Subset an event stream by kind and/or app id."""
    kind_set = _normalize_kinds(kinds)
    out: list[dict] = []
    for event in events:
        if kind_set is not None and event.get("kind") not in kind_set:
            continue
        if app is not None and event.get("app") != app:
            continue
        out.append(dict(event))
    return out


def summarize_events(events: Sequence[Mapping]) -> dict:
    """Aggregate counts/time-span/app-coverage of an event stream."""
    by_kind = Counter(event.get("kind") for event in events)
    times = [
        event["t"]
        for event in events
        if isinstance(event.get("t"), (int, float))
    ]
    apps = {event["app"] for event in events if "app" in event}
    return {
        "events": len(events),
        "by_kind": dict(sorted(by_kind.items(), key=lambda kv: str(kv[0]))),
        "t_min": min(times) if times else None,
        "t_max": max(times) if times else None,
        "apps": len(apps),
        "rounds": by_kind.get("round_start", 0),
    }
