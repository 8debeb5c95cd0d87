"""Content-addressed on-disk cache of simulation results.

A cell's cache key is the SHA-256 of its canonical task spec (scenario
config + scheduler + scheduler kwargs) combined with a code **schema
version**.  Re-running a figure therefore recomputes only cells whose
inputs changed; bumping :data:`SCHEMA_VERSION` after a
behaviour-changing simulator edit invalidates every stale entry at
once without touching the directory.

Entries are single JSON files (``<key>.json``) written atomically, so a
killed sweep never leaves a truncated entry behind and concurrent
sweeps sharing a directory at worst redo a cell.

The cache also garbage-collects: :meth:`ResultCache.prune` applies
age-, size- and count-bounds (oldest-written entries evicted first) and
sweeps orphaned temp files; ``repro cache`` exposes inspect/prune on
the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.simulation.simulator import SimulationResult
from repro.sweep.matrix import SweepTask, canonical_json

#: Bump whenever simulator/scheduler semantics change in a way that
#: alters results for identical configs — it invalidates all entries.
#: 2: heterogeneity-aware cluster model (GPU generations; per-type
#:    stats added to SimulationResult/AppStats; ScenarioConfig gained
#:    ``gpu_mix``, GeneratorConfig the gpu-type-affinity knobs).
#: 3: pluggable performance model (per-family x per-generation
#:    throughput matrices; ``num_migrations`` added to
#:    SimulationResult, ``migration`` knobs to SimulationConfig,
#:    ``perf_matrix`` to ScenarioConfig/GeneratorConfig/Trace).
#: 4: observability (SimulationResult gained fragmentation/starvation
#:    series, ``profile`` and ``round_stats``; AppStats gained
#:    ``starved_rounds_max``) — older payloads lack the new fields.
SCHEMA_VERSION = 4

#: Orphaned ``.tmp-*`` files from a killed writer older than this are
#: swept by :meth:`ResultCache.prune`.
_TMP_MAX_AGE_SECONDS = 3600.0


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one on-disk cache entry (payload not loaded)."""

    path: Path
    key: str
    size_bytes: int
    modified: float

    def describe(self) -> dict:
        """Read the entry's header fields (task id, scheduler, schema).

        Returns an empty dict for corrupt/unreadable entries instead of
        raising — inspect must work on directories a killed sweep left
        behind.
        """
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
            return {
                "task_id": entry.get("task_id"),
                "schema_version": entry.get("schema_version"),
                "scheduler": entry.get("spec", {}).get("scheduler"),
            }
        except (OSError, ValueError):
            return {}


@dataclass(frozen=True)
class PruneStats:
    """What one :meth:`ResultCache.prune` call did."""

    removed: int
    kept: int
    bytes_freed: int
    tmp_removed: int = 0


class ResultCache:
    """Directory of content-addressed :class:`SimulationResult` payloads.

    ``hits`` / ``misses`` / ``writes`` counters make cache behaviour
    observable (and testable) without instrumenting the executor.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def key_for(self, task: SweepTask) -> str:
        """Stable content hash of (task spec, schema version)."""
        material = canonical_json(
            {"schema_version": self.schema_version, "spec": task.spec()}
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, task: SweepTask) -> Path:
        """Where the entry for ``task`` lives (whether or not it exists)."""
        return self.cache_dir / f"{self.key_for(task)}.json"

    def load(self, task: SweepTask) -> Optional[SimulationResult]:
        """Return the cached result for ``task``, or ``None`` on a miss.

        Corrupt, unreadable or schema-mismatched entries count as
        misses — the executor will recompute and overwrite them.
        """
        path = self.path_for(task)
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("schema_version") != self.schema_version:
                raise ValueError("schema version mismatch")
            result = SimulationResult.from_json(entry["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, task: SweepTask, result: SimulationResult) -> Path:
        """Atomically persist ``result`` under the task's content key."""
        path = self.path_for(task)
        entry = {
            "schema_version": self.schema_version,
            "task_id": task.task_id,
            "spec": task.spec(),
            "result": result.to_json(),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    # ------------------------------------------------------------------
    # Inspection and garbage collection
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        """All entries, oldest (least recently written) first."""
        found: list[CacheEntry] = []
        for path in self.cache_dir.glob("*.json"):
            if path.name.startswith("."):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted by a concurrent prune
            found.append(
                CacheEntry(
                    path=path,
                    key=path.stem,
                    size_bytes=stat.st_size,
                    modified=stat.st_mtime,
                )
            )
        found.sort(key=lambda entry: (entry.modified, entry.key))
        return found

    def prune(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> PruneStats:
        """Age- and size-bounded garbage collection.

        Entries older than ``max_age_seconds`` are dropped first; then,
        while the directory exceeds ``max_total_bytes`` or
        ``max_entries``, the oldest surviving entries go — eviction is
        strictly oldest-written-first, so a warm sweep's fresh cells
        survive a bound that evicts last month's.  Orphaned ``.tmp-*``
        files from killed writers are swept too.  All bounds are
        optional; with none given only the tmp sweep runs.
        """
        for label, bound in (
            ("max_age_seconds", max_age_seconds),
            ("max_total_bytes", max_total_bytes),
            ("max_entries", max_entries),
        ):
            if bound is not None and bound < 0:
                raise ValueError(f"{label} must be >= 0, got {bound}")
        clock = time.time() if now is None else now
        entries = self.entries()
        removed = 0
        bytes_freed = 0

        def drop(entry: CacheEntry) -> None:
            nonlocal removed, bytes_freed
            try:
                entry.path.unlink()
            except OSError:
                return  # already gone: a concurrent prune won the race
            removed += 1
            bytes_freed += entry.size_bytes

        survivors: list[CacheEntry] = []
        for entry in entries:
            if (
                max_age_seconds is not None
                and clock - entry.modified > max_age_seconds
            ):
                drop(entry)
            else:
                survivors.append(entry)
        if max_entries is not None:
            while len(survivors) > max_entries:
                drop(survivors.pop(0))
        if max_total_bytes is not None:
            total = sum(entry.size_bytes for entry in survivors)
            while survivors and total > max_total_bytes:
                oldest = survivors.pop(0)
                total -= oldest.size_bytes
                drop(oldest)
        tmp_removed = 0
        for path in self.cache_dir.glob(".tmp-*"):
            try:
                if clock - path.stat().st_mtime > _TMP_MAX_AGE_SECONDS:
                    path.unlink()
                    tmp_removed += 1
            except OSError:
                continue
        return PruneStats(
            removed=removed,
            kept=len(survivors),
            bytes_freed=bytes_freed,
            tmp_removed=tmp_removed,
        )

    def __len__(self) -> int:
        # glob("*.json") also matches dot-prefixed names, which would
        # count orphaned .tmp-* files from a killed writer as entries.
        return sum(
            1 for p in self.cache_dir.glob("*.json") if not p.name.startswith(".")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache({str(self.cache_dir)!r}, schema={self.schema_version}, "
            f"hits={self.hits}, misses={self.misses}, writes={self.writes})"
        )
