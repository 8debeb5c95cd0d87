"""The durable store: append-only JSONL WAL, compacted snapshots and a
sealed archive.

Stdlib-only crash safety over three files:

* every state change is one JSON line appended to ``wal.jsonl`` (an
  optional ``fsync`` per append for real durability; tests exercise
  crash points at record granularity, so buffered writes keep the same
  semantics).  A record holds what changed, not the whole object: a job
  transition carries the fields that move set, and replay applies them
  over the prior record,
* every ``compact_every`` records, :meth:`DurableStore.compact` first
  appends the records that can never change again (the plane's jobs
  that turned terminal since the last compaction) to ``sealed.jsonl``,
  one line each, then fsyncs it; next it writes a *snapshot*
  (``snapshot.json``) of everything else atomically (tmp +
  ``os.replace``) and cuts the WAL in place back to its header.  So
  recovery cost is O(recent records) and *compaction* is O(live state
  + records sealed since the last one), not O(history): a finished job
  is encoded once, ever,
* the snapshot carries ``sealed_bytes``, the archive's committed
  length.  Bytes past it belong to a compaction that died before its
  snapshot rename; recovery truncates them (the old snapshot + WAL
  still hold those records) and so does the next compaction before it
  appends.  An archive shorter than ``sealed_bytes``, or garbage inside
  it, is :class:`StoreCorruption`,
* every record carries a monotonically increasing ``seq`` that
  survives compaction, so a crash between the snapshot rename and the
  WAL reset replays no record twice — records at or below the
  snapshot's ``last_seq`` are skipped.

Schema 1 (no archive) reads as schema 2 with ``sealed_bytes`` = 0; a
reader that only knows schema 1 refuses a schema-2 store instead of
silently dropping its archive.

Recovery tolerates a *torn tail*: a partial or garbled final line
(the classic ``kill -9`` mid-write artifact) is dropped and cut off in
place before appends resume, as a failed append cuts its own partial
bytes.  Garbage in the middle of the WAL — valid records after an
invalid line — is real corruption and raises :class:`StoreCorruption`
instead of silently skipping history.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Optional, Union

from repro.service.errors import ServiceError

#: Version of the on-disk WAL/snapshot/archive layout.
STORE_SCHEMA_VERSION = 2

#: Layouts recovery reads: 1 is 2 without an archive.
READABLE_SCHEMAS = frozenset({1, STORE_SCHEMA_VERSION})

#: ``kind`` of the header record opening every WAL file.
WAL_HEADER_KIND = "wal_header"

#: Every record's encoder: ``json.dumps(..., sort_keys=True)`` builds a
#: new one per call, this one is built once and writes the same bytes.
encode = json.JSONEncoder(sort_keys=True).encode

_HEADER = (encode({"kind": WAL_HEADER_KIND, "schema": STORE_SCHEMA_VERSION}) + "\n").encode()


class StoreError(ServiceError):
    """The durable store failed in a way recovery cannot hide."""

    def __init__(self, message: str, reason: str = "store_error") -> None:
        super().__init__(message, reason=reason)


class StoreCorruption(StoreError):
    """Valid records follow garbage — history is untrustworthy."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="store_corruption")


class StoreUnavailable(StoreError):
    """The store cannot accept writes right now (shed, don't crash)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="store_unavailable")


@dataclass
class StoreImage:
    """What recovery reconstructed: archive + snapshot state + WAL records."""

    snapshot: Optional[dict] = None
    records: list = field(default_factory=list)
    sealed: list = field(default_factory=list)  # committed archive records
    last_seq: int = 0
    dropped_tail: int = 0  # torn-tail lines discarded during repair


class DurableStore:
    """Append-only WAL with periodic compacted snapshots under ``root``."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        fsync: bool = False,
        compact_every: int = 1024,
    ) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.root / "wal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self.sealed_path = self.root / "sealed.jsonl"
        self.fsync = bool(fsync)
        self.compact_every = int(compact_every)
        self._fh: Optional[IO[bytes]] = None  # unbuffered: one write per record
        self._wal_bytes = 0  # the WAL's length up to its last whole record
        self._seq = 0
        self._since_snapshot = 0
        self._sealed_bytes = 0  # the archive's committed length
        self.appends = 0  # lifetime append count (chaos crash points key on it)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> StoreImage:
        """Load archive + snapshot + WAL, cut a torn tail and an
        uncommitted archive tail, open for append."""
        image, valid_bytes = self._load()
        self._truncate_uncommitted_seal()
        self._seq = image.last_seq
        self._since_snapshot = len(image.records)
        self._cut(valid_bytes)
        return image

    def _load(self) -> tuple[StoreImage, int]:
        """The image, and the byte length of the WAL's valid prefix."""
        image = StoreImage()
        self._sealed_bytes = 0
        if self.snapshot_path.exists():
            try:
                with open(self.snapshot_path, "r", encoding="utf-8") as fh:
                    snapshot = json.load(fh)
            except (OSError, json.JSONDecodeError) as error:
                raise StoreCorruption(
                    f"snapshot {self.snapshot_path} is unreadable: {error}"
                )
            if snapshot.get("schema") not in READABLE_SCHEMAS:
                raise StoreCorruption(
                    f"snapshot schema {snapshot.get('schema')!r} is not one "
                    f"of {sorted(READABLE_SCHEMAS)}"
                )
            sealed_bytes = snapshot.get("sealed_bytes", 0)
            if type(sealed_bytes) is not int or sealed_bytes < 0:
                raise StoreCorruption(
                    f"snapshot sealed_bytes {sealed_bytes!r} is not a length"
                )
            image.snapshot = snapshot.get("state") or {}
            image.last_seq = int(snapshot.get("last_seq", 0))
            if sealed_bytes:
                image.sealed = self._load_sealed(sealed_bytes)
            self._sealed_bytes = sealed_bytes
        if not self.wal_path.exists():
            return image, 0
        # surrogateescape: torn garbage decodes, fails to parse like any bad
        # line, and encodes back to its bytes, so the valid prefix's length
        # is exact.  What follows the last newline is never a whole record.
        data = self.wal_path.read_bytes()
        lines = data.decode("utf-8", "surrogateescape").split("\n")
        parsed: list[Optional[dict]] = []
        for line in lines[:-1]:
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            parsed.append(record if isinstance(record, dict) else None)
        if lines[-1]:
            parsed.append(None)
        # A torn tail is a (possibly empty) run of bad lines at the very
        # end; a bad line with any valid record after it is corruption.
        last_valid = -1
        for index, record in enumerate(parsed):
            if record is not None:
                last_valid = index
        for index in range(last_valid + 1):
            if parsed[index] is None:
                raise StoreCorruption(
                    f"{self.wal_path}:{index + 1}: invalid record followed "
                    "by valid records — WAL middle is corrupt"
                )
        image.dropped_tail = len(parsed) - (last_valid + 1)
        torn = "\n".join(lines[last_valid + 1 :]).encode("utf-8", "surrogateescape")
        valid_bytes = len(data) - len(torn)
        for record in parsed[: last_valid + 1]:
            if record.get("kind") == WAL_HEADER_KIND:
                if record.get("schema") not in READABLE_SCHEMAS:
                    raise StoreCorruption(
                        f"{self.wal_path}: WAL schema {record.get('schema')!r} "
                        f"is not one of {sorted(READABLE_SCHEMAS)}"
                    )
                continue
            seq = int(record.get("seq", 0))
            if seq <= image.last_seq and image.snapshot is not None:
                continue  # already folded into the snapshot
            image.records.append(record)
            image.last_seq = max(image.last_seq, seq)
        return image, valid_bytes

    def _load_sealed(self, committed: int) -> list:
        """The archive's first ``committed`` bytes, one record per line.

        Unlike the WAL there is no torn tail to forgive inside the
        committed prefix: the snapshot that names its length was renamed
        only after the archive was fsynced.
        """
        try:
            with open(self.sealed_path, "rb") as fh:
                data = fh.read(committed)
        except OSError as error:
            raise StoreCorruption(
                f"archive {self.sealed_path} is unreadable: {error}"
            )
        if len(data) < committed or not data.endswith(b"\n"):
            raise StoreCorruption(
                f"archive {self.sealed_path} does not hold the {committed} "
                f"whole lines' bytes its snapshot committed ({len(data)} read)"
            )
        lines = data.count(b"\n")
        # One document, not one ``json.loads`` per line: the decoder then
        # shares each key string across all records (per-line parses
        # would give every record its own ~20 keys).  Encoded JSON holds
        # no raw newline, so the line breaks become the list's commas.
        # Each copy is dropped before the next is made: this parse is the
        # memory peak of a recovery.
        try:
            text = data.decode("utf-8")
            del data
            document = "[" + text[:-1].replace("\n", ",") + "]"
            del text
            records = json.loads(document)
        except ValueError as error:  # UnicodeDecodeError included
            raise StoreCorruption(
                f"archive {self.sealed_path}: invalid record inside the "
                f"committed length: {error}"
            )
        if len(records) != lines or not all(
            isinstance(record, dict) for record in records
        ):
            raise StoreCorruption(
                f"archive {self.sealed_path}: a committed line is not one "
                "JSON object"
            )
        return records

    def _truncate_uncommitted_seal(self) -> None:
        """Drop archive bytes no snapshot committed (a compaction that
        died between its archive fsync and its snapshot rename)."""
        try:
            if self.sealed_path.stat().st_size > self._sealed_bytes:
                os.truncate(self.sealed_path, self._sealed_bytes)
        except FileNotFoundError:
            pass
        except OSError as error:
            raise StoreUnavailable(
                f"cannot truncate archive {self.sealed_path}: {error}"
            )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _cut(self, length: int) -> None:
        """Truncate the WAL in place to its first ``length`` bytes (opening
        it for append if closed); cut to nothing, it starts again with its
        header.  Recovery cuts a torn tail, compaction every record and a
        failed append its own partial bytes.  A failed cut closes the WAL,
        so appends shed until a compaction or :meth:`reopen` cuts it
        again."""
        try:
            if self._fh is None:
                self._fh = open(self.wal_path, "ab", buffering=0)
            self._fh.truncate(length)
            if not length and self._fh.write(_HEADER) != len(_HEADER):
                raise OSError(errno.ENOSPC, "short write of the WAL header")
        except (OSError, ValueError) as error:
            self.close()
            raise StoreUnavailable(f"cannot cut WAL {self.wal_path}: {error}")
        self._wal_bytes = length or len(_HEADER)

    def reopen(self) -> None:
        """Reopen a WAL a failed cut closed, cut back to its last whole
        record; a no-op while it is open.  Raises
        :class:`StoreUnavailable`, leaving it closed, while the disk
        still fails."""
        if self._fh is None:
            self._cut(self._wal_bytes)

    def append(self, kind: str, **fields) -> int:
        """Durably append one record; returns its ``seq``.  A record the
        encoder rejects raises its ``ValueError`` / ``TypeError``, not a
        store outage, and writes nothing."""
        if self._fh is None:
            raise StoreUnavailable(f"store at {self.root} is not open")
        record = {"seq": self._seq + 1, "kind": kind}
        record.update(fields)
        line = (encode(record) + "\n").encode()
        try:
            if self._fh.write(line) != len(line):
                raise OSError(errno.ENOSPC, "short write")
            if self.fsync:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as error:
            # ValueError covers a handle something closed under us
            # ("I/O operation on closed file") — same shedding contract.
            # The partial record goes, or a re-append would land mid-line.
            with contextlib.suppress(StoreUnavailable):
                self._cut(self._wal_bytes)
            raise StoreUnavailable(f"WAL append failed: {error}")
        self._wal_bytes += len(line)
        self._seq += 1
        self._since_snapshot += 1
        self.appends += 1
        return self._seq

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    @property
    def sealed_bytes(self) -> int:
        """The archive's length as committed by the current snapshot."""
        return self._sealed_bytes

    def compact(self, state: dict, sealed: Iterable[dict] = ()) -> None:
        """Seal ``sealed`` into the archive, write an atomic snapshot of
        ``state`` and cut the WAL back to its header.

        Crash-safe ordering: the archive is appended and fsynced first,
        but it only counts once the snapshot naming its new length lands
        via ``os.replace``; only then is the WAL cut.  A crash before the
        rename leaves the old snapshot + WAL in charge and an uncommitted
        archive tail that recovery truncates.  A crash after it leaves
        old records in the WAL (or an empty WAL), but their ``seq``
        values are at or below the snapshot's ``last_seq`` and recovery
        skips them.
        """
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        try:
            sealed_bytes = self._append_sealed(sealed)
            payload = {
                "schema": STORE_SCHEMA_VERSION,
                "last_seq": self._seq,
                "sealed_bytes": sealed_bytes,
                "state": state,
            }
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    # encode, not dump: the same bytes, from the C encoder
                    # (dump streams through the pure-Python iterencode).
                    fh.write(encode(payload))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.snapshot_path)
            except OSError:
                # A half-written snapshot (disk full) must not sit beside
                # the good one; the old snapshot + WAL still recover.
                tmp.unlink(missing_ok=True)
                raise
            self._sealed_bytes = sealed_bytes
        except OSError as error:
            raise StoreUnavailable(f"compaction failed: {error}")
        self._cut(0)
        self._since_snapshot = 0

    def _append_sealed(self, sealed: Iterable[dict]) -> int:
        """Append ``sealed`` after the committed archive, fsync, and
        return the length the next snapshot commits.

        Bytes past the committed length (a compaction that failed before
        its rename) are truncated first, so a retried batch lands once.
        """
        data = "".join(encode(record) + "\n" for record in sealed).encode("utf-8")
        if not data:
            return self._sealed_bytes
        with open(self.sealed_path, "ab") as fh:
            if fh.tell() != self._sealed_bytes:
                fh.truncate(self._sealed_bytes)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        return self._sealed_bytes + len(data)

    def maybe_compact(
        self, build: Callable[[], tuple[dict, Iterable[dict]]]
    ) -> bool:
        """Compact when the WAL has grown past ``compact_every`` records.

        ``build`` returns ``(state, sealed)`` — the snapshot state and the
        records to seal — and is called only then: most calls find
        compaction not yet due.
        """
        if self._since_snapshot < self.compact_every:
            return False
        state, sealed = build()
        self.compact(state, sealed)
        return True

    def close(self) -> None:
        """Release the WAL handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DurableStore({str(self.root)!r}, seq={self._seq})"
