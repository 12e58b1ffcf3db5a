"""Per-worker write-ahead log with snapshot compaction.

Each *applied* ingest batch appends one small record here, the JSON
snapshot is rewritten only every N batches, and recovery is ``restore
snapshot, replay the WAL tail``. A restarted worker therefore replays
at most ``snapshot_interval`` batches, never full history, and loses
no applied batch on a crash.

File layout (all integers network byte order)::

    header:  magic "RWAL" | WAL format u32 | state version u32
    entry:   payload length u32 | CRC-32(payload) u32 | payload
    payload: JSON {"seq": int, "events": [...], "response": {...}}

The payload is UTF-8 JSON (:func:`~repro.serve.envelope.encode_json`),
the encoding that carried the batch over the wire, so a replayed batch
is the same input to the decision engine.

Crash-safety contract:

* **Torn tail.** ``kill -9`` mid-append leaves a partial, CRC-failed,
  or zero-filled final record. Recovery (non-strict) truncates the tail *loudly* — the
  damage is reported in :class:`WalRecovery` and counted by the caller's
  metric — and the router's seq retry re-sends the lost batch. Strict
  reads raise :class:`~repro.serve.errors.WalTruncatedError` instead
  (the unit tests' mode).
* **Compaction.** The snapshot is written first (atomically, fsync'd),
  then the WAL is rewritten via temp-file + ``os.replace``. A crash
  between the two leaves stale records whose ``seq`` is at or below the
  snapshot's — replay skips them; a crash mid-rewrite leaves the old
  WAL intact.
* **Version skew.** The header pins both the WAL format and the
  decision state-machine version
  (:data:`repro.serve.state.STATE_VERSION`); replaying records written
  by a different state machine could produce different decisions, so
  recovery refuses with :class:`~repro.serve.errors.WalVersionError`.
  Format 2 holds JSON records; a format-1 log (binary records) is
  refused the same way, and no reader for it is kept. A cleanly
  stopped worker compacts its WAL down to the header, so such a file
  holds no batch and can be removed before the upgrade.

Interior (non-tail) corruption always raises
:class:`~repro.serve.errors.WalCorruptionError` — records after an
unreadable one cannot be trusted to be framed correctly, and silently
dropping *applied* batches would fork the decision trajectory.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.serve.envelope import decode_json, encode_json
from repro.serve.errors import (
    ServeStateError,
    WalCorruptionError,
    WalError,
    WalTruncatedError,
    WalVersionError,
)
from repro.serve.state import STATE_VERSION

#: Four magic bytes opening every WAL file.
WAL_MAGIC = b"RWAL"

#: Version of the record layout; bump on structural changes. Format 2
#: records hold JSON payloads (format 1 held a binary codec).
WAL_FORMAT = 2

#: magic | WAL format | state version
_WAL_HEADER = struct.Struct("!4sII")

#: payload length | CRC-32(payload)
_ENTRY_HEADER = struct.Struct("!II")

#: Cap on one record's payload; a length field beyond this is garbage,
#: not a legitimate batch (mirrors the transport frame cap).
MAX_ENTRY_PAYLOAD = 64 * 1024 * 1024

_FSYNC_POLICIES = ("always", "never")


@dataclass(frozen=True)
class WalEntry:
    """One applied ingest batch: its seq, raw events, and the response
    the worker answered (replayed verbatim on a retried seq)."""

    seq: int
    events: "List[object]"
    response: "Dict[str, object]"


@dataclass
class WalRecovery:
    """What a WAL read found: the good records and the damage report."""

    path: Path
    entries: "List[WalEntry]" = field(default_factory=list)
    #: Bytes of the file that held well-formed records (incl. header);
    #: everything past this offset was torn or corrupt.
    valid_bytes: int = 0
    #: Records discarded from the tail (0 or 1 — framing is lost at the
    #: first unreadable record, so later ones are uncountable).
    truncated_entries: int = 0
    #: Bytes discarded from the tail.
    truncated_bytes: int = 0

    @property
    def last_seq(self) -> "Optional[int]":
        """Highest recovered seq, or ``None`` for an empty log."""
        return self.entries[-1].seq if self.entries else None


def _encode_entry(
    seq: int, events: "List[object]", response: "Dict[str, object]"
) -> bytes:
    """One framed record: length | CRC-32 | JSON payload."""
    payload = encode_json({"seq": seq, "events": events, "response": response})
    return (
        _ENTRY_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        + payload
    )


def _decode_entry_payload(payload: bytes, offset: int) -> WalEntry:
    record = decode_json(
        payload, WalCorruptionError, f"WAL record at offset {offset}"
    )
    if not isinstance(record, dict):
        raise WalCorruptionError(
            f"WAL record at offset {offset} decodes to "
            f"{type(record).__name__}, expected an object"
        )
    seq = record.get("seq")
    events = record.get("events")
    response = record.get("response")
    if (
        not isinstance(seq, int)
        or not isinstance(events, list)
        or not isinstance(response, dict)
    ):
        raise WalCorruptionError(
            f"WAL record at offset {offset} is missing seq/events/response fields"
        )
    return WalEntry(seq=seq, events=events, response=response)


def read_wal(path: "str | Path", strict: bool = True) -> WalRecovery:
    """Read every recoverable record from the WAL at ``path``.

    A missing file is an empty log. A damaged *tail* (partial or
    CRC-failed final record — the ``kill -9``-during-append signature)
    raises :class:`~repro.serve.errors.WalTruncatedError` when
    ``strict``, else is reported via the returned
    :class:`WalRecovery`'s ``truncated_*`` fields. Damage that cannot
    be a torn append — bad header, version skew, undecodable interior
    record — always raises.
    """
    target = Path(path)
    recovery = WalRecovery(path=target)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        return recovery
    except OSError as error:
        raise WalError(f"cannot read WAL {target}: {error}") from error
    if not data:
        return recovery
    if len(data) < _WAL_HEADER.size:
        raise WalCorruptionError(
            f"WAL {target} is {len(data)} byte(s), shorter than its header"
        )
    magic, wal_format, state_version = _WAL_HEADER.unpack_from(data)
    if magic != WAL_MAGIC:
        raise WalCorruptionError(
            f"WAL {target} opens with {bytes(magic)!r}, not {WAL_MAGIC!r} — "
            "not a write-ahead log"
        )
    if wal_format != WAL_FORMAT:
        raise WalVersionError(
            f"WAL {target} is format v{wal_format}; this build writes "
            f"v{WAL_FORMAT} — refusing to replay"
        )
    if state_version != STATE_VERSION:
        raise WalVersionError(
            f"WAL {target} was written by decision state machine "
            f"v{state_version}; this build is v{STATE_VERSION} — replaying "
            "could produce different decisions, refusing to load"
        )
    offset = recovery.valid_bytes = _WAL_HEADER.size
    while offset < len(data):
        torn: "Optional[str]" = None
        end = offset
        if offset + _ENTRY_HEADER.size > len(data):
            torn = "partial record header"
        else:
            length, crc = _ENTRY_HEADER.unpack_from(data, offset)
            if length == 0 and crc == 0:
                # A legitimate record payload is never empty (it is a
                # JSON object, >= 2 bytes), yet an all-zeros
                # header self-validates (CRC-32 of b"" is 0). Zeroed
                # bytes at the tail are the filesystem's torn-write
                # signature (block allocated, data never flushed), so
                # treat them as a torn append, not a record.
                torn = "zero-filled tail (a torn or preallocated write)"
            elif length > MAX_ENTRY_PAYLOAD:
                torn = f"record declares an implausible {length}-byte payload"
            else:
                end = offset + _ENTRY_HEADER.size + length
                if end > len(data):
                    torn = f"partial record payload ({len(data) - offset} of "
                    torn += f"{end - offset} bytes)"
                elif zlib.crc32(data[offset + _ENTRY_HEADER.size : end]) & 0xFFFFFFFF != crc:
                    torn = "record failed its CRC-32 check"
        if torn is not None:
            if end < len(data) and torn == "record failed its CRC-32 check":
                # A CRC failure with more well-framed data after it is
                # interior corruption, not a torn append.
                raise WalCorruptionError(
                    f"WAL {target}: interior {torn} at offset {offset} with "
                    f"{len(data) - end} byte(s) following — log is corrupt, "
                    "not torn; refusing to guess which batches applied"
                )
            if strict:
                raise WalTruncatedError(
                    f"WAL {target} has a torn tail at offset {offset}: {torn} "
                    f"({len(data) - offset} byte(s) unreadable)"
                )
            recovery.truncated_entries = 1
            recovery.truncated_bytes = len(data) - offset
            break
        payload = data[offset + _ENTRY_HEADER.size : end]
        recovery.entries.append(_decode_entry_payload(payload, offset))
        offset = end
        recovery.valid_bytes = offset
    if not recovery.truncated_bytes:
        recovery.valid_bytes = len(data)
    return recovery


class Wal:
    """An open, append-able write-ahead log.

    Construct via :meth:`Wal.open`, which recovers (and physically heals
    a torn tail) before handing back the append handle. All methods are
    thread-safe — the handle is guarded by an internal lock — though the
    shard worker additionally serialises appends with its own ingest
    lock to keep WAL order identical to apply order.
    """

    def __init__(self, path: Path, handle: BinaryIO, fsync: str) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ServeStateError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle: "Optional[BinaryIO]" = handle

    @classmethod
    def open(
        cls,
        path: "str | Path",
        fsync: str = "always",
        strict: bool = False,
    ) -> "Tuple[Wal, WalRecovery]":
        """Recover the WAL at ``path`` and open it for appending.

        Returns ``(wal, recovery)``. A missing file is created (header
        only). A torn tail is physically truncated away — after healing,
        the on-disk log holds exactly ``recovery.entries``.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        recovery = read_wal(target, strict=strict)
        if not target.exists() or target.stat().st_size == 0:
            with target.open("wb") as fresh:
                fresh.write(_WAL_HEADER.pack(WAL_MAGIC, WAL_FORMAT, STATE_VERSION))
                fresh.flush()
                if fsync == "always":
                    os.fsync(fresh.fileno())
            recovery.valid_bytes = _WAL_HEADER.size
        elif recovery.truncated_bytes:
            with target.open("r+b") as heal:
                heal.truncate(recovery.valid_bytes)
                heal.flush()
                if fsync == "always":
                    os.fsync(heal.fileno())
        handle = target.open("ab")
        return cls(target, handle, fsync), recovery

    def _require_handle_locked(self) -> BinaryIO:
        if self._handle is None:
            raise WalError(f"WAL {self.path} is closed")
        return self._handle

    def append(
        self,
        seq: int,
        events: "List[object]",
        response: "Dict[str, object]",
    ) -> int:
        """Durably log one applied batch; returns the record's size."""
        record = _encode_entry(int(seq), events, response)
        with self._lock:
            handle = self._require_handle_locked()
            handle.write(record)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
        return len(record)

    def compact(self, last_snapshot_seq: "Optional[int]") -> int:
        """Drop every record already covered by the snapshot.

        Keeps records with ``seq > last_snapshot_seq`` (all of them when
        ``None``), rewriting the log atomically. Returns the number of
        records dropped. Call *after* the snapshot is durably on disk —
        the crash-ordering contract in the module docstring relies on
        it.
        """
        with self._lock:
            handle = self._require_handle_locked()
            handle.flush()
            recovery = read_wal(self.path, strict=False)
            kept = [
                entry
                for entry in recovery.entries
                if last_snapshot_seq is None or entry.seq > last_snapshot_seq
            ]
            dropped = len(recovery.entries) - len(kept)
            fd, temp_name = tempfile.mkstemp(
                prefix=f".{self.path.name}-", suffix=".tmp", dir=self.path.parent
            )
            try:
                with os.fdopen(fd, "wb") as rewrite:
                    rewrite.write(
                        _WAL_HEADER.pack(WAL_MAGIC, WAL_FORMAT, STATE_VERSION)
                    )
                    for entry in kept:
                        rewrite.write(
                            _encode_entry(entry.seq, entry.events, entry.response)
                        )
                    rewrite.flush()
                    if self.fsync == "always":
                        os.fsync(rewrite.fileno())
                os.replace(temp_name, self.path)
            except OSError:
                with contextlib.suppress(OSError):
                    os.unlink(temp_name)
                raise
            handle.close()
            self._handle = self.path.open("ab")
        return dropped

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Wal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
