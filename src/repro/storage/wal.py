"""CRC-framed, length-prefixed write-ahead log for replica state.

The on-disk format reuses the framing discipline of
:mod:`repro.service.wire` — a fixed-size big-endian header followed by a
UTF-8 JSON body — hardened for storage: every record adds a CRC-32 of the
body, and the file opens with an 8-byte magic string so a foreign file is
never misparsed as a log.

::

    file   := MAGIC record*
    record := length:u32 crc:u32 body          (both big-endian)
    body   := JSON {"seq": int, "value": ..., "ts": [counter, client_id]}

The record frame is stated here once — :func:`encode_record` /
:func:`decode_record` — and a snapshot (:mod:`repro.storage.snapshot`) is
one such record behind its own magic; the ``value`` + ``ts`` fields are
:meth:`ValueTimestampPair.to_json
<repro.simulation.messages.ValueTimestampPair.to_json>`'s, decoded by key, so
bodies written in the older ``seq, ts, value`` order read back unchanged.

The log is append-only.  Crash damage therefore always lives at the *tail*:
a torn header, a truncated body, or a bit-flip under the last buffered
pages.  :func:`scan_wal` walks records front to back and stops at the first
frame that fails any check (length sanity, CRC, JSON shape); everything
before it is intact by CRC, everything from it on is discarded.  Opening a
:class:`WriteAheadLog` truncates that corrupt suffix so the next append
produces a clean log again — recovery never raises for corruption, only for
environmental failures (unreadable path, unserialisable value), and those
are always :class:`~repro.exceptions.StorageError`.

Durability is governed by a pluggable :class:`FsyncPolicy`:

* ``always`` — ``fsync`` after every append (a SIGKILL *or* a machine crash
  loses nothing that was acked);
* ``interval:N`` — ``fsync`` every ``N`` appends (bounded loss window on
  machine crash; still loses nothing on process SIGKILL, because every
  append is flushed to the OS);
* ``never`` — flush to the OS but never force the disk (process crashes are
  survived, machine crashes may drop the tail — which recovery then
  tolerates).

``tests/test_artifacts.py`` records the fsyncs each policy pays in
``BENCH_storage.json``; ``bench/``'s ``svc_durable_mixed`` workload prices
``always`` on a live write path.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.exceptions import StorageError
from repro.simulation.messages import Timestamp, ValueTimestampPair

__all__ = [
    "FSYNC_MODES",
    "MAGIC",
    "MAX_RECORD_BYTES",
    "FsyncPolicy",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "scan_wal",
    "sync_directory",
]

#: File preamble; a file not starting with this is not (no longer) a log.
MAGIC = b"RPROWAL1"

#: Hard ceiling on one record's JSON body — same bound as a wire frame, so
#: anything the service accepted over the wire can be journalled.
MAX_RECORD_BYTES = 1 << 20

#: Per-record header: body length, CRC-32 of the body (both big-endian u32).
_HEADER = struct.Struct("!II")

#: The fsync policy modes :meth:`FsyncPolicy.parse` understands.
FSYNC_MODES = ("always", "interval", "never")


@dataclass(frozen=True)
class FsyncPolicy:
    """When the log forces appended records onto the disk.

    ``mode`` is one of :data:`FSYNC_MODES`; ``interval`` is the number of
    appends between forced syncs in ``interval`` mode (ignored otherwise).
    """

    mode: str
    interval: int = 32

    def __post_init__(self) -> None:
        if self.mode not in FSYNC_MODES:
            raise StorageError(
                f"unknown fsync mode {self.mode!r}; choose one of {FSYNC_MODES}"
            )
        if self.mode == "interval" and self.interval < 1:
            raise StorageError(
                f"fsync interval must be >= 1, got {self.interval}"
            )

    @classmethod
    def parse(cls, spec: "FsyncPolicy | str") -> "FsyncPolicy":
        """Parse ``"always"`` / ``"never"`` / ``"interval"`` / ``"interval:N"``."""
        if isinstance(spec, FsyncPolicy):
            return spec
        mode, _, raw_interval = spec.partition(":")
        if not raw_interval:
            return cls(mode=mode)
        try:
            interval = int(raw_interval)
        except ValueError:
            raise StorageError(
                f"fsync policy {spec!r}: interval must be an integer"
            ) from None
        if mode != "interval":
            raise StorageError(
                f"fsync policy {spec!r}: only 'interval' takes a :N suffix"
            )
        return cls(mode=mode, interval=interval)

    def __str__(self) -> str:
        if self.mode == "interval":
            return f"interval:{self.interval}"
        return self.mode


@dataclass(frozen=True)
class WalRecord:
    """One journalled write: a monotone sequence number plus the pair.

    A snapshot is the same record: the compacted pair plus the highest
    sequence number it covers.
    """

    seq: int
    timestamp: Timestamp
    value: object

    @property
    def pair(self) -> ValueTimestampPair:
        return ValueTimestampPair(value=self.value, timestamp=self.timestamp)


@dataclass(frozen=True)
class WalScan:
    """What a front-to-back scan of a log file found.

    ``valid_bytes`` is the offset of the first byte that failed validation
    (the whole file when clean); ``dropped_bytes`` is everything after it.
    ``reason`` names the first failure (``""`` when the tail was clean):
    ``bad-magic``, ``torn-header``, ``bad-length``, ``torn-body``,
    ``crc-mismatch``, ``corrupt-body``.
    """

    records: tuple[WalRecord, ...]
    valid_bytes: int
    dropped_bytes: int
    reason: str = ""


def encode_record(record: WalRecord) -> bytes:
    """Encode one record: header (length, CRC-32) + JSON body."""
    try:
        body = json.dumps(
            {"seq": int(record.seq), **record.pair.to_json()}, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError(
            f"value {record.value!r} is not JSON-serialisable: {exc}"
        ) from None
    if len(body) > MAX_RECORD_BYTES:
        raise StorageError(
            f"record body of {len(body)} bytes exceeds the {MAX_RECORD_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_record(data: bytes, offset: int) -> tuple[WalRecord, int] | str:
    """Decode the record framed at ``data[offset:]``.

    Returns ``(record, end)`` — ``end`` is the offset just past the frame —
    or, when any check fails (length sanity, CRC, JSON shape), the name of
    the first failure in :class:`WalScan`'s ``reason`` vocabulary.
    """
    if len(data) - offset < _HEADER.size:
        return "torn-header"
    length, crc = _HEADER.unpack_from(data, offset)
    if length == 0 or length > MAX_RECORD_BYTES:
        return "bad-length"
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        return "torn-body"
    body = data[start:end]
    if zlib.crc32(body) != crc:
        return "crc-mismatch"
    try:
        payload = json.loads(body.decode("utf-8"))
        pair = ValueTimestampPair.from_json(payload)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return "corrupt-body"
    if pair is None:
        return "corrupt-body"
    seq = payload.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool):
        return "corrupt-body"
    return WalRecord(seq=seq, timestamp=pair.timestamp, value=pair.value), end


def scan_wal(path: str | Path) -> WalScan:
    """Scan a log file, keeping the longest valid prefix of records.

    Missing and empty files are clean (zero records).  Any framing, CRC or
    shape failure stops the scan at that record's offset; the suffix from
    there is reported as dropped, never raised.  Only environmental
    failures (an unreadable path) raise :class:`StorageError`.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return WalScan(records=(), valid_bytes=0, dropped_bytes=0)
    except OSError as exc:
        raise StorageError(f"cannot read write-ahead log {path}: {exc}") from None
    if not data:
        return WalScan(records=(), valid_bytes=0, dropped_bytes=0)
    if not data.startswith(MAGIC):
        return WalScan(
            records=(), valid_bytes=0, dropped_bytes=len(data), reason="bad-magic"
        )

    records: list[WalRecord] = []
    offset = len(MAGIC)
    reason = ""
    while offset < len(data):
        decoded = decode_record(data, offset)
        if isinstance(decoded, str):
            reason = decoded
            break
        record, offset = decoded
        records.append(record)
    return WalScan(
        records=tuple(records),
        valid_bytes=offset,
        dropped_bytes=len(data) - offset,
        reason=reason,
    )


def sync_directory(path: str | Path) -> None:
    """Force a directory's entries onto the disk.

    A new or renamed file is only a directory entry until its directory is
    fsynced: without this, a power cut can lose a file whose *contents*
    were fsynced.  Raises :class:`OSError`; callers wrap it.
    """
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


class WriteAheadLog:
    """An open, append-only log handle over one file.

    Opening scans the file, truncates any corrupt suffix (see
    :func:`scan_wal`) and positions the handle for appends; the scan result
    — including what recovery had to drop — stays available as
    :attr:`scan`.  Sequence numbers continue from the highest surviving
    record or from ``after_seq``, whichever is larger: a log emptied by
    compaction holds no record to continue from, so the store that opens it
    hands over the sequence number its snapshot covers and the sequence
    stays monotone across compactions *and* restarts.
    """

    def __init__(
        self, path: str | Path, *, fsync: FsyncPolicy | str = "always", after_seq: int = 0
    ):
        self.path = Path(path)
        self.fsync = FsyncPolicy.parse(fsync)
        self.scan = scan_wal(self.path)
        self._next_seq = max([after_seq, *(r.seq for r in self.scan.records)]) + 1
        self._record_count = len(self.scan.records)
        self._sync_count = 0
        self._unsynced = 0
        try:
            if self.scan.valid_bytes < len(MAGIC):
                # New, empty or magic-less file: start a fresh log, and make
                # its directory entry as durable as its first record.
                self._handle: BinaryIO = open(self.path, "wb")
                self._handle.write(MAGIC)
                self._flush(force=True)
                sync_directory(self.path.parent)
                self._byte_size = len(MAGIC)
            else:
                if self.scan.dropped_bytes:
                    with open(self.path, "rb+") as damaged:
                        damaged.truncate(self.scan.valid_bytes)
                self._handle = open(self.path, "ab")
                self._byte_size = self.scan.valid_bytes
        except OSError as exc:
            raise StorageError(
                f"cannot open write-ahead log {self.path}: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Records currently in the file (surviving scan + appended)."""
        return self._record_count

    @property
    def byte_size(self) -> int:
        """File size in bytes (magic included)."""
        return self._byte_size

    @property
    def last_seq(self) -> int:
        """Highest sequence number written so far (0 before any append)."""
        return self._next_seq - 1

    @property
    def sync_count(self) -> int:
        """How many times the log forced an ``fsync``."""
        return self._sync_count

    @property
    def unsynced_appends(self) -> int:
        """Appends flushed to the OS but not yet forced onto the disk."""
        return self._unsynced

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------
    def append(self, timestamp: Timestamp, value: object) -> WalRecord:
        """Journal one ``(timestamp, value)`` pair; returns its record.

        Every append is flushed to the OS (a SIGKILL of the process loses
        nothing); whether the disk is forced too is the fsync policy's call.
        """
        record = WalRecord(seq=self._next_seq, timestamp=timestamp, value=value)
        frame = encode_record(record)
        try:
            self._handle.write(frame)
        except OSError as exc:
            raise StorageError(f"cannot append to {self.path}: {exc}") from None
        self._next_seq += 1
        self._record_count += 1
        self._byte_size += len(frame)
        self._unsynced += 1
        if self.fsync.mode == "always":
            self._flush(force=True)
        elif self.fsync.mode == "interval" and self._unsynced >= self.fsync.interval:
            self._flush(force=True)
        else:
            self._flush(force=False)
        return record

    def sync(self) -> None:
        """Force everything appended so far onto the disk."""
        self._flush(force=True)

    def reset(self) -> None:
        """Truncate the log back to just the magic (after a snapshot).

        Sequence numbering continues — the snapshot remembers the highest
        sequence it covers, so replay stays idempotent across compactions.
        """
        try:
            self._handle.close()
            self._handle = open(self.path, "wb")
            self._handle.write(MAGIC)
            self._flush(force=True)
        except OSError as exc:
            raise StorageError(f"cannot reset {self.path}: {exc}") from None
        self._record_count = 0
        self._byte_size = len(MAGIC)
        self._unsynced = 0

    def close(self) -> None:
        """Flush, force the disk once, and close the handle."""
        if self._handle.closed:
            return
        try:
            self._flush(force=True)
        finally:
            self._handle.close()

    def _flush(self, *, force: bool) -> None:
        try:
            self._handle.flush()
            if force:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise StorageError(f"cannot flush {self.path}: {exc}") from None
        if force:
            self._sync_count += 1
            self._unsynced = 0

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
