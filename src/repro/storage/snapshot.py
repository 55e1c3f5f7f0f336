"""Snapshots and log compaction for the durable register.

A snapshot is the register's entire state — one ``(value, timestamp)``
pair — plus the write-ahead-log sequence number it covers, so after a
snapshot the log can be truncated (:meth:`repro.storage.WriteAheadLog.reset`)
and recovery replays only records journalled since.  That is exactly what a
:class:`~repro.storage.wal.WalRecord` holds, so there is no snapshot type and
no snapshot codec: the file is one log record behind its own magic::

    file := MAGIC record        (record: repro.storage.wal.encode_record)

— size-capped, CRC-checked and shape-checked by the log's own
:func:`~repro.storage.wal.decode_record`, with nothing allowed after it.

Snapshots are written *atomically*: the new state goes to a temporary file
which is fsynced and then renamed over the old snapshot, so a crash during
compaction leaves either the previous snapshot or the new one — never a
torn hybrid.  A snapshot that is nevertheless corrupt (bit rot, foreign
file) makes :func:`read_snapshot` raise :class:`StorageError`;
:class:`repro.storage.DurableStore` catches that and falls back to the log
alone, because the log still holds every record since the *previous*
compaction only when the snapshot was never written — which is exactly the
crash-before-rename case the atomic write rules out.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.exceptions import StorageError
from repro.storage.wal import WalRecord, decode_record, encode_record, sync_directory

__all__ = ["SNAPSHOT_MAGIC", "read_snapshot", "write_snapshot"]

#: File preamble distinguishing a snapshot from a log (and anything else).
SNAPSHOT_MAGIC = b"RPROSNP1"


def write_snapshot(path: str | Path, snapshot: WalRecord) -> None:
    """Atomically and durably persist one snapshot.

    Tmp file + fsync + rename + fsync of the directory: the rename is only a
    directory entry until the directory itself is synced, and the caller
    truncates the log next, so without the last step a power cut could keep
    the old snapshot beside an empty log.
    """
    target = Path(path)
    blob = SNAPSHOT_MAGIC + encode_record(snapshot)
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(target)
        sync_directory(target.parent)
    except OSError as exc:
        raise StorageError(f"cannot write snapshot {target}: {exc}") from None


def read_snapshot(path: str | Path) -> WalRecord | None:
    """Load a snapshot; ``None`` when the file does not exist.

    A present-but-invalid snapshot (bad magic, torn frame, CRC mismatch,
    malformed body, trailing bytes) raises :class:`StorageError` — the
    *caller* decides whether that is fatal; :class:`repro.storage.DurableStore`
    treats it as crash damage and recovers from the log alone.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {target}: {exc}") from None
    if not data.startswith(SNAPSHOT_MAGIC):
        raise StorageError(f"snapshot {target} is corrupt: bad-magic")
    decoded = decode_record(data, len(SNAPSHOT_MAGIC))
    if isinstance(decoded, str):
        raise StorageError(f"snapshot {target} is corrupt: {decoded}")
    snapshot, end = decoded
    if end != len(data):
        raise StorageError(
            f"snapshot {target} is corrupt: {len(data) - end} trailing bytes"
        )
    return snapshot
