"""Snapshots and log compaction for the durable register.

A snapshot is the register's entire state — one ``(value, timestamp)``
pair — plus the write-ahead-log sequence number it covers, so after a
snapshot the log can be truncated (:meth:`repro.storage.WriteAheadLog.reset`)
and recovery replays only records journalled since.

The file format mirrors one WAL record behind its own magic::

    file := MAGIC length:u32 crc:u32 body
    body := JSON {"seq": int, "ts": [counter, client_id], "value": ...}

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

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import StorageError
from repro.simulation.history import freeze_value
from repro.simulation.messages import Timestamp, ValueTimestampPair

__all__ = ["SNAPSHOT_MAGIC", "Snapshot", "read_snapshot", "write_snapshot"]

#: File preamble distinguishing a snapshot from a log (and anything else).
SNAPSHOT_MAGIC = b"RPROSNP1"

_HEADER = struct.Struct("!II")


@dataclass(frozen=True)
class Snapshot:
    """One compacted register state: the pair plus the WAL seq it covers."""

    seq: int
    timestamp: Timestamp
    value: object

    @property
    def pair(self) -> ValueTimestampPair:
        return ValueTimestampPair(value=self.value, timestamp=self.timestamp)


def write_snapshot(path: str | Path, snapshot: Snapshot) -> None:
    """Atomically persist one snapshot (tmp file + fsync + rename)."""
    target = Path(path)
    try:
        body = json.dumps(
            {
                "seq": int(snapshot.seq),
                "ts": snapshot.timestamp.to_pair(),
                "value": snapshot.value,
            },
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError(
            f"snapshot value {snapshot.value!r} is not JSON-serialisable: {exc}"
        ) from None
    blob = SNAPSHOT_MAGIC + _HEADER.pack(len(body), zlib.crc32(body)) + body
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(target)
    except OSError as exc:
        raise StorageError(f"cannot write snapshot {target}: {exc}") from None


def read_snapshot(path: str | Path) -> Snapshot | None:
    """Load a snapshot; ``None`` when the file does not exist.

    A present-but-invalid snapshot (bad magic, torn frame, CRC mismatch,
    malformed body) raises :class:`StorageError` — the *caller* decides
    whether that is fatal; :class:`repro.storage.DurableStore` treats it as
    crash damage and recovers from the log alone.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {target}: {exc}") from None
    prefix = len(SNAPSHOT_MAGIC)
    if not data.startswith(SNAPSHOT_MAGIC) or len(data) < prefix + _HEADER.size:
        raise StorageError(f"snapshot {target} is corrupt: bad magic or torn header")
    length, crc = _HEADER.unpack_from(data, prefix)
    body = data[prefix + _HEADER.size :]
    if len(body) != length:
        raise StorageError(
            f"snapshot {target} is corrupt: header announces {length} bytes, "
            f"{len(body)} present"
        )
    if zlib.crc32(body) != crc:
        raise StorageError(f"snapshot {target} is corrupt: CRC mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"snapshot {target} is corrupt: {exc}") from None
    if not isinstance(payload, dict):
        raise StorageError(f"snapshot {target} is corrupt: body is not an object")
    seq = payload.get("seq")
    timestamp = Timestamp.from_pair(payload.get("ts"))
    if not isinstance(seq, int) or isinstance(seq, bool) or timestamp is None:
        raise StorageError(f"snapshot {target} is corrupt: malformed seq/ts fields")
    return Snapshot(seq=seq, timestamp=timestamp, value=freeze_value(payload.get("value")))
