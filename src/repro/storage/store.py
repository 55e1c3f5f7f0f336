"""The durable register: write-ahead log + snapshot behind one store.

:class:`DurableStore` owns one replica's data directory::

    <data_dir>/wal.log       append-only journal (repro.storage.wal)
    <data_dir>/snapshot.bin  last compacted state (repro.storage.snapshot)

Opening the store *is* recovery: read the snapshot (tolerating a corrupt
one), scan the log (truncating any corrupt suffix), and fold the surviving
records over the snapshot state with the replica's own install rule —
a record applies iff its timestamp exceeds the current one.  That rule
makes replay **idempotent**: duplicated or out-of-order records (a crash
between append and ack can leave either) converge to the same final pair
as a clean history.  The outcome is summarised in a :class:`RecoveryResult`
so the service layer can report what a restart cost.

After recovery, :meth:`DurableStore.journal` appends each accepted write
*before* the service acks it, and every ``snapshot_every`` journalled
writes the store compacts: snapshot the current pair (atomically), then
truncate the log.  A crash between those two steps only means the next
recovery replays records the snapshot already covers — harmless, by
idempotence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import StorageError
from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.storage.snapshot import read_snapshot, write_snapshot
from repro.storage.wal import FsyncPolicy, WalRecord, WriteAheadLog, sync_directory

__all__ = ["DurableStore", "RecoveryResult"]

WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.bin"


@dataclass(frozen=True)
class RecoveryResult:
    """What opening a :class:`DurableStore` recovered (and what it cost).

    ``pair`` is the recovered register state (the zero pair on a fresh
    directory).  ``wal_records`` counts records that survived the scan,
    ``applied_records`` how many of them actually advanced the state (the
    rest were duplicates or out-of-order).  ``dropped_bytes`` / ``reason``
    describe the corrupt log suffix recovery discarded (``0`` / ``""`` when
    clean); ``snapshot_used`` says the snapshot seeded the state and
    ``snapshot_corrupt`` that one existed but failed validation and was
    ignored.
    """

    pair: ValueTimestampPair
    wal_records: int
    applied_records: int
    dropped_bytes: int
    reason: str
    snapshot_used: bool
    snapshot_corrupt: bool


class DurableStore:
    """One replica's durable ``(value, timestamp)`` register.

    ``fsync`` takes a :class:`~repro.storage.wal.FsyncPolicy` or its string
    form (``"always"``, ``"interval:N"``, ``"never"``); ``snapshot_every``
    is the compaction threshold in journalled writes (``0`` disables
    automatic compaction).  Construction performs recovery; the result is
    available as :attr:`recovery` and the live state as :attr:`pair`.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        fsync: FsyncPolicy | str = "always",
        snapshot_every: int = 1024,
        initial_value: object = None,
    ):
        if snapshot_every < 0:
            raise StorageError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.data_dir = Path(data_dir)
        self.snapshot_every = snapshot_every
        try:
            # Each directory this creates is an entry in its parent that must
            # be synced, or a power cut can lose the whole data dir.
            created = []
            directory = self.data_dir
            while not directory.exists():
                created.append(directory)
                directory = directory.parent
            self.data_dir.mkdir(parents=True, exist_ok=True)
            for directory in created:
                sync_directory(directory.parent)
        except OSError as exc:
            raise StorageError(
                f"cannot create data directory {self.data_dir}: {exc}"
            ) from None

        snapshot_path = self.data_dir / SNAPSHOT_NAME
        snapshot: WalRecord | None = None
        snapshot_corrupt = False
        try:
            snapshot = read_snapshot(snapshot_path)
        except StorageError:
            # Crash damage, not an environment failure: recover from the
            # log alone and let RecoveryResult report the loss.
            snapshot_corrupt = True

        # A compacted log is empty: the snapshot hands over the sequence
        # number it covers so numbering continues across the restart.
        self._wal = WriteAheadLog(
            self.data_dir / WAL_NAME,
            fsync=fsync,
            after_seq=snapshot.seq if snapshot is not None else 0,
        )

        pair = ValueTimestampPair(value=initial_value, timestamp=Timestamp.zero())
        if snapshot is not None:
            pair = snapshot.pair
        applied = 0
        for record in self._wal.scan.records:
            if record.timestamp > pair.timestamp:
                pair = record.pair
                applied += 1
        self.pair = pair
        self.recovery = RecoveryResult(
            pair=pair,
            wal_records=len(self._wal.scan.records),
            applied_records=applied,
            dropped_bytes=self._wal.scan.dropped_bytes,
            reason=self._wal.scan.reason,
            snapshot_used=snapshot is not None,
            snapshot_corrupt=snapshot_corrupt,
        )
        self._since_snapshot = len(self._wal.scan.records)
        self._snapshot_time: float | None = None
        if snapshot is not None or snapshot_corrupt:
            try:
                self._snapshot_time = os.stat(snapshot_path).st_mtime
            except OSError:
                self._snapshot_time = None
        self._maybe_compact()

    # ------------------------------------------------------------------
    # The write path.
    # ------------------------------------------------------------------
    def journal(self, pair: ValueTimestampPair) -> WalRecord:
        """Persist one accepted write; call *before* acking it.

        Also advances the in-memory state when the pair is newer, so a
        store used standalone (without a replica state machine in front)
        stays consistent with what recovery would rebuild.
        """
        record = self._wal.append(pair.timestamp, pair.value)
        if pair.timestamp > self.pair.timestamp:
            self.pair = pair
        self._since_snapshot += 1
        self._maybe_compact()
        return record

    def compact(self) -> WalRecord:
        """Snapshot the current state atomically, then truncate the log."""
        snapshot = WalRecord(
            seq=self._wal.last_seq,
            timestamp=self.pair.timestamp,
            value=self.pair.value,
        )
        write_snapshot(self.data_dir / SNAPSHOT_NAME, snapshot)
        self._wal.reset()
        self._since_snapshot = 0
        self._snapshot_time = time.time()
        return snapshot

    def _maybe_compact(self) -> None:
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.compact()

    def sync(self) -> None:
        """Force everything journalled so far onto the disk."""
        self._wal.sync()

    def close(self) -> None:
        """Flush, sync and release the log handle."""
        self._wal.close()

    # ------------------------------------------------------------------
    # Introspection (surfaces in the service's STATUS/METRICS frames).
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-safe storage health: WAL length, snapshot age, fsync policy."""
        age = (
            time.time() - self._snapshot_time
            if self._snapshot_time is not None
            else None
        )
        return {
            "durable": True,
            "path": str(self.data_dir),
            "fsync": str(self._wal.fsync),
            "wal_records": self._wal.record_count,
            "wal_bytes": self._wal.byte_size,
            "wal_last_seq": self._wal.last_seq,
            "snapshot_age_seconds": age,
            "sync_count": self._wal.sync_count,
            "recovered_records": self.recovery.wal_records,
            "recovery_dropped_bytes": self.recovery.dropped_bytes,
            "recovery_reason": self.recovery.reason,
            "snapshot_used": self.recovery.snapshot_used,
            "snapshot_corrupt": self.recovery.snapshot_corrupt,
        }

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
