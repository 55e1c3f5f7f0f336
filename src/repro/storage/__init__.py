"""Durable replica state: write-ahead log, snapshots, crash recovery.

The persistence layer under the networked service
(:mod:`repro.service`).  A replica journals every accepted write to a
CRC-framed, length-prefixed :class:`WriteAheadLog` *before* acking it,
periodically compacts the log into an atomically written snapshot (one more
:class:`WalRecord`, in its own file — there is no snapshot class), and on
restart a :class:`DurableStore` rebuilds the register from snapshot + log
— tolerating the torn tails and bit-flipped records a real crash leaves by
discarding only the corrupt suffix (never raising past
:class:`~repro.exceptions.StorageError`).

See ``docs/storage.md`` for the file formats, the fsync policy trade-off
(``always`` / ``interval:N`` / ``never``, benchmarked in
``BENCH_storage.json``) and the recovery guarantees.
"""

from repro.storage.snapshot import read_snapshot, write_snapshot
from repro.storage.store import DurableStore, RecoveryResult
from repro.storage.wal import (
    FSYNC_MODES,
    FsyncPolicy,
    WalRecord,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "FSYNC_MODES",
    "DurableStore",
    "FsyncPolicy",
    "RecoveryResult",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "read_snapshot",
    "scan_wal",
    "write_snapshot",
]
