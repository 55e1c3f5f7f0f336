"""Tests for :mod:`repro.storage` — WAL, snapshots, crash recovery.

Three layers:

* unit tests for the fsync policy, record framing and the scan;
* a corruption fuzz suite: every crash-damage shape a real filesystem can
  leave (truncated tail, torn final frame, CRC bit-flip, duplicate and
  out-of-order records, empty file, foreign file, snapshot/WAL mismatch,
  corrupt snapshot) must be survived by dropping only the corrupt suffix —
  and nothing may ever raise past :class:`~repro.exceptions.StorageError`;
* hypothesis property tests: journal → recover round-trips arbitrary
  frozen JSON values under random fsync policies and compaction points, and
  every inherited pair a replica would hold is read back after a reopen.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import masking_threshold
from repro.exceptions import SimulationError, StorageError
from repro.simulation.history import freeze_value
from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.simulation.server import check_inherited_pair
from repro.storage import (
    DurableStore,
    FsyncPolicy,
    WalRecord,
    WriteAheadLog,
    read_snapshot,
    scan_wal,
    write_snapshot,
)
from repro.storage.snapshot import SNAPSHOT_MAGIC
from repro.storage.store import SNAPSHOT_NAME, WAL_NAME
from repro.storage.wal import MAGIC, MAX_RECORD_BYTES, encode_record
from repro.storage.wal import WalRecord as _WalRecord

_HEADER = struct.Struct("!II")


def _pair(counter: int, client_id: int = 0, value: object = None) -> ValueTimestampPair:
    return ValueTimestampPair(
        value=value if value is not None else f"v{counter}",
        timestamp=Timestamp(counter=counter, client_id=client_id),
    )


def _journal_n(store: DurableStore, n: int, *, start: int = 1) -> ValueTimestampPair:
    last = store.pair
    for counter in range(start, start + n):
        last = _pair(counter)
        store.journal(last)
    return last


# ----------------------------------------------------------------------------
# FsyncPolicy.
# ----------------------------------------------------------------------------
class TestFsyncPolicy:
    def test_parse_plain_modes(self):
        assert FsyncPolicy.parse("always").mode == "always"
        assert FsyncPolicy.parse("never").mode == "never"
        policy = FsyncPolicy.parse("interval")
        assert (policy.mode, policy.interval) == ("interval", 32)

    def test_parse_interval_with_count(self):
        policy = FsyncPolicy.parse("interval:7")
        assert (policy.mode, policy.interval) == ("interval", 7)
        assert str(policy) == "interval:7"

    def test_parse_is_idempotent_on_policies(self):
        policy = FsyncPolicy("never")
        assert FsyncPolicy.parse(policy) is policy

    @pytest.mark.parametrize(
        "spec", ["sometimes", "interval:x", "always:3", "interval:0", ""]
    )
    def test_bad_specs_raise_storage_error(self, spec):
        with pytest.raises(StorageError):
            FsyncPolicy.parse(spec)

    def test_str_round_trips(self):
        for spec in ("always", "never", "interval:5"):
            assert str(FsyncPolicy.parse(spec)) == spec


# ----------------------------------------------------------------------------
# WAL basics.
# ----------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_fresh_log_has_magic_and_no_records(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            assert wal.record_count == 0
            assert wal.last_seq == 0
        assert path.read_bytes() == MAGIC

    def test_append_then_scan_round_trips(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(Timestamp(1, 0), "a")
            wal.append(Timestamp(2, 1), ["b", 2])
        scan = scan_wal(path)
        assert scan.reason == ""
        assert scan.dropped_bytes == 0
        assert [(r.seq, r.timestamp, r.value) for r in scan.records] == [
            (1, Timestamp(1, 0), "a"),
            (2, Timestamp(2, 1), ("b", 2)),  # freeze_value: lists come back frozen
        ]

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(Timestamp(1, 0), "a")
        with WriteAheadLog(path) as wal:
            record = wal.append(Timestamp(2, 0), "b")
            assert record.seq == 2

    def test_reset_keeps_sequence_monotone(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(Timestamp(1, 0), "a")
            wal.reset()
            assert wal.record_count == 0
            assert wal.append(Timestamp(2, 0), "b").seq == 2
        assert len(scan_wal(path).records) == 1

    def test_unserialisable_value_raises_storage_error(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            with pytest.raises(StorageError):
                wal.append(Timestamp(1, 0), object())

    def test_oversize_record_raises_storage_error(self):
        record = _WalRecord(seq=1, timestamp=Timestamp(1, 0), value="x" * (MAX_RECORD_BYTES + 1))
        with pytest.raises(StorageError):
            encode_record(record)

    def test_interval_policy_batches_syncs(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync="interval:4") as wal:
            baseline = wal.sync_count  # the open itself syncs the magic
            for counter in range(1, 9):
                wal.append(Timestamp(counter, 0), counter)
            assert wal.sync_count - baseline == 2  # 8 appends / interval 4
            assert wal.unsynced_appends == 0

    def test_never_policy_still_persists_across_close(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append(Timestamp(1, 0), "a")
        # "never" skips fsync but still flushes to the OS: the record is
        # on disk for any process-level crash model.
        assert len(scan_wal(path).records) == 1


# ----------------------------------------------------------------------------
# Corruption fuzz: the scan keeps exactly the valid prefix.
# ----------------------------------------------------------------------------
class TestWalCorruption:
    def _write_records(self, path, count: int) -> bytes:
        with WriteAheadLog(path) as wal:
            for counter in range(1, count + 1):
                wal.append(Timestamp(counter, 0), f"v{counter}")
        return path.read_bytes()

    def test_missing_and_empty_files_are_clean(self, tmp_path):
        missing = scan_wal(tmp_path / "nope.log")
        assert (missing.records, missing.dropped_bytes, missing.reason) == ((), 0, "")
        empty = tmp_path / "empty.log"
        empty.write_bytes(b"")
        assert scan_wal(empty).reason == ""
        assert scan_wal(empty).records == ()

    def test_foreign_file_is_all_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"this is not a log at all, honest")
        scan = scan_wal(path)
        assert scan.reason == "bad-magic"
        assert scan.records == ()
        assert scan.dropped_bytes == path.stat().st_size

    def test_truncated_tail_keeps_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        data = self._write_records(path, 3)
        # Chop mid-way through the last record's body: torn-body.
        path.write_bytes(data[:-2])
        scan = scan_wal(path)
        assert scan.reason == "torn-body"
        assert len(scan.records) == 2
        assert scan.records[-1].timestamp == Timestamp(2, 0)

    def test_torn_final_header_keeps_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_records(path, 2)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x01")  # 3 bytes: less than a header
        scan = scan_wal(path)
        assert scan.reason == "torn-header"
        assert len(scan.records) == 2
        assert scan.dropped_bytes == 3

    def test_crc_bit_flip_drops_from_the_flip(self, tmp_path):
        path = tmp_path / "wal.log"
        data = bytearray(self._write_records(path, 5))
        # Flip one bit inside the *third* record's body; records 1-2 survive.
        offset = len(MAGIC)
        for _ in range(2):
            length, _ = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size + length
        flip_at = offset + _HEADER.size + 1
        data[flip_at] ^= 0x40
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.reason == "crc-mismatch"
        assert len(scan.records) == 2
        assert scan.valid_bytes == offset

    def test_absurd_length_field_stops_the_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_records(path, 1)
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(MAX_RECORD_BYTES + 1, 0) + b"xx")
        scan = scan_wal(path)
        assert scan.reason == "bad-length"
        assert len(scan.records) == 1

    def test_valid_crc_wrong_shape_is_corrupt_body(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_records(path, 1)
        body = json.dumps({"seq": "not-an-int", "ts": [1, 0], "value": 1}).encode()
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(len(body), zlib.crc32(body)) + body)
        scan = scan_wal(path)
        assert scan.reason == "corrupt-body"
        assert len(scan.records) == 1

    @pytest.mark.parametrize("depth", [900, 200_000])
    def test_valid_crc_value_nested_too_deeply_is_corrupt_body(self, tmp_path, depth):
        # Too deep to freeze (900) or to parse (200 000, still under the size
        # cap): dropped like any other malformed body, never a RecursionError.
        path = tmp_path / "wal.log"
        self._write_records(path, 1)
        body = ('{"seq":2,"ts":[2,0],"value":' + "[" * depth + "]" * depth + "}").encode()
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(len(body), zlib.crc32(body)) + body)
        scan = scan_wal(path)
        assert scan.reason == "corrupt-body"
        assert len(scan.records) == 1

    def test_opening_truncates_the_corrupt_suffix(self, tmp_path):
        path = tmp_path / "wal.log"
        data = self._write_records(path, 3)
        path.write_bytes(data + b"\xde\xad\xbe")
        wal = WriteAheadLog(path)
        try:
            assert wal.scan.reason == "torn-header"
            assert wal.scan.dropped_bytes == 3
            # The file is clean again and appends continue from seq 3.
            assert wal.append(Timestamp(9, 0), "after").seq == 4
        finally:
            wal.close()
        healed = scan_wal(path)
        assert healed.reason == ""
        assert len(healed.records) == 4

    def test_bad_magic_file_is_rewritten_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"garbage")
        with WriteAheadLog(path) as wal:
            assert wal.scan.reason == "bad-magic"
            wal.append(Timestamp(1, 0), "fresh")
        scan = scan_wal(path)
        assert scan.reason == ""
        assert len(scan.records) == 1


# ----------------------------------------------------------------------------
# Snapshots.
# ----------------------------------------------------------------------------
class TestSnapshot:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, WalRecord(seq=7, timestamp=Timestamp(3, 2), value=["a", 1]))
        loaded = read_snapshot(path)
        assert loaded is not None
        assert (loaded.seq, loaded.timestamp) == (7, Timestamp(3, 2))
        assert loaded.value == freeze_value(["a", 1])

    def test_missing_snapshot_is_none(self, tmp_path):
        assert read_snapshot(tmp_path / "snapshot.bin") is None

    @pytest.mark.parametrize(
        "blob",
        [
            b"WRONGMAG" + b"\x00" * 10,
            SNAPSHOT_MAGIC,  # torn header
            SNAPSHOT_MAGIC + _HEADER.pack(100, 0) + b"short",  # length mismatch
            SNAPSHOT_MAGIC  # a valid snapshot, then trailing bytes
            + encode_record(_WalRecord(seq=1, timestamp=Timestamp(1, 0), value="x"))
            + b"\x00",
        ],
    )
    def test_corrupt_snapshots_raise_storage_error(self, tmp_path, blob):
        path = tmp_path / "snapshot.bin"
        path.write_bytes(blob)
        with pytest.raises(StorageError):
            read_snapshot(path)

    def test_crc_flip_raises_storage_error(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, WalRecord(seq=1, timestamp=Timestamp(1, 0), value="x"))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            read_snapshot(path)

    def test_unserialisable_value_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            write_snapshot(
                tmp_path / "s.bin", WalRecord(seq=1, timestamp=Timestamp(1, 0), value=object())
            )

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, WalRecord(seq=1, timestamp=Timestamp(1, 0), value=None))
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.bin"]


# ----------------------------------------------------------------------------
# On-disk format pins: files written by the previous release still decode.
# ----------------------------------------------------------------------------
def _old_frame(seq: int, ts: list, value: object) -> bytes:
    """One record framed by hand, body keys in the previous release's order."""
    body = json.dumps({"seq": seq, "ts": ts, "value": value}, separators=(",", ":")).encode()
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def test_files_in_the_previous_key_order_read_back(tmp_path):
    log = tmp_path / "wal.log"
    log.write_bytes(MAGIC + _old_frame(1, [1, 0], "a") + _old_frame(2, [2, 1], ["b", 2]))
    scan = scan_wal(log)
    assert (scan.reason, scan.dropped_bytes) == ("", 0)
    assert scan.records == (
        WalRecord(seq=1, timestamp=Timestamp(1, 0), value="a"),
        WalRecord(seq=2, timestamp=Timestamp(2, 1), value=("b", 2)),
    )
    snapshot = tmp_path / "snapshot.bin"
    snapshot.write_bytes(SNAPSHOT_MAGIC + _old_frame(7, [3, 2], {"k": [1]}))
    assert read_snapshot(snapshot) == WalRecord(
        seq=7, timestamp=Timestamp(3, 2), value=(("k", (1,)),)
    )


# ----------------------------------------------------------------------------
# DurableStore recovery.
# ----------------------------------------------------------------------------
class TestDurableStore:
    def test_fresh_directory_recovers_the_zero_pair(self, tmp_path):
        with DurableStore(tmp_path / "d") as store:
            assert store.pair.timestamp == Timestamp.zero()
            assert store.recovery.wal_records == 0
            assert not store.recovery.snapshot_used

    def test_journal_then_reopen_recovers_the_last_pair(self, tmp_path):
        with DurableStore(tmp_path / "d") as store:
            last = _journal_n(store, 5)
        with DurableStore(tmp_path / "d") as store:
            assert store.pair == last
            assert store.recovery.wal_records == 5
            assert store.recovery.applied_records == 5

    def test_reopen_without_close_recovers(self, tmp_path):
        # SIGKILL model: the first handle is never closed.
        first = DurableStore(tmp_path / "d")
        last = _journal_n(first, 3)
        second = DurableStore(tmp_path / "d")
        try:
            assert second.pair == last
        finally:
            second.close()
            first.close()

    def test_duplicate_and_out_of_order_records_replay_idempotently(self, tmp_path):
        data_dir = tmp_path / "d"
        with DurableStore(data_dir) as store:
            _journal_n(store, 3)
        # Hand-append a duplicate of ts=2 and an out-of-order ts=1 record:
        # the crash-between-append-and-ack shapes. Replay must ignore both.
        with open(data_dir / WAL_NAME, "ab") as handle:
            for counter in (2, 1):
                handle.write(
                    encode_record(
                        _WalRecord(seq=90 + counter, timestamp=Timestamp(counter, 0), value="old")
                    )
                )
        with DurableStore(data_dir) as store:
            assert store.pair == _pair(3)
            assert store.recovery.wal_records == 5
            assert store.recovery.applied_records == 3

    def test_torn_tail_loses_only_the_torn_write(self, tmp_path):
        data_dir = tmp_path / "d"
        with DurableStore(data_dir) as store:
            _journal_n(store, 4)
        wal_path = data_dir / WAL_NAME
        wal_path.write_bytes(wal_path.read_bytes()[:-3])
        with DurableStore(data_dir) as store:
            assert store.pair == _pair(3)
            assert store.recovery.reason == "torn-body"
            assert store.recovery.dropped_bytes > 0

    def test_compaction_preserves_recovery(self, tmp_path):
        data_dir = tmp_path / "d"
        with DurableStore(data_dir, snapshot_every=4) as store:
            last = _journal_n(store, 10)
            assert store.status()["wal_records"] < 10  # compaction happened
        with DurableStore(data_dir, snapshot_every=4) as store:
            assert store.pair == last
            assert store.recovery.snapshot_used
        # Restart on a freshly compacted (empty) log: the snapshot hands its
        # seq over, so numbering continues instead of starting again at 1.
        data_dir = tmp_path / "just-compacted"
        with DurableStore(data_dir, snapshot_every=4) as store:
            _journal_n(store, 4)
            assert store.status()["wal_records"] == 0
        with DurableStore(data_dir, snapshot_every=4) as store:
            assert store.status()["wal_last_seq"] == 4
            assert store.journal(_pair(5)).seq == 5

    def test_compaction_syncs_the_directory_before_truncating_the_log(
        self, tmp_path, monkeypatch
    ):
        # The snapshot rename is only a directory entry until the directory is
        # fsynced; truncating the log first could leave, after a power cut,
        # the old snapshot beside an empty log.
        data_dir = tmp_path / "d"
        events: list[tuple] = []
        directories: dict[int, Path] = {}
        real_open, real_fsync, real_reset = os.open, os.fsync, WriteAheadLog.reset

        def spy_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if Path(path).is_dir():
                directories[fd] = Path(path)
            return fd

        def spy_fsync(fd):
            directory = directories.pop(fd, None)
            if directory is not None:
                events.append(("fsync-dir", directory, read_snapshot(directory / SNAPSHOT_NAME)))
            real_fsync(fd)

        def spy_reset(wal):
            events.append(("reset",))
            real_reset(wal)

        with DurableStore(data_dir, snapshot_every=0) as store:
            _journal_n(store, 3)
            monkeypatch.setattr(os, "open", spy_open)
            monkeypatch.setattr(os, "fsync", spy_fsync)
            monkeypatch.setattr(WriteAheadLog, "reset", spy_reset)
            snapshot = store.compact()
        assert events == [("fsync-dir", data_dir, snapshot), ("reset",)]

    def test_a_fresh_store_syncs_its_directory_entries_before_the_first_ack(
        self, tmp_path, monkeypatch
    ):
        # A fresh data dir and a fresh log are only directory entries until
        # their parents are fsynced; an acked write inside them must survive
        # a power cut, so both are synced before the first journal returns.
        data_dir = tmp_path / "d"
        synced: list[Path] = []
        directories: dict[int, Path] = {}
        real_open, real_fsync = os.open, os.fsync

        def spy_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if Path(path).is_dir():
                directories[fd] = Path(path)
            return fd

        def spy_fsync(fd):
            directory = directories.pop(fd, None)
            if directory is not None:
                synced.append(directory)
            real_fsync(fd)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        with DurableStore(data_dir, snapshot_every=0) as store:
            store.journal(_pair(1))
            assert synced == [tmp_path, data_dir]
            assert store.status()["wal_records"] == 1

    def test_corrupt_snapshot_falls_back_to_the_log(self, tmp_path):
        data_dir = tmp_path / "d"
        with DurableStore(data_dir) as store:
            last = _journal_n(store, 6)
            store.compact()
            # Snapshot now holds ts=6 and the WAL is empty; journal two more
            # so the log alone still reaches the latest state, then corrupt
            # the snapshot in a way recovery must shrug off.
            last = _pair(7)
            store.journal(last)
            last = _pair(8)
            store.journal(last)
        (data_dir / SNAPSHOT_NAME).write_bytes(b"rotted")
        with DurableStore(data_dir) as store:
            assert store.recovery.snapshot_corrupt
            assert not store.recovery.snapshot_used
            assert store.pair == last

    def test_snapshot_newer_than_wal_wins(self, tmp_path):
        # Snapshot/WAL mismatch: a snapshot covering ts=9 next to a stale
        # log holding ts<=3 (compaction crash after rename, before reset).
        data_dir = tmp_path / "d"
        with DurableStore(data_dir) as store:
            _journal_n(store, 3)
        write_snapshot(
            data_dir / SNAPSHOT_NAME, WalRecord(seq=40, timestamp=Timestamp(9, 1), value="snap")
        )
        with DurableStore(data_dir) as store:
            assert store.pair == ValueTimestampPair(value="snap", timestamp=Timestamp(9, 1))
            assert store.recovery.applied_records == 0

    def test_data_dir_collision_raises_storage_error(self, tmp_path):
        blocker = tmp_path / "d"
        blocker.write_text("a file where the data dir should be")
        with pytest.raises(StorageError):
            DurableStore(blocker)

    def test_negative_snapshot_every_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            DurableStore(tmp_path / "d", snapshot_every=-1)

    def test_status_is_json_safe_and_complete(self, tmp_path):
        with DurableStore(tmp_path / "d", fsync="interval:8") as store:
            _journal_n(store, 2)
            status = store.status()
        json.dumps(status)  # must survive a METRICS frame
        assert status["durable"] is True
        assert status["fsync"] == "interval:8"
        assert status["wal_records"] == 2
        assert status["recovery_reason"] == ""


# ----------------------------------------------------------------------------
# Property: journal → recover round-trips arbitrary frozen values.
# ----------------------------------------------------------------------------
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def _accepted_as_inherited(pair: ValueTimestampPair) -> bool:
    try:
        check_inherited_pair(pair)
    except SimulationError:
        return False
    return True


class TestRoundTripProperty:
    @given(
        values=st.lists(json_values, min_size=1, max_size=12),
        fsync=st.sampled_from(["always", "never", "interval:3"]),
        snapshot_every=st.sampled_from([0, 3, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_journal_recover_round_trip(self, tmp_path_factory, values, fsync, snapshot_every):
        data_dir = tmp_path_factory.mktemp("store")
        expected = None
        with DurableStore(data_dir, fsync=fsync, snapshot_every=snapshot_every) as store:
            for counter, value in enumerate(values, start=1):
                frozen = freeze_value(value)
                expected = ValueTimestampPair(value=frozen, timestamp=Timestamp(counter, 0))
                store.journal(expected)
        with DurableStore(data_dir, fsync=fsync, snapshot_every=snapshot_every) as store:
            assert store.pair == expected

    @given(
        value=json_values,
        counter=st.integers(-1, 3),
        client_id=st.integers(-3, 2),
        seed=st.integers(0, 2**16),
    )
    @example(value=None, counter=0, client_id=-1, seed=0)
    @example(value="empty", counter=1, client_id=0, seed=0)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_accepted_pair_is_read_back_after_a_reopen(
        self, tmp_path_factory, event_register, complete, value, counter, client_id, seed
    ):
        """An inherited pair survives the WAL and a restart, then a read.

        The store recovers with the replicas' own install rule, so the pair
        a reopened store hands a replica is the one journalled, and a
        fault-free read of the restored replicas returns it on a clean
        history — the zero pair included.
        """
        pair = ValueTimestampPair(freeze_value(value), Timestamp(counter, client_id))
        assume(_accepted_as_inherited(pair))
        data_dir = tmp_path_factory.mktemp("store")
        with DurableStore(data_dir) as store:
            store.journal(pair)
        with DurableStore(data_dir) as store:
            recovered = store.recovery.pair
        assert recovered == pair
        stack = event_register(
            masking_threshold(5, 1),
            b=1,
            rng=np.random.default_rng(seed),
            initial_pair=recovered,
        )
        result = complete(stack.clients[0].read)
        assert result.success
        assert (result.value, result.timestamp) == (pair.value, pair.timestamp)
        assert stack.recorder.check().ok

    @given(value=json_values, counter=st.integers(0, 2**40), client_id=st.integers(-1, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_pair_json_form_round_trips(self, value, counter, client_id):
        """The one serialised pair form (wire, STATUS, WAL, snapshot)."""
        pair = ValueTimestampPair(freeze_value(value), Timestamp(counter, client_id))
        assert ValueTimestampPair.from_json(json.loads(json.dumps(pair.to_json()))) == pair

    @pytest.mark.parametrize(
        "payload",
        [
            {"value": 2},  # missing ts
            {"value": 2, "ts": [1]},
            {"value": 2, "ts": [1, True]},
            {"value": 2, "ts": "1.2"},
            {"value": 2, "ts": [0, 0, 0]},
            [2, [1, 0]],  # not an object
        ],
    )
    def test_pair_json_form_is_strict_about_the_timestamp(self, payload):
        assert ValueTimestampPair.from_json(payload) is None

    @given(garbage=st.binary(min_size=0, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_tail_garbage_never_raises(self, tmp_path_factory, garbage):
        data_dir = tmp_path_factory.mktemp("store")
        with DurableStore(data_dir) as store:
            last = _journal_n(store, 3)
        with open(data_dir / WAL_NAME, "ab") as handle:
            handle.write(garbage)
        with DurableStore(data_dir) as store:
            # Appended garbage can only ever cost the corrupt suffix: the
            # three acked writes are CRC-protected and always survive.
            assert store.pair == last
