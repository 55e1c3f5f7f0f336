"""Benchmark for the durability layer: fsync policies and recovery cost.

The write-ahead log (:mod:`repro.storage`) sits on every accepted write's
ack path, so its two tunables have a direct price:

* the **fsync policy** trades machine-crash durability for append
  throughput — ``always`` forces the disk on every record, ``interval:N``
  amortises one fsync over ``N`` records, ``never`` leaves the disk to the
  OS (process crashes are still survivable, because every append is flushed
  to the kernel);
* the **log length** at crash time is the recovery bill — a restarted
  replica replays the whole surviving log, so compaction frequency bounds
  restart latency.

This benchmark measures both curves and records ``BENCH_storage.json`` at
the repository root (same artefact contract as ``BENCH_scenarios.json`` /
``BENCH_membership.json``): per-policy append throughput over a fixed
record mix, and recovery wall-time as the log grows from hundreds to
thousands of records.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import ARTIFACT_SCHEMA_VERSION, format_table, run_metadata, write_artifact

from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.storage import DurableStore, WriteAheadLog, scan_wal

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_storage.json"

SEED = 20240614
REPEATS = 3
APPENDS = 512
FSYNC_POLICIES = ("always", "interval:32", "never")
RECOVERY_LENGTHS = (256, 1024, 4096)


def _value(counter: int) -> object:
    """A representative journalled value: small structured JSON."""
    return {"op": counter, "payload": ["x" * 32, counter % 7]}


def _time_policy(tmp_path: Path, policy: str) -> dict:
    """Best-of-N wall time for APPENDS journal appends under one policy."""
    best = float("inf")
    sync_count = 0
    for repeat in range(REPEATS):
        path = tmp_path / f"wal-{policy.replace(':', '-')}-{repeat}.log"
        with WriteAheadLog(path, fsync=policy) as wal:
            start = time.perf_counter()
            for counter in range(1, APPENDS + 1):
                wal.append(Timestamp(counter, 0), _value(counter))
            elapsed = time.perf_counter() - start
            sync_count = wal.sync_count
        best = min(best, elapsed)
    return {
        "policy": policy,
        "appends": APPENDS,
        "best_seconds": best,
        "appends_per_second": APPENDS / best,
        "sync_count": sync_count,
    }


def _time_recovery(tmp_path: Path, length: int) -> dict:
    """Best-of-N recovery (open + scan + fold) of a WAL of ``length`` records.

    Compaction is disabled so the log really holds ``length`` records; the
    store is built once and re-opened REPEATS times, timing only the opens.
    """
    data_dir = tmp_path / f"recover-{length}"
    with DurableStore(data_dir, fsync="never", snapshot_every=0) as store:
        for counter in range(1, length + 1):
            store.journal(
                ValueTimestampPair(value=_value(counter), timestamp=Timestamp(counter, 0))
            )
    best = float("inf")
    recovered = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        store = DurableStore(data_dir, fsync="never", snapshot_every=0)
        elapsed = time.perf_counter() - start
        recovered = store.recovery.wal_records
        assert store.pair.timestamp == Timestamp(length, 0)
        store.close()
        best = min(best, elapsed)
    wal_bytes = scan_wal(data_dir / "wal.log").valid_bytes
    return {
        "wal_records": length,
        "recovered_records": recovered,
        "wal_bytes": wal_bytes,
        "best_seconds": best,
        "records_per_second": length / best,
    }


def test_storage_artifact(tmp_path):
    """Measure both curves and record ``BENCH_storage.json``."""
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "metadata": run_metadata("benchmarks/test_bench_storage.py"),
        "system": "repro.storage (write-ahead log + snapshot store)",
        "seed": SEED,
        "repeats": REPEATS,
        "fsync_throughput": [_time_policy(tmp_path, policy) for policy in FSYNC_POLICIES],
        "recovery": [_time_recovery(tmp_path, length) for length in RECOVERY_LENGTHS],
    }
    write_artifact(ARTIFACT, payload)

    rows = [
        [
            timing["policy"],
            timing["appends"],
            timing["sync_count"],
            f"{timing['appends_per_second']:,.0f}/s",
        ]
        for timing in payload["fsync_throughput"]
    ]
    print()
    print(format_table(["fsync policy", "appends", "fsyncs", "throughput"], rows))
    rows = [
        [
            timing["wal_records"],
            timing["wal_bytes"],
            f"{timing['best_seconds'] * 1e3:.3f} ms",
            f"{timing['records_per_second']:,.0f}/s",
        ]
        for timing in payload["recovery"]
    ]
    print()
    print(format_table(["wal records", "bytes", "recovery", "replay rate"], rows))
    print(f"\nrecorded -> {ARTIFACT.name}")

    recorded = json.loads(ARTIFACT.read_text())
    assert recorded["schema_version"] == ARTIFACT_SCHEMA_VERSION
    by_policy = {row["policy"]: row for row in recorded["fsync_throughput"]}
    assert set(by_policy) == set(FSYNC_POLICIES)
    # "always" pays one fsync per append; the others amortise or skip.
    assert by_policy["always"]["sync_count"] >= APPENDS
    assert by_policy["interval:32"]["sync_count"] <= APPENDS // 32 + 1
    assert by_policy["never"]["sync_count"] <= 1  # just the opening magic
    assert all(row["best_seconds"] > 0.0 for row in recorded["fsync_throughput"])
    # Recovery replays every surviving record, and cost grows with length.
    for row in recorded["recovery"]:
        assert row["recovered_records"] == row["wal_records"]
        assert row["best_seconds"] > 0.0
    assert (
        recorded["recovery"][-1]["best_seconds"] >= recorded["recovery"][0]["best_seconds"]
    )
