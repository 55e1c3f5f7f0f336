"""History serialisation and the golden live-service fixture.

Two halves: (1) property tests for the JSONL history codec in
:mod:`repro.simulation.history` — every record round-trips through
``record_to_dict``/``record_from_dict`` and dump/load, with values frozen
back into hashable form; (2) offline replay of the pinned golden fixture
under ``tests/fixtures/`` — a history recorded from a *live* 16-replica
``mgrid(4, b=1)`` cluster with one ``forge-on-read`` Byzantine replica
(see ``scripts/make_service_fixture.py``).  The fixture must keep passing
the PR-3 checker and the live-traffic conformance bounds without any
sockets, pinning the service stack's output format and its guarantees.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import service_conformance
from repro.api.registry import SystemSpec, build
from repro.exceptions import ServiceError, SimulationError
from repro.service import ServiceRunResult, run_load
from repro.simulation import latency_summary
from repro.simulation.engine import resolve_strategy
from repro.simulation.history import (
    HistoryCheck,
    OperationRecord,
    check_register_history,
    dump_history_jsonl,
    freeze_value,
    load_history_jsonl,
    record_from_dict,
    record_to_dict,
)
from repro.simulation.messages import Timestamp, ValueTimestampPair

FIXTURES = Path(__file__).parent / "fixtures"


# ----------------------------------------------------------------------
# Record <-> dict round-trips.
# ----------------------------------------------------------------------
def _random_record(rng: np.random.Generator, index: int) -> OperationRecord:
    kind = "write" if rng.random() < 0.5 else "read"
    success = bool(rng.random() < 0.9)
    ts = Timestamp(counter=int(rng.integers(0, 50)), client_id=int(rng.integers(0, 8)))
    value = freeze_value(
        [int(rng.integers(100)), {"k": f"v{index}"}, None, bool(rng.integers(2))]
    )
    pair = ValueTimestampPair(value=value, timestamp=ts)
    quorum = frozenset(int(x) for x in rng.choice(16, size=4, replace=False))
    return OperationRecord(
        client_id=int(rng.integers(0, 8)),
        kind=kind,
        invoked_at=float(index),
        responded_at=float(index) + float(rng.random()),
        success=success,
        value=value if success else None,
        timestamp=ts if success else None,
        quorum=quorum if success else None,
        attempts=int(rng.integers(1, 4)),
        attempted_pair=pair if kind == "write" else None,
    )


@pytest.mark.parametrize("seed", [5, 29, 83])
def test_record_dict_round_trip(seed):
    rng = np.random.default_rng(seed)
    for index in range(100):
        record = _random_record(rng, index)
        # The dict must be JSON-serialisable, and survive a JSON round-trip.
        payload = json.loads(json.dumps(record_to_dict(record)))
        assert record_from_dict(payload) == record


def test_jsonl_file_round_trip(tmp_path, rng):
    records = [_random_record(rng, index) for index in range(50)]
    path = tmp_path / "history.jsonl"
    assert dump_history_jsonl(records, path) == 50
    assert load_history_jsonl(path) == records


def test_tuple_values_survive_as_frozen_equivalents(tmp_path):
    """Tuples become JSON lists on disk but load back frozen (hashable)."""
    record = OperationRecord(
        client_id=0,
        kind="read",
        invoked_at=0.0,
        responded_at=1.0,
        success=True,
        value=("client-3", 7),
        timestamp=Timestamp(counter=7, client_id=3),
        quorum=frozenset([("r", 0), ("r", 1)]),
    )
    path = tmp_path / "one.jsonl"
    dump_history_jsonl([record], path)
    (loaded,) = load_history_jsonl(path)
    assert loaded.value == ("client-3", 7)
    assert hash(loaded.value) == hash(("client-3", 7))
    assert loaded.quorum == frozenset([("r", 0), ("r", 1)])


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1,2]",
        '{"kind":"read"}',  # missing fields
        '{"client_id":"x","kind":"read","invoked_at":0,"responded_at":1,"success":true}',
        '{"client_id":0,"kind":"read","invoked_at":0,"responded_at":1,"success":true,"timestamp":[1]}',
        '{"client_id":0,"kind":"read","invoked_at":0,"responded_at":1,"success":true,"timestamp":[1.9,"2"]}',
        '{"client_id":0,"kind":"read","invoked_at":0,"responded_at":1,"success":true,"timestamp":[true,false]}',
        # Values nested too deeply to freeze (900) or even to parse (200 000).
        *(
            pytest.param(
                '{"client_id":0,"kind":"read","invoked_at":0,"responded_at":1,"success":true,'
                '"timestamp":[1,0],"value":' + "[" * depth + "]" * depth + "}",
                id=f"nested-{depth}",
            )
            for depth in (900, 200_000)
        ),
    ],
)
def test_malformed_history_lines_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SimulationError):
        load_history_jsonl(path)


def test_missing_history_file_rejected(tmp_path):
    with pytest.raises(SimulationError):
        load_history_jsonl(tmp_path / "absent.jsonl")


# ----------------------------------------------------------------------
# Golden fixture: a live mgrid(4, b=1) history with 1 Byzantine replica.
# ----------------------------------------------------------------------
@dataclass
class _ReplayResult:
    """ServiceRunResult-shaped view over a replayed fixture history.

    ``service_conformance`` is duck-typed, so an offline replay only needs
    the attributes the checks read.
    """

    system: object
    b: int
    strategy: object
    records: list
    check: HistoryCheck
    per_server_load: dict


@pytest.fixture(scope="module")
def golden():
    meta = json.loads((FIXTURES / "service_mgrid_meta.json").read_text())
    records = load_history_jsonl(FIXTURES / "service_mgrid_history.jsonl")
    return meta, records


def test_golden_fixture_matches_metadata(golden):
    meta, records = golden
    assert meta["spec"] == {"construction": "mgrid", "params": {"side": 4, "b": 1}}
    assert meta["byzantine"] == 1 and meta["byzantine_behaviour"] == "forge-on-read"
    assert len(records) == meta["operations"]
    assert meta["check"]["ok"] is True


def test_golden_fixture_passes_checker(golden):
    meta, records = golden
    check = check_register_history(records)
    assert check.ok, check.violations
    assert check.fabricated_reads == 0
    assert check.stale_reads == 0
    assert check.concurrent_pairs == meta["check"]["concurrent_pairs"]
    # The history is genuinely concurrent, not an accidental serial replay.
    assert check.concurrent_pairs > 0


def test_golden_fixture_passes_live_conformance(golden):
    meta, records = golden
    spec = SystemSpec(construction="mgrid", params=dict(meta["spec"]["params"]))
    system = build(spec)
    successful = [record for record in records if record.success]
    # Reconstruct the per-server empirical load exactly as run_load accounts
    # it: quorum accesses of successful operations over successful ops.
    per_server_load = {
        server: sum(1 for r in successful if r.quorum and server in r.quorum)
        / max(1, len(successful))
        for server in system.universe
    }
    replay = _ReplayResult(
        system=system,
        b=meta["b"],
        strategy=resolve_strategy(system, meta["strategy"]),
        records=records,
        check=check_register_history(records),
        per_server_load=per_server_load,
    )
    report = service_conformance(replay)
    failed = [check.metric for check in report.checks if not check.ok]
    assert report.ok, failed
    metrics = {check.metric for check in report.checks}
    assert {"fabricated-reads", "stale-read-rate", "history-safety", "load-envelope"} <= metrics


# ----------------------------------------------------------------------
# One latency estimator: a service report and an event result agree.
# ----------------------------------------------------------------------
def test_service_report_and_event_result_share_the_latency_estimator():
    """The same samples give the same mean/p50/p90/p99 on both paths.

    ``EventStack.result`` and ``ServiceRunResult.report`` both go through
    ``latency_summary`` (``np.percentile``, linear interpolation); eleven
    samples put p90 and p99 between two order statistics, where the old
    nearest-rank service estimator disagreed.
    """
    samples = [0.5 + 0.37 * index**1.5 for index in range(11)]
    system = build(SystemSpec(construction="threshold", params={"n": 5, "b": 1}))
    records = [
        OperationRecord(
            client_id=0,
            kind="write",
            invoked_at=float(index),
            responded_at=float(index) + sample,
            success=True,
            timestamp=Timestamp(counter=index + 1, client_id=0),
            quorum=frozenset(system.universe.elements[:4]),
            attempted_pair=ValueTimestampPair(
                value=index, timestamp=Timestamp(counter=index + 1, client_id=0)
            ),
        )
        for index, sample in enumerate(samples)
    ]
    result = ServiceRunResult(
        system=system,
        b=1,
        seed=0,
        operations=len(records),
        clients=1,
        duration=1.0,
        strategy=resolve_strategy(system, None),
        records=records,
        check=check_register_history(records),
        per_server_load={},
        per_server_attempted={},
        timeouts=0,
    )
    report = result.report()
    event = latency_summary([r.responded_at - r.invoked_at for r in records], 0.0)
    latencies = np.array([r.responded_at - r.invoked_at for r in records])
    for name, quantile in (("latency_p50", 50), ("latency_p90", 90), ("latency_p99", 99)):
        assert report[name] == event[name] == float(np.percentile(latencies, quantile))
    assert report["latency_mean"] == event["latency_mean"]
    assert report["latency_p99"] < latencies.max()  # interpolated, not nearest-rank
    # The empty conventions stay per engine: 0.0 on results, None on service reports.
    assert set(latency_summary([], 0.0).values()) == {0.0}
    empty = ServiceRunResult(**{**vars(result), "records": [], "operations": 0})
    assert empty.report()["latency_p50"] is None


# ----------------------------------------------------------------------
# One install rule for inherited register state.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "timestamp", [Timestamp.zero(), Timestamp(0, -2)], ids=["zero", "below-zero"]
)
def test_run_load_refuses_an_inherited_pair_no_replica_would_hold(monkeypatch, timestamp):
    """No replica installs it, so an honest read of ``None`` would look fabricated.

    ``run_load`` must refuse it, as ``EventStack`` does, before any client
    connects: a connection attempt here fails the test instead of reaching
    a socket.
    """
    connections = []

    async def no_connection(*endpoint):
        connections.append(endpoint)
        raise AssertionError(f"run_load connected to {endpoint}")

    monkeypatch.setattr(asyncio, "open_connection", no_connection)
    system = build(SystemSpec(construction="threshold", params={"n": 5, "b": 1}))
    endpoints = {server: ("127.0.0.1", 9) for server in system.universe}
    initial = ValueTimestampPair(value="empty", timestamp=timestamp)
    with pytest.raises(ServiceError, match="not newer than the replicas' zero pair"):
        asyncio.run(
            run_load(system, endpoints, b=1, operations=1, clients=1, initial_pair=initial)
        )
    assert connections == []
