"""Property-based fuzz of the concurrent-history checker.

:func:`repro.simulation.history.check_register_history` is the oracle the
whole simulation layer leans on — a checker that misses violations would
make every "consistent" verdict in the suite meaningless.  These tests
generate *valid* histories from real event-driven runs, then inject each
class of violation the masking register forbids (stale read, fabricated
value, per-client timestamp regression, real-time order inversion,
duplicate write timestamps) and assert the right counter fires.  The
unmutated histories must keep passing: mutations, not the generator, are
what the checker flags.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import MGrid
from repro.simulation import (
    FaultScenario,
    LatencyModel,
    Timestamp,
    TimingScenario,
    ValueTimestampPair,
    check_register_history,
    run_event_workload,
)

SEEDS = [1, 7, 23]


def _history(seed: int):
    """A genuine concurrent history from the event-driven protocol stack."""
    result = run_event_workload(
        MGrid(4, 0),
        b=0,
        num_clients=6,
        operations_per_client=10,
        scenario=TimingScenario.static(
            FaultScenario.fault_free(), latency=LatencyModel.uniform(1.0, 0.5)
        ),
        rng=np.random.default_rng(seed),
        keep_history=True,
    )
    assert result.history, "keep_history must populate the records"
    return list(result.history)


def _successful_reads(records):
    return [i for i, r in enumerate(records) if r.kind == "read" and r.success]


def _completed_writes(records):
    return sorted(
        (i for i, r in enumerate(records) if r.kind == "write" and r.success),
        key=lambda i: records[i].responded_at,
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestHistoryFuzz:
    def test_unmutated_history_is_clean(self, seed):
        check = check_register_history(_history(seed))
        assert check.ok
        assert check.operations == 60
        assert check.concurrent_pairs > 0  # the runs genuinely interleave

    def test_injected_stale_read_is_flagged(self, seed):
        records = _history(seed)
        writes = _completed_writes(records)
        # A read invoked after the first write completed, rewound to the
        # initial pair: legitimate value, provably stale timestamp.
        first_done = records[writes[0]].responded_at
        victims = [
            i for i in _successful_reads(records)
            if records[i].invoked_at > first_done
        ]
        assert victims, "the workload must contain a read after a write"
        victim = victims[-1]
        records[victim] = replace(
            records[victim], value=None, timestamp=Timestamp.zero()
        )
        check = check_register_history(records)
        assert check.stale_reads >= 1
        assert not check.ok

    def test_injected_fabricated_value_is_flagged(self, seed):
        records = _history(seed)
        victim = _successful_reads(records)[0]
        records[victim] = replace(
            records[victim],
            value="forged-by-nobody",
            timestamp=Timestamp(counter=10**6, client_id=99),
        )
        check = check_register_history(records)
        assert check.fabricated_reads >= 1
        assert not check.ok

    def test_injected_timestamp_regression_is_flagged(self, seed):
        records = _history(seed)
        by_client: dict[int, list[int]] = {}
        for index, record in enumerate(records):
            if record.kind == "write" and record.attempted_pair is not None:
                by_client.setdefault(record.client_id, []).append(index)
        client, indices = next(
            (c, idx) for c, idx in by_client.items() if len(idx) >= 2
        )
        first, second = indices[0], indices[-1]
        # A unique timestamp strictly below the client's earlier write:
        # same counter, impossible (negative) client id as tiebreak.
        regressed = Timestamp(
            counter=records[first].attempted_pair.timestamp.counter, client_id=-5
        )
        pair = ValueTimestampPair(
            value=records[second].attempted_pair.value, timestamp=regressed
        )
        records[second] = replace(
            records[second], timestamp=regressed, attempted_pair=pair
        )
        check = check_register_history(records)
        assert check.write_order_violations >= 1
        assert not check.ok

    def test_injected_real_time_inversion_is_flagged(self, seed):
        records = _history(seed)
        writes = _completed_writes(records)
        early = records[writes[0]]
        laters = [
            i for i in writes if records[i].invoked_at > early.responded_at
        ]
        assert laters, "need a write that starts after another completed"
        victim = laters[-1]
        # Push the later write below every real timestamp: it can no longer
        # exceed the floor installed by the writes completed before it.
        inverted = Timestamp(counter=0, client_id=-1)
        pair = ValueTimestampPair(
            value=records[victim].attempted_pair.value, timestamp=inverted
        )
        records[victim] = replace(
            records[victim], timestamp=inverted, attempted_pair=pair
        )
        check = check_register_history(records)
        assert check.write_order_violations >= 1
        assert not check.ok

    def test_injected_duplicate_timestamp_is_flagged(self, seed):
        records = _history(seed)
        writes = [
            i for i, r in enumerate(records)
            if r.kind == "write" and r.attempted_pair is not None
        ]
        source, target = writes[0], writes[-1]
        records[target] = replace(
            records[target],
            timestamp=records[source].attempted_pair.timestamp,
            attempted_pair=records[source].attempted_pair,
        )
        check = check_register_history(records)
        assert check.duplicate_write_timestamps >= 1
        assert not check.ok


def test_mutations_compose(rng):
    """Several independent corruptions in one history are all counted."""
    records = _history(3)
    reads = _successful_reads(records)
    fab, stale = reads[0], reads[-1]
    assert fab != stale
    records[fab] = replace(
        records[fab],
        value="forged",
        timestamp=Timestamp(counter=10**6, client_id=42),
    )
    writes = _completed_writes(records)
    first_done = records[writes[0]].responded_at
    if records[stale].invoked_at > first_done:
        records[stale] = replace(
            records[stale], value=None, timestamp=Timestamp.zero()
        )
    check = check_register_history(records)
    assert check.fabricated_reads >= 1
    assert not check.ok
    assert len(check.violations) >= 1
