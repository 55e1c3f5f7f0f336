"""A quadratic reference oracle for the register-history checker.

:func:`repro.simulation.history.check_register_history` is the instrument
every "consistent" verdict in the suite leans on, and it is written for
speed: sorted views, a prefix maximum, ``bisect``.  :func:`oracle` restates
the module docstring's five rules, the membership rule of ``epochs=`` and
the concurrency gauge with none of that — every rule is a loop over all
pairs of operations, read straight off its sentence — and the tests hold
the two to the same counters on generated histories (tiny value, time and
timestamp domains, so ties, duplicates and coincidences are common) and on
the stitched histories of both reconfiguration catalogue scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MGrid, api
from repro.simulation import (
    Timestamp,
    ValueTimestampPair,
    check_register_history,
    run_event_workload,
)
from repro.simulation.history import EpochWindow, OperationRecord

COUNTERS = (
    "operations",
    "concurrent_pairs",
    "fabricated_reads",
    "stale_reads",
    "write_order_violations",
    "duplicate_write_timestamps",
    "foreign_quorum_members",
    "ok",
)
ZERO = ValueTimestampPair(value=None, timestamp=Timestamp.zero())


def oracle(records, initial=ZERO, epochs=None) -> dict:
    """The checker's counters, by exhaustive comparison."""
    numbered = list(enumerate(records))
    writes = [
        (i, r) for i, r in numbered if r.kind == "write" and r.attempted_pair is not None
    ]
    completed = [r for _, r in numbered if r.kind == "write" and r.success]

    def completed_before(time):
        """Timestamps installed by writes that completed before ``time``."""
        return [initial.timestamp] + [
            w.timestamp for w in completed if w.responded_at < time
        ]

    # Unique write timestamps: every write repeating an earlier one's.
    duplicates = sum(
        any(j < i and v.attempted_pair.timestamp == w.attempted_pair.timestamp
            for j, v in writes)
        for i, w in writes
    )
    # Per-client monotonicity: against the client's immediately preceding write.
    order = 0
    for i, w in writes:
        earlier = [
            (v.invoked_at, j, v.attempted_pair.timestamp)
            for j, v in writes
            if v.client_id == w.client_id and (v.invoked_at, j) < (w.invoked_at, i)
        ]
        if earlier and not w.attempted_pair.timestamp > max(earlier)[2]:
            order += 1
    # Real-time write order: above everything completed before it began.
    order += sum(
        any(not w.timestamp > floor for floor in completed_before(w.invoked_at))
        for w in completed
    )
    # A read is legal iff its pair is the initial pair or some write's
    # attempted pair, and no write that completed before it was invoked
    # carries a higher timestamp.
    produced = {initial} | {w.attempted_pair for _, w in writes}
    fabricated = stale = 0
    for _, r in numbered:
        if r.kind != "read" or not r.success:
            continue
        if r.pair not in produced:
            fabricated += 1
        elif any(r.timestamp < floor for floor in completed_before(r.invoked_at)):
            stale += 1
    # Membership: the quorum fits inside some epoch overlapping the operation.
    foreign = 0
    for _, r in numbered:
        covering = [
            e.members
            for e in epochs or ()
            if e.members and r.invoked_at < e.end and r.responded_at >= e.start
        ]
        if r.success and r.quorum is not None and covering:
            foreign += not any(r.quorum <= members for members in covering)
    overlapping = sum(
        a.invoked_at < b.responded_at and b.invoked_at < a.responded_at
        for i, a in numbered
        for j, b in numbered
        if i < j
    )
    counters = dict(
        operations=len(records),
        concurrent_pairs=overlapping,
        fabricated_reads=fabricated,
        stale_reads=stale,
        write_order_violations=order,
        duplicate_write_timestamps=duplicates,
        foreign_quorum_members=foreign,
    )
    counters["ok"] = not (fabricated or stale or order or duplicates or foreign)
    return counters


def verdict(check) -> dict:
    return {name: getattr(check, name) for name in COUNTERS}


# ----------------------------------------------------------------------
# Generated histories.
# ----------------------------------------------------------------------
timestamps = st.builds(Timestamp, counter=st.integers(0, 3), client_id=st.integers(0, 2))
pairs = st.builds(ValueTimestampPair, value=st.sampled_from([None, "a", "b"]),
                  timestamp=timestamps)
servers = st.frozensets(st.integers(0, 4), max_size=4)


@st.composite
def operations(draw) -> OperationRecord:
    invoked_at = float(draw(st.integers(0, 12)))
    kind = draw(st.sampled_from(["read", "write"]))
    success = draw(st.booleans())
    pair = draw(pairs)
    if kind == "write" and not success and draw(st.booleans()):
        pair = None  # failed before it picked a timestamp
    return OperationRecord(
        client_id=draw(st.integers(0, 2)),
        kind=kind,
        invoked_at=invoked_at,
        responded_at=invoked_at + draw(st.integers(0, 4)),
        success=success,
        value=pair.value if success else None,
        timestamp=pair.timestamp if success else None,
        quorum=draw(st.none() | servers),
        attempted_pair=pair if kind == "write" else None,
    )


@st.composite
def windows(draw) -> list[EpochWindow]:
    """One to three windows: contiguous, gapped or overlapping, some memberless."""
    found = []
    for index in range(draw(st.integers(1, 3))):
        start = float(draw(st.integers(0, 12)))
        found.append(
            EpochWindow(
                index=index,
                start=start,
                end=start + draw(st.integers(1, 8) | st.just(float("inf"))),
                members=draw(servers),
            )
        )
    return found


histories = st.lists(operations(), max_size=8)


@settings(max_examples=400, deadline=None)
@given(records=histories, initial=st.just(ZERO) | pairs)
def test_oracle_agrees_without_epochs(records, initial):
    check = check_register_history(records, initial_pair=initial)
    assert verdict(check) == oracle(records, initial)


@settings(max_examples=400, deadline=None)
@given(records=histories, epochs=windows())
def test_oracle_agrees_with_epochs(records, epochs):
    check = check_register_history(records, epochs=epochs)
    assert verdict(check) == oracle(records, epochs=epochs)
    # Membership knowledge only ever adds the membership counter.
    plain = verdict(check_register_history(records))
    assert {**verdict(check), "foreign_quorum_members": 0, "ok": plain["ok"]} == plain


@pytest.mark.parametrize("scenario", ["reconfig-churn", "reconfig-growth"])
@pytest.mark.parametrize("seed", [3, 11])
def test_oracle_agrees_on_stitched_reconfig_histories(scenario, seed):
    system = MGrid(5, 1)
    spec = api.build_scenario(
        scenario, system.universe, b=1, rng=np.random.default_rng(seed)
    ).membership
    result = run_event_workload(
        system,
        scenario=spec.build(system.universe),
        b=1,
        num_clients=4,
        operations_per_client=12,
        rng=np.random.default_rng(seed),
        keep_history=True,
    )
    assert verdict(result.check) == oracle(result.history, epochs=result.windows)
    assert result.check.ok
