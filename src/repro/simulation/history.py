"""Concurrent-history recording and checking for the replicated register.

The event-driven simulator produces *histories*: per-operation records with
real (simulated) invocation and response times, so operations of different
clients genuinely overlap.  This module checks such histories against the
register semantics the paper's ``2b + 1``-intersection argument guarantees —
a linearizability-style analysis specialised to the [MR98a] masking-quorum
register.

What the protocol guarantees (and the checker asserts), with at most ``b``
Byzantine servers:

* **Unique write timestamps** — every write operation carries a distinct
  ``(counter, client_id)`` timestamp: counters grow monotonically per client
  and the client id breaks cross-client ties.
* **Per-client monotonicity** — a client's successive writes carry strictly
  increasing timestamps.
* **Real-time write order** — if write ``A`` completed before write ``B``
  was invoked, then ``ts(B) > ts(A)``: ``B``'s timestamp query intersects
  ``A``'s write quorum in at least ``b + 1`` honest servers, so ``B`` picks
  a larger timestamp.
* **No fabrication** — a successful read returns the initial pair or a pair
  some write operation actually produced (a pair vouched by ``b + 1``
  members of the read quorum contains at least one honest voucher).  A read
  concurrent with a write may return the old *or* the new value — but never
  a Byzantine invention.
* **No stale reads** — a successful read's timestamp is at least that of the
  latest write that *completed* before the read was invoked (the
  ``2b + 1``-intersection argument again).

Reads are **not** required to be monotonic across clients (or even within
one client): [MR98a] readers do not write back, so a value from an
incomplete write can be seen by one read and missed by the next.  That is
the well-known gap between the masking register's *regular-like* semantics
and full atomicity, and the checker deliberately does not flag it.

Beyond the masking bound (``2b + 1`` colluders answering reads) fabrication
becomes possible; ``check_register_history`` is exactly the oracle that
detects it, and the negative tests assert that it does.

Epoch boundaries
----------------
A client observes one register, not one per epoch: at a reconfiguration the
``b + 1``-vouched pair of one old-epoch quorum is handed to every member of
the new epoch (``docs/membership.md``), so the five rules above hold over
the *whole* history of a run that reconfigures — timestamps are unique,
per-client monotone and real-time ordered across boundaries, and a
pre-boundary value surfacing after a later completed write is an ordinary
stale read.  ``epochs=`` adds the one rule that needs to know the
membership: an operation acknowledged by a quorum that lies inside no
:class:`EpochWindow` overlapping its interval is a
``foreign_quorum_members`` violation (a severed server answered).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import SimulationError
from repro.simulation.client import OperationResult
from repro.simulation.messages import Timestamp, ValueTimestampPair, freeze_value

__all__ = [
    "EpochWindow",
    "HistoryCheck",
    "HistoryRecorder",
    "OperationRecord",
    "check_register_history",
    "dump_history_jsonl",
    "freeze_value",
    "load_history_jsonl",
    "record_from_dict",
    "record_to_dict",
]


@dataclass(frozen=True)
class OperationRecord:
    """One completed operation of a concurrent history.

    ``attempted_pair`` is the ``(value, timestamp)`` pair a write tried to
    install — present even when the write failed after its timestamp phase,
    because a *partially* installed pair can legitimately surface in a later
    read and the checker must not call that fabrication.
    """

    client_id: int
    kind: str  # "read" | "write"
    invoked_at: float
    responded_at: float
    success: bool
    value: object = None
    timestamp: Timestamp | None = None
    quorum: frozenset | None = None
    attempts: int = 0
    attempted_pair: ValueTimestampPair | None = None

    @property
    def pair(self) -> ValueTimestampPair | None:
        """The value/timestamp pair this operation wrote or returned."""
        if self.kind == "write":
            return self.attempted_pair
        if self.success:
            return ValueTimestampPair(value=self.value, timestamp=self.timestamp)
        return None


class HistoryRecorder:
    """Collects :class:`OperationRecord` entries as operations complete.

    Handed to :class:`~repro.simulation.client.AsyncQuorumClient` instances;
    all clients of one run share a recorder, so the records interleave in
    completion order with genuine overlapping intervals.
    """

    def __init__(self, initial_pair: ValueTimestampPair | None = None):
        self.initial_pair = (
            initial_pair
            if initial_pair is not None
            else ValueTimestampPair(value=None, timestamp=Timestamp.zero())
        )
        self.records: list[OperationRecord] = []

    def record(
        self,
        *,
        client_id: int,
        kind: str,
        invoked_at: float,
        responded_at: float,
        result: OperationResult,
        attempted_pair: ValueTimestampPair | None = None,
    ) -> None:
        """Append one completed operation."""
        self.records.append(
            OperationRecord(
                client_id=client_id,
                kind=kind,
                invoked_at=invoked_at,
                responded_at=responded_at,
                success=result.success,
                value=result.value,
                timestamp=result.timestamp,
                quorum=result.quorum,
                attempts=result.attempts,
                attempted_pair=attempted_pair,
            )
        )

    def check(self, *, max_violations: int = 20) -> "HistoryCheck":
        """Run :func:`check_register_history` over the collected records."""
        return check_register_history(
            self.records, initial_pair=self.initial_pair, max_violations=max_violations
        )


@dataclass(frozen=True)
class EpochWindow:
    """One membership epoch projected onto the simulated time axis.

    ``members`` is the epoch's member set.  Windows are half-open
    ``[start, end)``; the final window may use ``float("inf")`` as its end.
    """

    index: int
    start: float
    end: float
    members: frozenset = field(default_factory=frozenset)

    def covers(self, invoked_at: float, responded_at: float) -> bool:
        """Whether the operation's interval overlaps this window."""
        return invoked_at < self.end and responded_at >= self.start


@dataclass(frozen=True)
class HistoryCheck:
    """Outcome of checking one concurrent history.

    ``violations`` holds human-readable descriptions (capped); the counters
    classify them: fabricated reads (value no write produced), stale reads
    (older than the last completed write), write-order violations (real-time
    order not reflected in timestamps), duplicate write timestamps, and —
    under ``epochs=`` — quorums containing servers severed from every
    covering epoch.
    """

    operations: int
    concurrent_pairs: int
    fabricated_reads: int = 0
    stale_reads: int = 0
    write_order_violations: int = 0
    duplicate_write_timestamps: int = 0
    foreign_quorum_members: int = 0
    violations: tuple = ()

    @property
    def safety_violations(self) -> int:
        """Every counted violation except stale reads, which reports keep
        apart (staleness is a freshness failure, the rest are safety ones)."""
        return (
            self.fabricated_reads
            + self.write_order_violations
            + self.duplicate_write_timestamps
            + self.foreign_quorum_members
        )

    @property
    def ok(self) -> bool:
        """Whether the history satisfies the masked-register semantics."""
        return self.safety_violations == 0 and self.stale_reads == 0


def _count_concurrent_pairs(records: Sequence[OperationRecord]) -> int:
    """How many operation pairs genuinely overlap in time (concurrency gauge).

    Two operations overlap when each was invoked before the other responded
    (intervals merely touching do not count).  Counted as total pairs minus
    disjoint pairs, so pairs invoked at the *same* instant — every client's
    first operation under the default zero think time — are counted too.
    """
    total = len(records)
    ends = sorted(record.responded_at for record in records)
    disjoint = 0
    instantaneous: dict[float, int] = {}
    for record in records:
        # Pairs where the other operation responded at-or-before this one's
        # invocation are disjoint, counted from their later member.  An
        # instantaneous operation would count itself here, so exclude it.
        predecessors = bisect_right(ends, record.invoked_at)
        if record.responded_at <= record.invoked_at:
            predecessors -= 1
            instantaneous[record.invoked_at] = (
                instantaneous.get(record.invoked_at, 0) + 1
            )
        disjoint += predecessors
    # Two instantaneous operations at the same instant are disjoint in both
    # directions and got counted twice; remove the double count.
    disjoint -= sum(k * (k - 1) // 2 for k in instantaneous.values())
    return total * (total - 1) // 2 - disjoint


def check_register_history(
    records: Iterable[OperationRecord],
    *,
    initial_pair: ValueTimestampPair | None = None,
    max_violations: int = 20,
    epochs: Sequence[EpochWindow] | None = None,
) -> HistoryCheck:
    """Check a concurrent history against the masking-register semantics.

    See the module docstring for the exact properties.  The check is
    ``O(n log n)`` in the number of operations: real-time precedence uses a
    prefix-maximum over completion-sorted successful writes.

    With ``epochs`` (the :class:`EpochWindow` of every membership epoch the
    history spans) the same rules run over the whole history and one more
    counter, ``foreign_quorum_members``, flags each successful operation
    whose quorum lies inside no epoch overlapping its interval.
    """
    records = list(records)
    initial = (
        initial_pair
        if initial_pair is not None
        else ValueTimestampPair(value=None, timestamp=Timestamp.zero())
    )
    if epochs is not None and not epochs:
        raise SimulationError("epochs must contain at least one EpochWindow")
    violations: list[str] = []
    fabricated = stale = order_violations = duplicates = foreign = 0

    def note(message: str) -> None:
        if len(violations) < max_violations:
            violations.append(message)

    writes = [record for record in records if record.kind == "write"]
    reads = [record for record in records if record.kind == "read"]

    # --- unique write timestamps (all attempts that produced a pair).
    seen: dict[Timestamp, OperationRecord] = {}
    for record in writes:
        if record.attempted_pair is None:
            continue
        timestamp = record.attempted_pair.timestamp
        if timestamp in seen:
            duplicates += 1
            note(
                f"writes by clients {seen[timestamp].client_id} and "
                f"{record.client_id} share timestamp {timestamp}"
            )
        else:
            seen[timestamp] = record

    # --- per-client strictly increasing write timestamps.
    last_by_client: dict[int, Timestamp] = {}
    for record in sorted(writes, key=lambda item: item.invoked_at):
        if record.attempted_pair is None:
            continue
        timestamp = record.attempted_pair.timestamp
        previous = last_by_client.get(record.client_id)
        if previous is not None and not timestamp > previous:
            order_violations += 1
            note(
                f"client {record.client_id} wrote {timestamp} after {previous}"
            )
        last_by_client[record.client_id] = timestamp

    # --- real-time order and staleness via a prefix max over completions.
    completed = sorted(
        (record for record in writes if record.success),
        key=lambda item: item.responded_at,
    )
    completion_times = [record.responded_at for record in completed]
    prefix_max: list[Timestamp] = []
    best = initial.timestamp
    for record in completed:
        if record.timestamp > best:
            best = record.timestamp
        prefix_max.append(best)

    def latest_completed_before(time: float) -> Timestamp:
        """Largest timestamp among successful writes completed before ``time``."""
        index = bisect_left(completion_times, time)
        if index == 0:
            return initial.timestamp
        return prefix_max[index - 1]

    for record in completed:
        floor = latest_completed_before(record.invoked_at)
        if not record.timestamp > floor:
            order_violations += 1
            note(
                f"write {record.timestamp} by client {record.client_id} does not "
                f"exceed {floor}, installed by a write that completed before it began"
            )

    # --- reads: no fabrication, no staleness.
    legitimate = {initial}
    for record in writes:
        if record.attempted_pair is not None:
            legitimate.add(record.attempted_pair)

    for record in reads:
        if not record.success:
            continue  # aborted/unavailable reads make no claim
        pair = ValueTimestampPair(value=record.value, timestamp=record.timestamp)
        if pair not in legitimate:
            fabricated += 1
            note(
                f"read by client {record.client_id} returned {pair.value!r} @ "
                f"{pair.timestamp}, which no write produced"
            )
            continue
        floor = latest_completed_before(record.invoked_at)
        if record.timestamp < floor:
            stale += 1
            note(
                f"read by client {record.client_id} returned {record.timestamp}, "
                f"older than {floor} which was completely written before the read began"
            )

    # --- membership: a quorum must lie inside some epoch covering the operation.
    windows = [window for window in epochs or () if window.members]
    for record in records if windows else ():
        if not record.success or record.quorum is None:
            continue
        covering = [
            window
            for window in windows
            if window.covers(record.invoked_at, record.responded_at)
        ]
        if covering and not any(record.quorum <= window.members for window in covering):
            foreign += 1
            note(
                f"{record.kind} by client {record.client_id} was acknowledged by "
                f"a quorum containing servers outside every covering epoch "
                f"{[window.index for window in covering]} — a severed server answered"
            )

    return HistoryCheck(
        operations=len(records),
        concurrent_pairs=_count_concurrent_pairs(records),
        fabricated_reads=fabricated,
        stale_reads=stale,
        write_order_violations=order_violations,
        duplicate_write_timestamps=duplicates,
        foreign_quorum_members=foreign,
        violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# History serialisation (service logs, golden fixtures).
# ----------------------------------------------------------------------
def _timestamp_to_json(timestamp: Timestamp | None) -> list | None:
    return None if timestamp is None else timestamp.to_pair()


def _timestamp_from_json(raw: object) -> Timestamp | None:
    if raw is None:
        return None
    timestamp = Timestamp.from_pair(raw)
    if timestamp is None:
        raise SimulationError(
            f"a serialised timestamp must be a [counter, client_id] integer pair, got {raw!r}"
        )
    return timestamp


def record_to_dict(record: OperationRecord) -> dict:
    """Serialise one :class:`OperationRecord` to a JSON-stable dict.

    Quorum members and values may be tuples (grid coordinates); they travel
    as JSON arrays and :func:`record_from_dict` freezes them back, so a
    round-tripped history is checker-equivalent to the original.
    """
    attempted = record.attempted_pair
    return {
        "client_id": record.client_id,
        "kind": record.kind,
        "invoked_at": record.invoked_at,
        "responded_at": record.responded_at,
        "success": record.success,
        "value": record.value,
        "timestamp": _timestamp_to_json(record.timestamp),
        "quorum": sorted(record.quorum) if record.quorum is not None else None,
        "attempts": record.attempts,
        "attempted_pair": (
            None
            if attempted is None
            else {
                "value": attempted.value,
                "timestamp": _timestamp_to_json(attempted.timestamp),
            }
        ),
    }


def record_from_dict(payload: dict) -> OperationRecord:
    """Rebuild an :class:`OperationRecord` from :func:`record_to_dict` output."""
    if not isinstance(payload, dict):
        raise SimulationError(f"a serialised record must be a JSON object, got {payload!r}")
    kind = payload.get("kind")
    if kind not in ("read", "write"):
        raise SimulationError(f"serialised record kind must be 'read' or 'write', got {kind!r}")
    try:
        raw_quorum = payload.get("quorum")
        quorum = (
            None
            if raw_quorum is None
            else frozenset(freeze_value(member) for member in raw_quorum)
        )
        raw_attempted = payload.get("attempted_pair")
        if raw_attempted is None:
            attempted = None
        else:
            attempted_timestamp = _timestamp_from_json(raw_attempted.get("timestamp"))
            if attempted_timestamp is None:
                raise SimulationError("a serialised attempted_pair needs a timestamp")
            attempted = ValueTimestampPair(
                value=freeze_value(raw_attempted.get("value")), timestamp=attempted_timestamp
            )
        return OperationRecord(
            client_id=int(payload["client_id"]),
            kind=kind,
            invoked_at=float(payload["invoked_at"]),
            responded_at=float(payload["responded_at"]),
            success=bool(payload["success"]),
            value=freeze_value(payload.get("value")),
            timestamp=_timestamp_from_json(payload.get("timestamp")),
            quorum=quorum,
            attempts=int(payload.get("attempts", 0)),
            attempted_pair=attempted,
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # RecursionError: a value nested too deeply to freeze (or to repr).
        raise SimulationError(f"malformed serialised record: {exc!r}") from None


def dump_history_jsonl(records: Iterable[OperationRecord], path: str | Path) -> int:
    """Write a history as JSON Lines (one record per line); returns the count."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def load_history_jsonl(path: str | Path) -> list[OperationRecord]:
    """Load a JSON Lines history written by :func:`dump_history_jsonl`."""
    records: list[OperationRecord] = []
    try:
        handle = Path(path).open("r", encoding="utf-8")
    except OSError as exc:
        raise SimulationError(f"cannot read history file {path}: {exc}") from None
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SimulationError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from None
            try:
                records.append(record_from_dict(payload))
            except SimulationError as exc:
                raise SimulationError(f"{path}:{line_number}: {exc}") from None
    return records
