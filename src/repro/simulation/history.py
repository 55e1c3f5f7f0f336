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
With ``epochs=`` the checker extends the same rules across membership
reconfigurations (``docs/membership.md``).  Each :class:`EpochWindow` carries
the epoch's member set and its own masking parameter ``b``; the register
reinitialises at each reconfiguration (no state transfer), so write checks
run *per epoch* with the epoch's own ``b``, while reads get the boundary
rule: a read overlapping a reconfiguration may return a value legitimate in
**some** covering epoch, but a value from an already-evicted epoch is a
``cross_epoch_reads`` violation and a quorum containing servers outside every
covering epoch's membership is a ``foreign_quorum_members`` violation (a
severed server acknowledged the operation).
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

    ``members`` is the epoch's member set and ``b`` its own masking
    parameter (a reconfiguration may change how many faults the epoch's
    quorum system masks).  Windows are half-open ``[start, end)``; the final
    window may use ``float("inf")`` as its end.
    """

    index: int
    start: float
    end: float
    members: frozenset = field(default_factory=frozenset)
    b: int = 0

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
    under ``epochs=`` — reads returning values from evicted epochs and
    quorums containing servers severed from every covering epoch.
    """

    operations: int
    concurrent_pairs: int
    fabricated_reads: int = 0
    stale_reads: int = 0
    write_order_violations: int = 0
    duplicate_write_timestamps: int = 0
    cross_epoch_reads: int = 0
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
            + self.cross_epoch_reads
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

    With ``epochs`` (sorted :class:`EpochWindow` list) the history spans
    membership reconfigurations: write checks run per epoch with the epoch's
    own ``b``, reads apply the covering-epoch boundary rule, and two extra
    counters (``cross_epoch_reads``, ``foreign_quorum_members``) classify
    the reconfiguration-specific violations.
    """
    records = list(records)
    initial = (
        initial_pair
        if initial_pair is not None
        else ValueTimestampPair(value=None, timestamp=Timestamp.zero())
    )
    if epochs is not None:
        return _check_epoch_history(records, initial, max_violations, list(epochs))
    violations: list[str] = []
    fabricated = stale = order_violations = duplicates = 0

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

    return HistoryCheck(
        operations=len(records),
        concurrent_pairs=_count_concurrent_pairs(records),
        fabricated_reads=fabricated,
        stale_reads=stale,
        write_order_violations=order_violations,
        duplicate_write_timestamps=duplicates,
        violations=tuple(violations),
    )


def _check_epoch_history(
    records: list[OperationRecord],
    initial: ValueTimestampPair,
    max_violations: int,
    windows: list[EpochWindow],
) -> HistoryCheck:
    """Check a history spanning membership reconfigurations.

    The register reinitialises at each reconfiguration, so the classic
    single-epoch checks run independently over each epoch's writes (each
    epoch restarts from ``initial`` and enforces its own timestamp order),
    while reads are checked centrally with the boundary rule: the returned
    pair must be legitimate in the read's primary epoch (then the epoch-local
    staleness floor applies) or in *some other epoch covering* the read's
    interval; a pair only ever produced in an earlier, non-covering epoch is
    a cross-epoch read, and anything else is fabrication.
    """
    if not windows:
        raise SimulationError("epochs must contain at least one EpochWindow")
    for earlier, later in zip(windows, windows[1:]):
        if later.start < earlier.start:
            raise SimulationError("epoch windows must be sorted by start time")
    starts = [window.start for window in windows]

    def primary_of(record: OperationRecord) -> int:
        return max(bisect_right(starts, record.invoked_at) - 1, 0)

    def covering(record: OperationRecord) -> list[int]:
        positions = [
            position
            for position, window in enumerate(windows)
            if window.covers(record.invoked_at, record.responded_at)
        ]
        primary = primary_of(record)
        if primary not in positions:
            positions.append(primary)
        return positions

    violations: list[str] = []
    fabricated = stale = order_violations = duplicates = 0
    cross_epoch = foreign = 0

    def note(message: str) -> None:
        if len(violations) < max_violations:
            violations.append(message)

    writes_by_epoch: dict[int, list[OperationRecord]] = {}
    for record in records:
        if record.kind == "write":
            writes_by_epoch.setdefault(primary_of(record), []).append(record)

    # Classic per-epoch write checks: each epoch restarts from the initial
    # pair, so unique timestamps / monotonicity / real-time order are all
    # epoch-local properties.
    for position, epoch_writes in sorted(writes_by_epoch.items()):
        sub_check = check_register_history(
            epoch_writes, initial_pair=initial, max_violations=max_violations
        )
        duplicates += sub_check.duplicate_write_timestamps
        order_violations += sub_check.write_order_violations
        for message in sub_check.violations:
            note(f"[epoch {windows[position].index}] {message}")

    # Staleness floors and legitimate pairs, one set per epoch.
    floor_fns = {
        position: _write_floor(epoch_writes, initial.timestamp)
        for position, epoch_writes in writes_by_epoch.items()
    }
    legitimate: dict[int, set] = {}
    for position in range(len(windows)):
        pairs = {initial}
        for record in writes_by_epoch.get(position, ()):
            if record.attempted_pair is not None:
                pairs.add(record.attempted_pair)
        legitimate[position] = pairs

    for record in records:
        if not record.success or record.quorum is None:
            continue
        positions = covering(record)
        with_members = [
            position for position in positions if windows[position].members
        ]
        if with_members and not any(
            record.quorum <= windows[position].members for position in with_members
        ):
            foreign += 1
            epoch_ids = [windows[position].index for position in with_members]
            note(
                f"{record.kind} by client {record.client_id} was acknowledged by "
                f"a quorum containing servers outside every covering epoch "
                f"{epoch_ids} — a severed server answered"
            )

    for record in records:
        if record.kind != "read" or not record.success:
            continue
        pair = ValueTimestampPair(value=record.value, timestamp=record.timestamp)
        primary = primary_of(record)
        positions = covering(record)
        if pair in legitimate[primary]:
            floor_fn = floor_fns.get(primary)
            floor = floor_fn(record.invoked_at) if floor_fn else initial.timestamp
            if record.timestamp < floor:
                stale += 1
                note(
                    f"[epoch {windows[primary].index}] read by client "
                    f"{record.client_id} returned {record.timestamp}, older than "
                    f"{floor} which was completely written before the read began"
                )
        elif any(
            pair in legitimate[position] for position in positions if position != primary
        ):
            pass  # boundary rule: legitimate in a covering epoch
        elif any(
            pair in legitimate[position]
            for position in range(primary)
            if position not in positions
        ):
            cross_epoch += 1
            note(
                f"read by client {record.client_id} returned {pair.value!r} @ "
                f"{pair.timestamp} from an epoch evicted before the read began"
            )
        else:
            fabricated += 1
            note(
                f"[epoch {windows[primary].index}] read by client "
                f"{record.client_id} returned {pair.value!r} @ {pair.timestamp}, "
                f"which no write produced in any covering epoch"
            )

    return HistoryCheck(
        operations=len(records),
        concurrent_pairs=_count_concurrent_pairs(records),
        fabricated_reads=fabricated,
        stale_reads=stale,
        write_order_violations=order_violations,
        duplicate_write_timestamps=duplicates,
        cross_epoch_reads=cross_epoch,
        foreign_quorum_members=foreign,
        violations=tuple(violations),
    )


def _write_floor(writes: Sequence[OperationRecord], initial_timestamp: Timestamp):
    """Build the epoch-local staleness floor over completed writes.

    Returns a closure mapping a time to the largest timestamp among
    successful writes that completed strictly before it (the same
    prefix-maximum the single-epoch path uses).
    """
    completed = sorted(
        (record for record in writes if record.success),
        key=lambda item: item.responded_at,
    )
    completion_times = [record.responded_at for record in completed]
    prefix_max: list[Timestamp] = []
    best = initial_timestamp
    for record in completed:
        if record.timestamp > best:
            best = record.timestamp
        prefix_max.append(best)

    def latest_completed_before(time: float) -> Timestamp:
        index = bisect_left(completion_times, time)
        if index == 0:
            return initial_timestamp
        return prefix_max[index - 1]

    return latest_completed_before


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
