"""Message types exchanged by the replicated-register protocol.

The masking-quorum read/write protocol of [MR98a] (the protocol the paper's
quorum systems are designed for) uses four message kinds: a timestamp query
and its reply (used by writers to pick a fresh timestamp), and a read query
and its reply (used by readers to collect candidate value/timestamp pairs).
Write requests carry the new value and timestamp and are acknowledged.

All messages are immutable dataclasses; timestamps are
:class:`Timestamp` objects ordered lexicographically by ``(counter,
client_id)`` so that two writers never produce the same timestamp.

The ``(value, timestamp)`` pair is also everything the live stack sends or
stores, and Lemma 3.6's ``b + 1`` vouch compares pairs by equality, so its
serialised form is stated here once (:meth:`ValueTimestampPair.to_json` /
:meth:`~ValueTimestampPair.from_json`): wire frames, ``STATUS`` replies, WAL
records and snapshots all decode a pair through the same code.
:data:`REPLY_TYPE` pairs each request with the reply that answers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

__all__ = [
    "REPLY_TYPE",
    "Timestamp",
    "ValueTimestampPair",
    "TimestampRequest",
    "TimestampReply",
    "ReadRequest",
    "ReadReply",
    "WriteRequest",
    "WriteAck",
    "freeze_value",
]


def freeze_value(value: object) -> object:
    """Recursively turn JSON containers into hashable equivalents.

    Lists become tuples and dicts become sorted ``(key, value)`` tuples, so a
    value that travelled through JSON (the service wire, a log record, a
    history file) compares and hashes equal to the tuple-shaped value a
    writer produced.  The checker relies on this: legitimate pairs live in a
    set.
    """
    if isinstance(value, list):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, freeze_value(item)) for key, item in value.items()))
    return value


@dataclass(frozen=True, order=True)
class Timestamp:
    """A logical timestamp ``(counter, client_id)``.

    Ordered first by counter, then by client identifier (the field order),
    so that concurrent writers choosing the same counter are still totally
    ordered and a writer can always generate a timestamp strictly larger
    than any it has seen.
    """

    counter: int
    client_id: int

    def next_for(self, client_id: int) -> "Timestamp":
        """Return a timestamp strictly greater than this one, owned by ``client_id``."""
        return Timestamp(self.counter + 1, client_id)

    @staticmethod
    def zero() -> "Timestamp":
        """The initial timestamp carried by unwritten replicas."""
        return Timestamp(0, -1)

    def to_pair(self) -> list[int]:
        """The serialised ``[counter, client_id]`` form (wire frames, WAL
        records, snapshots, history logs)."""
        return [int(self.counter), int(self.client_id)]

    @staticmethod
    def from_pair(raw: object) -> "Timestamp | None":
        """Decode :meth:`to_pair`'s form from outside input; ``None`` unless
        ``raw`` is exactly a pair of integers (``bool`` and ``float`` are not)."""
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or not all(isinstance(part, int) and not isinstance(part, bool) for part in raw)
        ):
            return None
        return Timestamp(counter=raw[0], client_id=raw[1])


@dataclass(frozen=True)
class ValueTimestampPair:
    """A candidate ``(value, timestamp)`` pair returned by a replica."""

    value: object
    timestamp: Timestamp

    def to_json(self) -> dict:
        """The serialised ``{"value": ..., "ts": [counter, client_id]}`` form
        (wire frames, ``STATUS`` replies, WAL records, snapshots)."""
        return {"value": self.value, "ts": self.timestamp.to_pair()}

    @staticmethod
    def from_json(payload: object) -> "ValueTimestampPair | None":
        """Decode :meth:`to_json`'s form from outside input; ``None`` unless
        ``payload`` is an object whose ``"ts"`` passes
        :meth:`Timestamp.from_pair`.  The value (``None`` when absent) is
        already JSON-born, so it is frozen, not re-serialised."""
        if not isinstance(payload, dict):
            return None
        timestamp = Timestamp.from_pair(payload.get("ts"))
        if timestamp is None:
            return None
        return ValueTimestampPair(freeze_value(payload.get("value")), timestamp)


@dataclass(frozen=True)
class TimestampRequest:
    """Ask a replica for the timestamp of its current value."""

    client_id: int


@dataclass(frozen=True)
class TimestampReply:
    """A replica's current timestamp."""

    server_id: Hashable
    timestamp: Timestamp


@dataclass(frozen=True)
class ReadRequest:
    """Ask a replica for its current value and timestamp."""

    client_id: int


@dataclass(frozen=True)
class ReadReply:
    """A replica's current ``(value, timestamp)`` pair."""

    server_id: Hashable
    pair: ValueTimestampPair


@dataclass(frozen=True)
class WriteRequest:
    """Install ``pair`` at a replica if it is newer than what the replica holds."""

    client_id: int
    pair: ValueTimestampPair


@dataclass(frozen=True)
class WriteAck:
    """Acknowledgement of a write request."""

    server_id: Hashable
    accepted: bool


#: The reply type that answers each request type — what
#: :meth:`repro.simulation.server.ReplicaServer.handle` returns, and what a
#: client may accept back from a replica it does not trust.
REPLY_TYPE: dict[type, type] = {
    TimestampRequest: TimestampReply,
    ReadRequest: ReadReply,
    WriteRequest: WriteAck,
}
