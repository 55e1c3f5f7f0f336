"""Replica servers for the masking-quorum replicated register.

A correct replica stores a single ``(value, timestamp)`` pair and serves
three request types: timestamp queries, read queries and (conditional)
writes.  Byzantine replicas answer the same requests but may lie; several
canonical adversarial behaviours are provided, chosen to attack exactly the
properties the masking quorum is supposed to protect (fabricated high
timestamps, stale values, garbage values).  Crashed replicas never answer —
the network layer models that by returning ``None``.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.rng import ensure_rng
from repro.exceptions import ReproError, SimulationError
from repro.simulation.messages import (
    ReadReply,
    ReadRequest,
    Timestamp,
    TimestampReply,
    TimestampRequest,
    ValueTimestampPair,
    WriteAck,
    WriteRequest,
)

__all__ = [
    "ReplicaServer",
    "ByzantineReplicaServer",
    "BYZANTINE_BEHAVIOURS",
    "check_inherited_pair",
]


def check_inherited_pair(
    pair: ValueTimestampPair | None, error: type[ReproError] = SimulationError
) -> None:
    """Raise ``error`` unless a fresh replica would hold the inherited ``pair``.

    A fresh replica starts at the zero pair ``(None, Timestamp.zero())`` and
    :meth:`ReplicaServer.restore` installs only a newer pair, while a
    :class:`~repro.simulation.history.HistoryRecorder` checks the run against
    the inherited pair as given.  So a pair at or below the zero timestamp
    must be the zero pair itself, or honest reads of the zero pair would
    count as fabricated.  ``None`` (nothing inherited) always passes.
    """
    zero = ValueTimestampPair(None, Timestamp.zero())
    if pair is not None and not (pair.timestamp > zero.timestamp or pair == zero):
        raise error(
            f"inherited pair {pair} is not newer than the replicas' zero "
            f"pair {zero}, so no replica would hold it"
        )


class ReplicaServer:
    """A correct replica of the shared register.

    Parameters
    ----------
    server_id:
        The identity of this replica (an element of the quorum system's
        universe).
    initial_value:
        The value held before any write; paired with the zero timestamp.
    """

    def __init__(self, server_id: Hashable, initial_value: object = None):
        self.server_id = server_id
        self._install(ValueTimestampPair(value=initial_value, timestamp=Timestamp.zero()))
        #: Number of requests served, used for empirical load measurements.
        self.access_count = 0
        # Replies are frozen, so one write acknowledgement of each kind
        # serves every write.
        self._acks = (
            WriteAck(server_id=server_id, accepted=False),
            WriteAck(server_id=server_id, accepted=True),
        )

    def _install(self, pair: ValueTimestampPair) -> None:
        """Hold ``pair``; the read and timestamp replies that carry it are
        built on first use and reused until the pair changes."""
        self._pair = pair
        self._read_reply: ReadReply | None = None
        self._timestamp_reply: TimestampReply | None = None

    @property
    def current_pair(self) -> ValueTimestampPair:
        """The replica's current ``(value, timestamp)`` pair."""
        return self._pair

    def restore(self, pair: ValueTimestampPair) -> None:
        """Install recovered state without counting it as an access.

        The durable-storage recovery path (:mod:`repro.storage`) calls this
        once, before the replica serves any request, so a restarted process
        answers with its pre-crash register instead of the zero pair.  A
        recovered pair can only be *newer* than the fresh zero state, so the
        protocol's install invariant (timestamps never move backwards) is
        preserved.
        """
        if pair.timestamp > self._pair.timestamp:
            self._install(pair)

    # ------------------------------------------------------------------
    # Request handlers.
    # ------------------------------------------------------------------
    def handle(self, request: object) -> TimestampReply | ReadReply | WriteAck:
        """Answer one request: the entry point every host calls.

        The event network, the TCP service and the test loopback all reach
        the state machine through here; the reply's type is the one
        :data:`~repro.simulation.messages.REPLY_TYPE` pairs with the
        request's.  The per-type handlers below are what subclasses override.
        """
        if isinstance(request, ReadRequest):
            return self.handle_read(request)
        if isinstance(request, TimestampRequest):
            return self.handle_timestamp(request)
        if isinstance(request, WriteRequest):
            return self.handle_write(request)
        raise SimulationError(f"unsupported request type {type(request).__name__}")

    def handle_timestamp(self, request: TimestampRequest) -> TimestampReply:
        """Return the timestamp of the currently stored value."""
        self.access_count += 1
        reply = self._timestamp_reply
        if reply is None:
            reply = TimestampReply(server_id=self.server_id, timestamp=self._pair.timestamp)
            self._timestamp_reply = reply
        return reply

    def handle_read(self, request: ReadRequest) -> ReadReply:
        """Return the currently stored ``(value, timestamp)`` pair."""
        self.access_count += 1
        reply = self._read_reply
        if reply is None:
            reply = ReadReply(server_id=self.server_id, pair=self._pair)
            self._read_reply = reply
        return reply

    def handle_write(self, request: WriteRequest) -> WriteAck:
        """Install the written pair if it is newer than the stored one."""
        self.access_count += 1
        accepted = request.pair.timestamp > self._pair.timestamp
        if accepted:
            self._install(request.pair)
        return self._acks[accepted]


class ByzantineReplicaServer(ReplicaServer):
    """A replica under adversarial control.

    The behaviour parameter selects the lie told to readers:

    * ``"fabricate-timestamp"`` — report a bogus value with an enormous
      timestamp to *every* query, attempting to trick readers into returning
      it.  The masking read rule (accept only pairs vouched for by ``b + 1``
      servers) must defeat this as long as at most ``b`` replicas collude.
    * ``"forge-on-read"`` — answer timestamp queries honestly (so writers do
      not learn about the forgery and cannot outrun it) but forge read
      replies.  This is the strongest read attack: with ``2b + 1`` colluders
      it reliably corrupts reads, demonstrating that the masking bound is
      tight.
    * ``"stale"`` — always report the initial (outdated) pair, attempting to
      make readers miss completed writes.
    * ``"random-value"`` — report a random value with the current timestamp.
    * ``"drop-writes"`` — behave correctly for reads but silently discard
      writes (a correctness attack on the writer's quorum).

    Colluding replicas share ``collusion_token`` so that their fabricated
    answers agree with each other — the strongest version of the attack.
    """

    def __init__(
        self,
        server_id: Hashable,
        behaviour: str = "fabricate-timestamp",
        *,
        rng: np.random.Generator | None = None,
        collusion_token: object = "forged-value",
        initial_value: object = None,
    ):
        super().__init__(server_id, initial_value=initial_value)
        if behaviour not in BYZANTINE_BEHAVIOURS:
            raise SimulationError(
                f"unknown Byzantine behaviour {behaviour!r}; "
                f"choose one of {sorted(BYZANTINE_BEHAVIOURS)}"
            )
        self.behaviour = behaviour
        self.rng = ensure_rng(rng)
        self.collusion_token = collusion_token
        self._initial_pair = self._pair

    # Each handler counts the access exactly once: the delegating paths leave
    # the increment to the base-class handler, the lying paths do it
    # themselves.  (Byzantine replicas used to increment *and* fall through
    # to ``super()``, reporting up to 2x their true empirical load.)
    def handle_timestamp(self, request: TimestampRequest) -> TimestampReply:
        if self.behaviour == "fabricate-timestamp":
            self.access_count += 1
            return TimestampReply(
                server_id=self.server_id, timestamp=Timestamp(10**9, int(1e6))
            )
        if self.behaviour == "stale":
            self.access_count += 1
            return TimestampReply(
                server_id=self.server_id, timestamp=self._initial_pair.timestamp
            )
        return super().handle_timestamp(request)

    def handle_read(self, request: ReadRequest) -> ReadReply:
        if self.behaviour in ("fabricate-timestamp", "forge-on-read"):
            self.access_count += 1
            forged = ValueTimestampPair(
                value=self.collusion_token, timestamp=Timestamp(10**9, int(1e6))
            )
            return ReadReply(server_id=self.server_id, pair=forged)
        if self.behaviour == "stale":
            self.access_count += 1
            return ReadReply(server_id=self.server_id, pair=self._initial_pair)
        if self.behaviour == "random-value":
            self.access_count += 1
            forged = ValueTimestampPair(
                value=("garbage", int(self.rng.integers(1_000_000))),
                timestamp=self._pair.timestamp,
            )
            return ReadReply(server_id=self.server_id, pair=forged)
        return super().handle_read(request)

    def handle_write(self, request: WriteRequest) -> WriteAck:
        if self.behaviour == "drop-writes":
            self.access_count += 1
            return WriteAck(server_id=self.server_id, accepted=True)  # lies about accepting
        return super().handle_write(request)


#: The recognised Byzantine behaviours.
BYZANTINE_BEHAVIOURS = frozenset(
    {"fabricate-timestamp", "forge-on-read", "stale", "random-value", "drop-writes"}
)
