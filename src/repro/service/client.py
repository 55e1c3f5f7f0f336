"""Async client library for the networked masking-quorum register.

:class:`ServiceQuorumClient` is the asyncio driver of the one protocol core,
:class:`~repro.simulation.client.ProtocolCore`: quorum choice, suspicion, the
two-phase write, the ``b + 1``-vouched read, retries, accounting and the
:class:`~repro.simulation.history.HistoryRecorder` record all run in the very
code the simulator's clients run — so a live run yields a history the PR-3
checker and the conformance suite consume unchanged.

What lives here is transport only: replicas are ``(host, port)`` endpoints
keyed by universe element, each broadcast the core asks for becomes one frame
exchange per member over per-server TCP connections (opened lazily, reused
across operations), and the clock is ``time.monotonic``.

A broadcast has **one deadline**: one task per member, one
``asyncio.wait(..., timeout=request_timeout)`` over all of them
(``request_timeout``, real seconds, from the same
:class:`~repro.simulation.client.RetryPolicy` the simulator uses).  Connect,
send and receive of a member share it; silence is any transport failure, or
no reply by then.

A pooled connection carries no request ids — a reply answers the request
before it, by position — so a connection with a request **in flight** is
poisoned: whatever is read from it next is the answer to a question nobody is
asking any more.  Hence the rule: however a broadcast ends (deadline, an
exchange's error, the caller's cancellation), every member whose exchange is
unfinished has its connection aborted and forgotten, and the next operation
reconnects.
"""

from __future__ import annotations

import asyncio
import time
from typing import Hashable, Mapping

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import ServiceError, WireProtocolError
from repro.service import wire
from repro.simulation.client import (
    Operation,
    OperationResult,
    ProtocolCore,
    RetryPolicy,
    advance,
)
from repro.simulation.history import HistoryRecorder
from repro.simulation.messages import REPLY_TYPE

__all__ = ["ServiceQuorumClient", "call_endpoint"]


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:  # the peer reset or vanished first: closed either way
        pass


async def call_endpoint(
    host: str, port: int, payload: dict, *, timeout: float = 5.0
) -> dict:
    """One-shot request/reply exchange with a replica endpoint.

    Used for STATUS / METRICS / STALL / RESUME control frames; protocol
    operations go through :class:`ServiceQuorumClient`, which pools
    connections.  Raises :class:`~repro.exceptions.ServiceError` on
    connection failure or timeout and
    :class:`~repro.exceptions.WireProtocolError` on a malformed reply.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ServiceError(f"cannot reach replica at {host}:{port}: {exc}") from None
    try:
        await asyncio.wait_for(wire.write_frame(writer, payload), timeout)
        reply = await asyncio.wait_for(wire.read_frame(reader), timeout)
    except asyncio.TimeoutError:
        raise ServiceError(
            f"replica at {host}:{port} did not answer a "
            f"{payload.get('type')} frame within {timeout}s"
        ) from None
    except OSError as exc:
        # E.g. a replica killed between accept and reply resets the connection.
        raise ServiceError(
            f"connection to replica at {host}:{port} failed mid-exchange: {exc}"
        ) from None
    finally:
        await _close_writer(writer)
    if reply is None:
        raise WireProtocolError(f"replica at {host}:{port} closed without replying")
    return reply


class ServiceQuorumClient(ProtocolCore):
    """The asyncio driver: a client of live replica processes.

    Parameters
    ----------
    client_id / system / b / rng / strategy:
        As for the simulator clients; ``b`` sets the read vouch threshold.
    endpoints:
        ``{universe element: (host, port)}`` for every replica this client
        may address.  Must cover the whole universe — a quorum can land on
        any member.
    policy:
        The PR-3 :class:`~repro.simulation.client.RetryPolicy`;
        ``request_timeout`` is interpreted in real seconds here.
    history:
        Shared :class:`~repro.simulation.history.HistoryRecorder`; operation
        intervals use a monotonic wall clock, so records from all clients of
        one process interleave on a common time axis.
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        endpoints: Mapping[Hashable, tuple[str, int]],
        *,
        b: int,
        policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        strategy: Strategy | None = None,
        history: HistoryRecorder | None = None,
    ):
        super().__init__(
            client_id,
            system,
            b=b,
            policy=policy,
            rng=rng,
            strategy=strategy,
            history=history,
            clock=time.monotonic,
        )
        missing = [
            element for element in system.universe if element not in endpoints
        ]
        if missing:
            raise ServiceError(
                f"endpoints missing for {len(missing)} universe members, "
                f"e.g. {missing[0]!r}"
            )
        self.endpoints = dict(endpoints)
        self._connections: dict[Hashable, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------
    async def _exchange(self, server_id: Hashable, request: object) -> object | None:
        """Send one request frame to one replica; ``None`` models silence.

        Any transport failure (refused connection, reset, protocol violation
        — a reply of the wrong type for the request, or more than one reply,
        included) is silence from the protocol's point of view — exactly how
        the simulator's network returns ``None`` for crashed servers.  The
        connection is dropped on failure so the next probe reconnects.

        Nothing here is bounded in time: :meth:`_broadcast` holds the one
        deadline, and cancels this coroutine when it passes.
        """
        try:
            connection = self._connections.get(server_id)
            if connection is None:
                connection = await asyncio.open_connection(*self.endpoints[server_id])
                self._connections[server_id] = connection
            reader, writer = connection
            await wire.write_frame(writer, wire.request_to_frame(request))
            payload = await wire.read_frame(reader)
            if payload is None:
                raise ConnectionResetError("replica closed the connection")
            reply = wire.frame_to_reply(payload, server_id=server_id)
            if not isinstance(reply, REPLY_TYPE[type(request)]):
                # A lie about the reply's type indicts this replica only.
                raise WireProtocolError(
                    f"{type(reply).__name__} does not answer a {type(request).__name__}"
                )
            if reader._buffer:  # StreamReader has no public "bytes buffered"
                # Whatever follows the reply would answer the next request.
                raise WireProtocolError(f"more than one reply to a {type(request).__name__}")
            return reply
        except (OSError, WireProtocolError):
            self._abort_connection(server_id)
            return None

    def _abort_connection(self, server_id: Hashable) -> None:
        """Forget ``server_id``'s pooled connection and close it at once.

        A connection that failed, or that has a request in flight nobody
        will read the reply to, has nothing worth flushing or waiting for.
        """
        connection = self._connections.pop(server_id, None)
        if connection is not None:
            connection[1].transport.abort()

    async def _broadcast(self, members: list, request: object) -> dict:
        """One exchange per member, all under one ``request_timeout`` deadline.

        Returns ``{member: reply}`` for the members that answered in time.
        However the broadcast ends — deadline, an error in one exchange, or
        the caller's cancellation — a member whose exchange is unfinished
        has its connection aborted, not kept: its request is still in
        flight, and on a pooled connection the late reply would be read as
        the answer to the *next* request.
        """
        tasks = {
            server_id: asyncio.create_task(self._exchange(server_id, request))
            for server_id in members
        }
        try:
            await asyncio.wait(tasks.values(), timeout=self.policy.request_timeout)
        finally:
            for server_id, task in tasks.items():
                if not task.done():
                    task.cancel()
                    self._abort_connection(server_id)
        return {
            server_id: reply
            for server_id, task in tasks.items()
            if task.done() and (reply := task.result()) is not None
        }

    async def close(self) -> None:
        """Close every pooled connection."""
        while self._connections:
            _server_id, (_reader, writer) = self._connections.popitem()
            await _close_writer(writer)

    # ------------------------------------------------------------------
    # Protocol operations.
    # ------------------------------------------------------------------
    async def _drive(self, operation: Operation) -> OperationResult:
        """Perform each broadcast the core asks for, all members at once."""
        try:
            step = advance(operation)
            while not isinstance(step, OperationResult):
                quorum, request = step
                step = advance(operation, await self._broadcast(sorted(quorum), request))
            return step
        finally:
            operation.close()  # a cancelled operation must not leave the client busy

    async def write(self, value: object) -> OperationResult:
        """Write ``value``: query a quorum for timestamps, then install."""
        return await self._drive(self.write_operation(wire.canonical_value(value)))

    async def read(self) -> OperationResult:
        """Read the register, masking up to ``b`` Byzantine replies."""
        return await self._drive(self.read_operation())
