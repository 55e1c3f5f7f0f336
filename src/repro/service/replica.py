"""Asyncio TCP replica server for the masking-quorum register.

One :class:`ReplicaService` wraps one simulator replica state machine
(:class:`~repro.simulation.server.ReplicaServer`, or its Byzantine variant
when the process is playing an adversary) behind a TCP listener speaking the
length-prefixed JSON frame protocol of :mod:`repro.service.wire`.  The
protocol handlers are *exactly* the simulator's — a live replica and a
simulated replica run the same state transitions — so every guarantee the
simulator's tests establish carries over to the wire.

Beyond the three protocol phases the replica answers two introspection
frames (``STATUS`` — identity and health; ``METRICS`` — op counts, the
per-server empirical load counter and service-latency percentiles) and two
fault-injection control frames (``STALL`` freezes protocol replies until
``RESUME``, modelling the *slow/stalled* replica of
:class:`~repro.simulation.faults.FaultScenario` without killing the
process).

The front end is callbacks, not coroutines: the listener is
``loop.create_server`` over one :class:`asyncio.Protocol` per connection,
which feeds received bytes to a :class:`~repro.service.wire.FrameBuffer`,
answers every complete frame through the synchronous
``ReplicaService._handle_frame`` and writes the replies of one received
segment with one ``transport.write`` — no task, future or ``drain()`` per
frame.  Back-pressure is the transport's: above its high-water mark a
connection stops reading, and a stalled replica parks a connection at its
first protocol frame until ``RESUME``.

Each replica is configured from a :class:`~repro.api.registry.SystemSpec`
plus its *index* in the universe order, mirroring how real quorum
deployments ship one config to N processes.  ``port=0`` binds an ephemeral
port; the chosen address is published through an optional *ready file* so a
supervisor can discover it race-free.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, cast

from repro.api.registry import SystemSpec, build
from repro.core.rng import ensure_rng
from repro.exceptions import ServiceError, StorageError, WireProtocolError
from repro.service import wire
from repro.simulation.messages import Timestamp, WriteRequest
from repro.simulation.server import (
    BYZANTINE_BEHAVIOURS,
    ByzantineReplicaServer,
    ReplicaServer,
)
from repro.storage import DurableStore, FsyncPolicy

__all__ = ["ReplicaConfig", "ReplicaService", "run_replica"]

#: Sliding window of per-request service latencies kept for METRICS.
_LATENCY_WINDOW = 4096

#: Frames a stalled replica still answers.
_CONTROL_FRAMES = frozenset({"STATUS", "METRICS", "STALL", "RESUME"})

#: Replies of one received segment go out in one write, unless they outgrow
#: this many bytes (asyncio's default high-water mark): then they are flushed,
#: so that a transport over its limit stops the segment's remaining frames.
_FLUSH_BYTES = 64 * 1024


@dataclass(frozen=True)
class ReplicaConfig:
    """Everything one replica process needs to serve its share of the system.

    Every field but ``initial_value`` is also a ``python -m repro serve``
    flag: the help text is each field's ``metadata["help"]``, and a
    supervisor spawns a replica from its config's argv
    (:func:`repro.api.cli.argv_of`).  ``fsync`` and ``snapshot_every`` are
    ignored without ``data_dir``.
    """

    spec: SystemSpec = field(
        metadata={"help": 'system spec as JSON: {"construction": <name>, "params": {...}}'}
    )
    index: int = field(
        metadata={
            "help": "serve exactly one replica: the universe element at this index, "
            "whose protocol identity it takes (single mode)"
        }
    )
    host: str = field(default="127.0.0.1", metadata={"help": "listen host"})
    port: int = field(default=0, metadata={"help": "listen port (0 = ephemeral)"})
    byzantine_behaviour: str | None = field(
        default=None,
        metadata={
            "help": "make the replica lie: fabricate-timestamp, forge-on-read, stale, "
            "random-value or drop-writes"
        },
    )
    initial_value: object = None
    seed: int = field(default=0, metadata={"help": "seed of the replica's random draws"})
    ready_file: str | None = field(
        default=None,
        metadata={"help": "publish the bound host/port here as JSON once listening"},
    )
    data_dir: str | None = field(
        default=None,
        metadata={
            "help": "durable state directory: writes are journalled there before they are "
            "acked, and a restarted replica recovers from it (omitted = memory-only)"
        },
    )
    fsync: str = field(
        default="always",
        metadata={"help": "write-ahead-log fsync policy: always, interval[:N] or never"},
    )
    snapshot_every: int = field(
        default=1024,
        metadata={
            "help": "journalled writes between snapshot+log-compaction cycles "
            "(0 disables compaction)"
        },
    )

    def __post_init__(self) -> None:
        if self.byzantine_behaviour is not None and (
            self.byzantine_behaviour not in BYZANTINE_BEHAVIOURS
        ):
            raise ServiceError(
                f"unknown Byzantine behaviour {self.byzantine_behaviour!r}; "
                f"choose one of {sorted(BYZANTINE_BEHAVIOURS)}"
            )
        if self.data_dir is not None:
            FsyncPolicy.parse(self.fsync)  # reject a bad policy at config time


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a non-empty sorted sample list.

    The smallest sample with at least ``fraction`` of the samples at or
    below it: rank ``ceil(fraction * N)``, 1-based.  The product is rounded
    first so that float noise (``0.9 * 70 = 63.00000000000001``) cannot push
    the rank up by one.
    """
    rank = math.ceil(round(fraction * len(samples), 9)) - 1
    return samples[min(len(samples) - 1, max(0, rank))]


class ReplicaService:
    """One live replica: simulator state machine + asyncio TCP front end."""

    def __init__(self, config: ReplicaConfig):
        self.config = config
        system = build(config.spec)
        if not 0 <= config.index < len(system.universe):
            raise ServiceError(
                f"replica index {config.index} outside the universe of "
                f"{len(system.universe)} servers declared by {config.spec.construction!r}"
            )
        self.server_id: Hashable = system.universe.element_at(config.index)
        if config.byzantine_behaviour is not None:
            self.replica: ReplicaServer = ByzantineReplicaServer(
                self.server_id,
                config.byzantine_behaviour,
                rng=ensure_rng(config.seed),
                initial_value=config.initial_value,
            )
        else:
            self.replica = ReplicaServer(self.server_id, initial_value=config.initial_value)
        # Durable state: open (= recover) the store before serving anything,
        # so a restarted replica answers with its pre-crash register.
        self._store: DurableStore | None = None
        if config.data_dir is not None:
            self._store = DurableStore(
                config.data_dir,
                fsync=config.fsync,
                snapshot_every=config.snapshot_every,
                initial_value=config.initial_value,
            )
            if self._store.recovery.pair.timestamp > Timestamp.zero():
                self.replica.restore(self._store.recovery.pair)
        self._server: asyncio.base_events.Server | None = None
        self._started_at = time.monotonic()
        self._op_counts: Counter = Counter()
        self._protocol_errors = 0
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        # Set by a STALL frame, cleared by RESUME.
        self._stalled = False
        self._connections: set[_Connection] = set()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only valid after :meth:`start`."""
        if self._server is None:
            raise ServiceError("replica has not been started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listener and publish the ready file (if configured)."""
        if self._server is not None:
            raise ServiceError("replica already started")
        try:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), host=self.config.host, port=self.config.port
            )
        except OSError as exc:
            raise ServiceError(
                f"replica {self.config.index} cannot bind "
                f"{self.config.host}:{self.config.port}: {exc}"
            ) from exc
        if self.config.ready_file:
            host, port = self.address
            payload = {
                "index": self.config.index,
                "host": host,
                "port": port,
                "byzantine": self.config.byzantine_behaviour,
            }
            ready = Path(self.config.ready_file)
            tmp = ready.with_suffix(ready.suffix + ".tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(ready)  # atomic: the supervisor never reads a torn file

    async def serve_forever(self) -> None:
        """Run until cancelled (the subprocess entry point's main loop)."""
        if self._server is None:
            await self.start()  # the listener accepts from here on
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop listening and drop every connection, whatever its peer is doing."""
        if self._server is not None:
            self._server.close()
            # From 3.12 on wait_closed() waits for the connections as well.
            for connection in list(self._connections):
                connection.abort()
            await self._server.wait_closed()
            self._server = None
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # Introspection frames.
    # ------------------------------------------------------------------
    def _storage_payload(self) -> dict:
        return self._store.status() if self._store is not None else {"durable": False}

    def status_payload(self) -> dict:
        return {
            "type": "STATUS_REPLY",
            "index": self.config.index,
            "server": list(self.server_id)
            if isinstance(self.server_id, tuple)
            else self.server_id,
            "construction": self.config.spec.construction,
            "byzantine": self.config.byzantine_behaviour,
            "stalled": self._stalled,
            "uptime_seconds": time.monotonic() - self._started_at,
            # The current register pair, protocol encodings: the substrate
            # of b+1-vouched state discovery (harness.discover_initial_pair).
            **self.replica.current_pair.to_json(),
            "storage": self._storage_payload(),
            "ok": True,
        }

    def metrics_payload(self) -> dict:
        samples = sorted(self._latencies)
        return {
            "type": "METRICS_REPLY",
            "index": self.config.index,
            "operations": dict(self._op_counts),
            "access_count": self.replica.access_count,
            "protocol_errors": self._protocol_errors,
            "latency_seconds": {
                "count": len(samples),
                "p50": _percentile(samples, 0.50) if samples else None,
                "p90": _percentile(samples, 0.90) if samples else None,
                "p99": _percentile(samples, 0.99) if samples else None,
                "max": samples[-1] if samples else None,
            },
            "storage": self._storage_payload(),
        }

    # ------------------------------------------------------------------
    # Frame handling.
    # ------------------------------------------------------------------
    def _handle_frame(self, payload: dict) -> bytes:
        """Answer one request frame with its encoded reply frame."""
        kind = payload["type"]
        if kind == "STATUS":
            reply = self.status_payload()
        elif kind == "METRICS":
            reply = self.metrics_payload()
        elif kind == "STALL":
            self._stalled = True
            reply = {"type": "OK", "stalled": True}
        elif kind == "RESUME":
            self._stalled = False
            for connection in list(self._connections):
                if connection.parked:  # never the connection RESUME came in on
                    connection.pump()
            reply = {"type": "OK", "stalled": False}
        else:
            # Protocol phases go through the simulator state machine.
            request = wire.frame_to_request(payload)
            started = time.monotonic()
            answer = self.replica.handle(request)
            # Durability contract: the pair the state machine installed hits
            # the journal *before* the ack frame is even encoded.  The ack is
            # no evidence of that: a ``drop-writes`` liar acks what it drops.
            if (
                self._store is not None
                and isinstance(request, WriteRequest)
                and self.replica.current_pair is request.pair
            ):
                self._store.journal(request.pair)
            self._op_counts[kind] += 1
            self._latencies.append(time.monotonic() - started)
            reply = wire.reply_to_frame(answer, server_index=self.config.index)
        return wire.encode_frame(reply)


class _Connection(asyncio.Protocol):
    """One accepted connection: received bytes to frames to reply bytes.

    Everything runs inside the transport's callbacks, with no task and no
    future per frame.  Replies leave in request order, so a connection stops
    consuming its buffered frames — and stops reading from the socket, which
    hands the back-pressure to the peer's TCP window — in two situations:

    * the transport's write buffer is above its high-water mark (the peer
      pipelines requests and does not read the replies);
    * the replica is stalled and the next frame is a protocol request.  That
      frame is *parked*; everything behind it on this connection waits, while
      control frames on other connections are still answered, ``RESUME``
      among them.
    """

    _transport: asyncio.Transport  # from connection_made on

    def __init__(self, service: ReplicaService):
        self._service = service
        self._frames = wire.FrameBuffer()
        self._parked: dict | None = None
        self._write_paused = False

    @property
    def parked(self) -> bool:
        """Whether a stall is holding a protocol frame of this connection."""
        return self._parked is not None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self._service._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._service._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        self.pump()

    def eof_received(self) -> None:
        # Returning None closes the transport once its write buffer is flushed.
        try:
            self._frames.eof()
        except WireProtocolError as exc:
            self._fail(exc)

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self.pump()

    def abort(self) -> None:
        self._transport.abort()

    def pump(self) -> None:
        """Answer the buffered frames, as far as stall and back-pressure allow."""
        service, transport = self._service, self._transport
        if transport.is_closing():
            return
        replies: list[bytes] = []
        size = 0
        failure: Exception | None = None
        try:
            while not self._write_paused:
                payload = self._parked or self._frames.next_frame()
                if payload is None:
                    break
                if service._stalled and payload["type"] not in _CONTROL_FRAMES:
                    self._parked = payload
                    break
                self._parked = None
                reply = service._handle_frame(payload)
                replies.append(reply)
                size += len(reply)
                if size >= _FLUSH_BYTES:
                    # May call pause_writing, which ends the loop.
                    transport.write(b"".join(replies))
                    replies.clear()
                    size = 0
        except (WireProtocolError, StorageError) as exc:
            # Malformed input never crashes or hangs the replica, and a
            # journalling failure must not ack the write: either way the
            # answer is ERROR and a dropped connection, which the client
            # sees as silence, exactly like a crashed server.
            failure = exc
        if replies:
            transport.write(b"".join(replies))
        if failure is not None:
            self._fail(failure)
        elif self._write_paused or self._parked is not None:
            transport.pause_reading()
        else:
            transport.resume_reading()

    def _fail(self, exc: Exception) -> None:
        self._service._protocol_errors += 1
        self._transport.write(wire.encode_frame({"type": "ERROR", "message": str(exc)}))
        self._transport.close()


async def run_replica(config: ReplicaConfig) -> None:
    """Start one replica and serve until cancelled (``python -m repro serve``)."""
    await ReplicaService(config).serve_forever()
