"""Isolated layer probes: one layer's public functions, replayed on a run's own inputs.

The replica processes cannot be instrumented from outside, so their share of
an operation is estimated by replaying what they did — the same requests
through the same state machine, codec and journal, in this process, on the
same filesystem — and timing each call.  Every probe returns a median.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import perf_counter

from repro.service import wire
from repro.simulation.messages import ReadRequest, TimestampRequest, WriteRequest
from repro.simulation.server import ReplicaServer
from repro.storage import DurableStore

#: Operations replayed per probe; enough for a steady median, cheap to run.
REPLAY_LIMIT = 2000


def protocol_requests(records: list) -> list:
    """The requests one replica in every quorum would see, in history order."""
    requests: list = []
    for record in records[:REPLAY_LIMIT]:
        if record.kind == "read":
            requests.append(ReadRequest(client_id=record.client_id))
        elif record.attempted_pair is not None:
            requests.append(TimestampRequest(client_id=record.client_id))
            requests.append(WriteRequest(client_id=record.client_id, pair=record.attempted_pair))
    return requests


def state_machine(requests: list) -> tuple[float, list]:
    """Median µs per ``ReplicaServer.handle_*`` call, and the replies."""
    replica = ReplicaServer(0)
    samples, replies = [], []
    for request in requests:
        if isinstance(request, ReadRequest):
            handler = replica.handle_read
        elif isinstance(request, TimestampRequest):
            handler = replica.handle_timestamp
        else:
            handler = replica.handle_write
        started = perf_counter()
        reply = handler(request)
        samples.append(perf_counter() - started)
        replies.append(reply)
    return statistics.median(samples) * 1e6, replies


def wire_codec(requests: list, replies: list) -> tuple[float, float]:
    """Median µs to frame a request and to unframe a reply."""
    encode, decode = [], []
    for request in requests:
        started = perf_counter()
        wire.encode_frame(wire.request_to_frame(request))
        encode.append(perf_counter() - started)
    for reply in replies:
        frame = wire.encode_frame(wire.reply_to_frame(reply, server_index=0))
        started = perf_counter()
        payload, _rest = wire.decode_frame(frame)
        wire.frame_to_reply(payload, server_id=0)
        decode.append(perf_counter() - started)
    return statistics.median(encode) * 1e6, statistics.median(decode) * 1e6


async def replica_rtt(host: str, port: int, exchanges: int = 300) -> float:
    """Median µs of one request/reply on one pooled connection to one replica."""
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    samples = []
    try:
        for _ in range(exchanges):
            started = perf_counter()
            await wire.write_frame(writer, {"type": "READ", "client": 0})
            await wire.read_frame(reader)
            samples.append(perf_counter() - started)
    finally:
        writer.close()
        await writer.wait_closed()
    return statistics.median(samples) * 1e6


def storage(directory: Path, pairs: list, *, fsync: str) -> dict[str, float]:
    """Journal, bare-fsync and compaction cost on ``directory``'s filesystem."""
    journal, compact = [], []
    with DurableStore(directory / "probe-store", fsync=fsync, snapshot_every=0) as store:
        for pair in pairs[:REPLAY_LIMIT]:
            started = perf_counter()
            store.journal(pair)
            journal.append(perf_counter() - started)
        for _ in range(5):
            started = perf_counter()
            store.compact()
            compact.append(perf_counter() - started)
    syncs = []
    descriptor = os.open(directory / "probe-fsync", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        for _ in range(200):
            os.write(descriptor, b"x" * 64)
            started = perf_counter()
            os.fsync(descriptor)
            syncs.append(perf_counter() - started)
    finally:
        os.close(descriptor)
    return {
        "storage.journal_us": statistics.median(journal) * 1e6 if journal else 0.0,
        "storage.fsync_us": statistics.median(syncs) * 1e6,
        "storage.compact_ms": statistics.median(compact) * 1e3,
    }


def recovery_ms(data_dir: Path, *, fsync: str, snapshot_every: int) -> float:
    """Milliseconds to re-open (= recover) one replica's data directory."""
    started = perf_counter()
    store = DurableStore(data_dir, fsync=fsync, snapshot_every=snapshot_every)
    elapsed = perf_counter() - started
    store.close()
    return elapsed * 1e3
