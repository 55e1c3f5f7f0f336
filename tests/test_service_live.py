"""End-to-end tests of the networked service: real replica processes.

Each test spawns a cluster of ``python -m repro serve --index i`` OS
processes via :class:`ServiceCluster`, drives live TCP traffic through
:func:`run_load`, and replays the recorded history through the same
checker and conformance machinery the simulators use — the Lemma 3.6
guarantees (zero fabricated, zero stale reads at ``byzantine <= b``) must
hold over real sockets exactly as they do in simulation.

Socket tests skip gracefully on runners that forbid loopback listeners or
subprocess spawning.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
import time
from dataclasses import fields

import numpy as np
import pytest

from repro.analysis import recovery_conformance, service_conformance
from repro.api.registry import SystemSpec
from repro.service import (
    ClusterSpec,
    ReplicaConfig,
    ReplicaService,
    ServiceCluster,
    ServiceQuorumClient,
    call_endpoint,
    discover_initial_pair,
    run_load,
    wire,
)
from repro.exceptions import ServiceError
from repro.simulation.client import RetryPolicy
from repro.simulation.history import HistoryCheck, HistoryRecorder, check_register_history
from repro.simulation.messages import Timestamp, ValueTimestampPair, WriteRequest

OPS = 160
CLIENTS = 8


def _loopback_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _loopback_available(), reason="loopback sockets unavailable on this runner"
)

THRESHOLD_5 = SystemSpec(construction="threshold", params={"n": 5, "b": 1})


@pytest.fixture
def cluster_factory(tmp_path):
    """Start clusters, guaranteeing teardown even when a test fails."""
    started = []

    def factory(spec: ClusterSpec) -> ServiceCluster:
        cluster = ServiceCluster(spec, tmp_path / f"run-{len(started)}")
        try:
            cluster.start()
        except ServiceError as exc:  # pragma: no cover - sandboxed runners
            cluster.terminate()
            pytest.skip(f"cannot spawn replica processes: {exc}")
        started.append(cluster)
        return cluster

    yield factory
    for cluster in started:
        cluster.terminate()


def _drive(cluster: ServiceCluster, **kwargs):
    defaults = dict(
        b=cluster.b,
        operations=OPS,
        clients=CLIENTS,
        policy=RetryPolicy(request_timeout=2.0),
        seed=7,
        replica_endpoints=[
            {"index": h.index, "host": h.host, "port": h.port}
            for h in cluster.replicas
        ],
    )
    defaults.update(kwargs)
    return asyncio.run(run_load(cluster.system, cluster.endpoints(), **defaults))


# ----------------------------------------------------------------------
# The headline guarantee: live Byzantine replica, clean history.
# ----------------------------------------------------------------------
def test_live_cluster_masks_byzantine_replica(cluster_factory):
    """5 real replicas, one lying on every read: zero fabricated/stale."""
    cluster = cluster_factory(
        ClusterSpec(THRESHOLD_5, byzantine=1, byzantine_behaviour="forge-on-read")
    )
    result = _drive(cluster)
    assert result.operations == OPS
    assert result.check.ok, result.check.violations
    assert result.check.fabricated_reads == 0
    assert result.check.stale_reads == 0
    # The recorded history replays through the standalone checker too.
    assert check_register_history(result.records).ok

    report = service_conformance(result)
    failed = [c.metric for c in report.checks if not c.ok]
    assert report.ok, failed
    assert {"fabricated-reads", "stale-read-rate", "history-safety"} <= {
        c.metric for c in report.checks
    }


def test_live_report_shape_and_replica_metrics(cluster_factory):
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))
    result = _drive(cluster)
    report = result.report(strategy_label="uniform")
    assert report["engine"] == "service"
    assert report["consistent"] is True
    assert report["availability"] == 1.0
    assert 0.0 < report["empirical_load"] <= 1.0
    assert report["latency_p50"] is not None

    service = report["service"]
    assert service["clients"] == CLIENTS
    assert service["check"]["ok"] is True
    assert set(service["check"]) == {f.name for f in fields(HistoryCheck)} | {"ok"}
    assert len(service["replica_status"]) == 5
    assert len(service["replica_metrics"]) == 5
    for status in service["replica_status"]:
        assert status["ok"] is True
        assert status["type"] == "STATUS_REPLY"
    # Every replica served protocol traffic and measured its latencies.
    served = sum(
        sum(metrics["operations"].values()) for metrics in service["replica_metrics"]
    )
    assert served > 0
    for metrics in service["replica_metrics"]:
        assert metrics["latency_seconds"]["count"] >= 0
        assert metrics["protocol_errors"] == 0


def test_stalled_replica_is_steered_around(cluster_factory):
    """A stalled (slow) replica costs timeouts, not consistency."""
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))
    asyncio.run(cluster.stall(0))
    try:
        result = _drive(
            cluster,
            operations=60,
            clients=4,
            policy=RetryPolicy(request_timeout=0.5),
        )
    finally:
        asyncio.run(cluster.resume(0))
    assert result.check.ok, result.check.violations
    assert len(result.successful) == 60  # steering finds quorums avoiding 0
    status = asyncio.run(cluster.status(0))
    assert status["stalled"] is False  # resume took effect


def test_crash_and_restart_preserve_staleness_bound(cluster_factory):
    """The *non-durable* crash/restart regression: without ``data_root`` a
    restarted replica rejoins with its state wiped, so each follow-up run
    must chain ``initial_pair`` from the previous run's ``final_pair`` to
    tell the checker what is legitimately readable.  Even so, the
    state-wiped replica never causes a stale or fabricated read — its
    stale answers are simply short of the b+1 vouch threshold.  (Durable
    clusters need none of this chaining; see the ``durable`` tests below.)
    """
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))
    before = _drive(cluster, operations=40, clients=4)
    assert before.check.ok and len(before.successful) == 40

    cluster.kill(2)
    assert not cluster.replicas[2].alive
    # Each follow-up run inherits the register state the previous one left
    # behind; final_pair tells its checker what is legitimately readable.
    during = _drive(
        cluster, operations=60, clients=4, seed=11, initial_pair=before.final_pair
    )
    assert during.check.ok, during.check.violations
    assert len(during.successful) == 60  # full availability around one crash
    assert during.timeouts > 0  # the dead replica did cost probes

    cluster.restart(2)
    assert cluster.replicas[2].alive
    # Memory-only: the rejoined replica really did lose everything.
    status = asyncio.run(cluster.status(2))
    assert status["storage"] == {"durable": False}
    assert status["ts"] == [0, -1]
    after = _drive(
        cluster, operations=60, clients=4, seed=13, initial_pair=during.final_pair
    )
    assert after.check.ok, after.check.violations
    assert len(after.successful) == 60
    # The restarted replica answers protocol traffic again.
    metrics = asyncio.run(cluster.metrics(2))
    assert sum(metrics["operations"].values()) > 0


# ----------------------------------------------------------------------
# Durable clusters: crash recovery from the write-ahead log.
# ----------------------------------------------------------------------
def test_durable_replica_recovers_from_wal_mid_run(cluster_factory, tmp_path):
    """The live durability demo: five durable replicas under open-loop
    load, one SIGKILLed mid-run and restarted from its write-ahead log
    while traffic continues.  The merged history must pass the register
    checker, and recovery conformance must confirm the journal-before-ack
    contract: the replica rejoined with a timestamp at least as new as
    every write it ever acked."""
    cluster = cluster_factory(
        ClusterSpec(THRESHOLD_5, data_root=str(tmp_path / "state"), fsync="always")
    )

    async def scenario():
        task = asyncio.create_task(
            run_load(
                cluster.system,
                cluster.endpoints(),
                b=cluster.b,
                operations=240,
                clients=6,
                mode="open",
                rate=120.0,  # ~2s of scheduled arrivals: room for the crash
                policy=RetryPolicy(request_timeout=2.0),
                seed=7,
                replica_endpoints=[
                    {"index": h.index, "host": h.host, "port": h.port}
                    for h in cluster.replicas
                ],
            )
        )
        await asyncio.sleep(0.6)
        cluster.kill(2)
        await asyncio.sleep(0.3)
        await asyncio.to_thread(cluster.restart, 2)
        result = await task
        status = await cluster.status(2)
        return result, status

    result, status = asyncio.run(scenario())
    assert result.check.ok, result.check.violations
    assert len(result.successful) == 240
    # STATUS surfaces the storage health of the recovered store.
    storage = status["storage"]
    assert storage["durable"] is True
    assert storage["fsync"] == "always"
    assert storage["recovery_dropped_bytes"] == 0  # SIGKILL leaves no torn tail
    # The journal-before-ack contract, checked exactly (no slack).
    report = recovery_conformance(
        result,
        server_id=cluster.system.universe.element_at(2),
        recovered_timestamp=status["ts"],
    )
    failed = [c.metric for c in report.checks if not c.ok]
    assert report.ok, failed


def test_durable_cluster_full_restart_needs_no_chaining(cluster_factory, tmp_path):
    """Kill *all five* replicas, restart them from their stores: the
    b+1-vouched discovery recovers exactly the pre-crash register, and a
    follow-up run passes the checker **without** any client-side
    ``initial_pair`` chaining from the previous run object."""
    cluster = cluster_factory(
        ClusterSpec(THRESHOLD_5, data_root=str(tmp_path / "state"), snapshot_every=8)
    )
    before = _drive(cluster, operations=40, clients=4)
    assert before.check.ok and len(before.successful) == 40

    for index in range(5):
        cluster.kill(index)
    for index in range(5):
        cluster.restart(index)

    # Server-side discovery replaces the old chaining: the recovered state
    # is vouched for by b+1 restarted replicas, not remembered by a client.
    discovered = asyncio.run(cluster.discover_pair())
    assert discovered is not None
    assert discovered == before.final_pair

    after = _drive(cluster, operations=60, clients=4, seed=13, initial_pair=discovered)
    assert after.check.ok, after.check.violations
    assert len(after.successful) == 60

    status = asyncio.run(cluster.status(1))
    report = recovery_conformance(
        before,
        server_id=cluster.system.universe.element_at(1),
        recovered_timestamp=status["ts"],
        post_result=after,
    )
    failed = [c.metric for c in report.checks if not c.ok]
    assert report.ok, failed
    assert {"recovered-timestamp", "post-restart-fabricated", "post-restart-stale-rate"} <= {
        c.metric for c in report.checks
    }


def test_byzantine_overload_requires_explicit_opt_in():
    with pytest.raises(ServiceError, match="exceed the masking"):
        ClusterSpec(THRESHOLD_5, byzantine=2).resolve()
    system, b = ClusterSpec(THRESHOLD_5, byzantine=2, allow_overload=True).resolve()
    assert (system.n, b) == (5, 1)


def test_open_loop_mode_follows_trace_schedule(cluster_factory):
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))
    result = _drive(cluster, operations=48, clients=6, mode="open", rate=200.0)
    assert result.check.ok
    assert len(result.successful) == 48
    assert result.duration > 0.0


def test_single_client_sequential_semantics(cluster_factory):
    """One client alone sees its own writes — the simplest sanity check."""
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))

    async def scenario():
        client = ServiceQuorumClient(
            0, cluster.system, cluster.endpoints(), b=cluster.b
        )
        try:
            for i in range(5):
                write = await client.write(("v", i))
                assert write.success
                read = await client.read()
                assert read.success
                assert read.value == ("v", i)
        finally:
            await client.close()

    asyncio.run(scenario())


@contextlib.asynccontextmanager
async def _replicas(indices=range(5)):
    """In-process replicas of ``THRESHOLD_5`` on loopback ports, stopped on exit."""
    services = [ReplicaService(ReplicaConfig(THRESHOLD_5, index)) for index in indices]
    try:
        for service in services:
            await service.start()
        yield services
    finally:
        for service in services:
            await service.stop()


def _read_past_a_liar(answer: bytes) -> None:
    """Eight reads of a cluster whose replica 2 answers every frame with ``answer``."""
    liar_index = 2

    async def lie(reader, writer):
        while await wire.read_frame(reader) is not None:
            writer.write(answer)
            await writer.drain()
        writer.close()

    async def scenario():
        system = THRESHOLD_5.build()
        async with _replicas([i for i in range(5) if i != liar_index]) as honest:
            liar = await asyncio.start_server(lie, "127.0.0.1", 0)
            endpoints = {service.server_id: service.address for service in honest}
            liar_id = system.universe.element_at(liar_index)
            endpoints[liar_id] = liar.sockets[0].getsockname()[:2]
            client = ServiceQuorumClient(
                0,
                system,
                endpoints,
                b=1,
                policy=RetryPolicy(request_timeout=2.0),
                rng=np.random.default_rng(7),
            )
            try:
                for _ in range(8):
                    assert (await client.read()).success
                assert client.suspected == {liar_id}
                assert liar_id not in client._connections  # dropped, not reused
            finally:
                await client.close()
                liar.close()
                await liar.wait_closed()

    asyncio.run(scenario())


def test_reply_of_the_wrong_type_indicts_one_replica_not_the_client():
    """A liar within ``b`` answers every ``READ`` with a well-formed
    ``WRITE_ACK``.  That is a protocol violation like any other: silence, the
    connection dropped, the replica suspected and steered around — it used to
    raise ``AttributeError`` out of ``client.read()``."""
    _read_past_a_liar(wire.encode_frame({"type": "WRITE_ACK", "server": 2, "accepted": True}))


def test_a_second_reply_indicts_the_replica_that_sent_it():
    """Two ``READ_REPLY`` frames for one ``READ``: the second would sit in the
    pooled connection's buffer and answer the *next* request.  Same verdict as
    a reply of the wrong type."""
    reply = wire.encode_frame({"type": "READ_REPLY", "server": 2, "value": None, "ts": [0, -1]})
    _read_past_a_liar(reply + reply)


# ----------------------------------------------------------------------
# METRICS latency percentiles.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "samples,expected",
    [
        (range(1, 101), (50, 90, 99, 100)),
        ([7.0], (7.0, 7.0, 7.0, 7.0)),
        ([1.0, 2.0], (1.0, 2.0, 2.0, 2.0)),
        (range(1, 71), (35, 63, 70, 70)),
    ],
    ids=["1..100", "one-sample", "two-samples", "1..70"],
)
def test_metrics_percentiles_are_nearest_rank(samples, expected):
    """p-th percentile = the ceil(p N)-th smallest sample (it was one rank
    high: p99 of 1..100 was the maximum and p50 of two samples the larger)."""
    service = ReplicaService(ReplicaConfig(THRESHOLD_5, 0))
    service._latencies.extend(samples)
    latency = service.metrics_payload()["latency_seconds"]
    assert (latency["p50"], latency["p90"], latency["p99"], latency["max"]) == expected


@pytest.mark.parametrize("behaviour", [None, "drop-writes"])
def test_a_durable_replica_journals_only_the_pairs_it_installed(tmp_path, behaviour):
    """A ``drop-writes`` liar acks the writes it drops; journalling on the
    ack alone brought them back after a restart.  In-process, no socket."""
    config = ReplicaConfig(
        THRESHOLD_5, 0, byzantine_behaviour=behaviour, data_dir=str(tmp_path / "d")
    )
    written = ValueTimestampPair(value="v", timestamp=Timestamp(3, 1))
    service = ReplicaService(config)
    frame = service._handle_frame(
        wire.request_to_frame(WriteRequest(client_id=1, pair=written))
    )
    reply, _rest = wire.decode_frame(frame)
    assert wire.frame_to_reply(reply, server_id=service.server_id).accepted
    asyncio.run(service.stop())

    reopened = ReplicaService(config)
    honest = behaviour is None
    initial = ValueTimestampPair(value=None, timestamp=Timestamp.zero())
    assert reopened.replica.current_pair == (written if honest else initial)
    assert reopened.status_payload()["storage"]["wal_records"] == (1 if honest else 0)
    asyncio.run(reopened.stop())


# ----------------------------------------------------------------------
# Control frames against a replica that dies mid-exchange.
# ----------------------------------------------------------------------
def test_call_endpoint_maps_a_connection_reset_to_service_error():
    """A replica killed between accept and reply must not leak ``OSError``.

    ``discover_initial_pair`` and ``run_load``'s STATUS/METRICS collection
    skip replicas on ``ServiceError``; a bare ``ConnectionResetError`` used
    to abort them instead.
    """

    async def accept_then_reset(reader, writer):
        await reader.readexactly(4)
        # SO_LINGER with a zero timeout turns close() into a RST.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.transport.abort()

    async def scenario():
        server = await asyncio.start_server(accept_then_reset, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(ServiceError, match="mid-exchange"):
                await call_endpoint("127.0.0.1", port, {"type": "STATUS"}, timeout=2.0)
            descriptor = {"index": 0, "host": "127.0.0.1", "port": port}
            assert await discover_initial_pair([descriptor], b=0, timeout=2.0) is None
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_run_load_keeps_replica_status_and_metrics_aligned():
    """A replica that answers ``STATUS`` but resets on ``METRICS`` gets one
    placeholder in each list, so both stay index-aligned with
    ``replica_endpoints`` (its ``STATUS`` reply used to be kept *and* the
    placeholder appended, shifting every later replica's status by one)."""

    async def status_then_reset(reader, writer):
        frame = await wire.read_frame(reader)
        if frame is not None and frame["type"] == "STATUS":
            writer.write(wire.encode_frame({"type": "STATUS_REPLY", "index": 9, "ok": True}))
            await writer.drain()
            writer.close()
            return
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.transport.abort()

    async def scenario():
        async with _replicas() as services:
            fake = await asyncio.start_server(status_then_reset, "127.0.0.1", 0)
            descriptors = [
                {"index": service.config.index, "host": host, "port": port}
                for service in services
                for host, port in [service.address]
            ]
            fake_port = fake.sockets[0].getsockname()[1]
            descriptors.insert(2, {"index": 9, "host": "127.0.0.1", "port": fake_port})
            try:
                return descriptors, await run_load(
                    THRESHOLD_5.build(),
                    {service.server_id: service.address for service in services},
                    b=1,
                    operations=8,
                    clients=2,
                    replica_endpoints=descriptors,
                )
            finally:
                fake.close()
                await fake.wait_closed()

    descriptors, result = asyncio.run(scenario())
    assert len(result.replica_status) == len(result.replica_metrics) == len(descriptors)
    assert result.replica_status[2] == {"type": "STATUS_REPLY", "index": 9, "ok": False}
    assert result.replica_metrics[2] is None
    rows = zip(descriptors, result.replica_status, result.replica_metrics)
    for descriptor, status, metrics in rows:
        if descriptor["index"] != 9:
            assert status["index"] == descriptor["index"]
            assert metrics is not None


# ----------------------------------------------------------------------
# A request in flight poisons a pooled connection.
# ----------------------------------------------------------------------
def test_cancelled_read_does_not_poison_the_connection_pool(cluster_factory):
    """Zero faulty replicas, one impatient caller.  B's read is cancelled
    after its frames went out to a stalled cluster; the replies arrive once
    the cluster resumes.  Were B's connections still pooled, its next read
    would take those replies for its own and return the value A has since
    overwritten."""
    cluster = cluster_factory(ClusterSpec(THRESHOLD_5))

    async def scenario():
        history = HistoryRecorder()
        a, b = (
            ServiceQuorumClient(
                client_id,
                cluster.system,
                cluster.endpoints(),
                b=cluster.b,
                history=history,
                rng=np.random.default_rng(client_id),
            )
            for client_id in (0, 1)
        )
        try:
            assert (await a.write("v1")).success
            assert (await b.read()).value == "v1"
            for index in range(5):
                await cluster.stall(index)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(b.read(), timeout=0.05)
            for index in range(5):
                await cluster.resume(index)
            assert (await a.write("v2")).success
            return await b.read(), history.check()
        finally:
            await a.close()
            await b.close()

    read, check = asyncio.run(scenario())
    assert read.success and read.value == "v2"
    assert check.ok and check.stale_reads == 0, check.violations


# ----------------------------------------------------------------------
# What one operation costs the event loop, as counts and a deadline.
# ----------------------------------------------------------------------
def test_a_warm_operation_costs_one_task_per_quorum_member():
    """Replicas and client share the loop, so the count covers both: a warm
    read is ``|quorum|`` tasks, a warm write ``2 |quorum|`` (two rounds), and
    a replica answers without creating any."""

    async def scenario():
        system = THRESHOLD_5.build()
        async with _replicas() as services:
            endpoints = {service.server_id: service.address for service in services}
            client = ServiceQuorumClient(0, system, endpoints, b=1, rng=np.random.default_rng(3))
            loop = asyncio.get_running_loop()
            created = []

            def counting(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            try:
                while len(client._connections) < 5:  # until no operation has to connect
                    assert (await client.write("warm")).success
                loop.set_task_factory(counting)
                assert (await client.read()).success
                reads = len(created)
                assert (await client.write("counted")).success
                return reads, len(created) - reads, system.min_quorum_size()
            finally:
                loop.set_task_factory(None)
                await client.close()

    reads, writes, quorum = asyncio.run(scenario())
    assert (reads, writes) == (quorum, 2 * quorum)


def test_one_deadline_bounds_a_broadcast_to_a_stalled_cluster():
    """Connect, send and receive of every member share one ``request_timeout``."""

    async def scenario():
        system = THRESHOLD_5.build()
        async with _replicas() as services:
            endpoints = {service.server_id: service.address for service in services}
            for service in services:
                await call_endpoint(*service.address, {"type": "STALL"})
            client = ServiceQuorumClient(
                0,
                system,
                endpoints,
                b=1,
                policy=RetryPolicy(request_timeout=0.2, max_attempts=1),
            )
            try:
                started = time.monotonic()
                read = await client.read()
                return read, time.monotonic() - started, dict(client._connections)
            finally:
                await client.close()

    read, elapsed, pooled = asyncio.run(scenario())
    assert not read.success
    assert 0.2 <= elapsed < 0.3
    assert pooled == {}  # every member was still owed a reply


# ----------------------------------------------------------------------
# Misbehaving connections against one in-process replica.
# ----------------------------------------------------------------------
def _write_frame(counter: int, value: object = None) -> dict:
    return {"type": "WRITE", "client": 0, "value": value or counter, "ts": [counter, 0]}


READ = {"type": "READ", "client": 0}


def _against_one_replica(peer):
    """Run ``peer(service)`` against a started replica; return what it returns."""

    async def scenario():
        async with _replicas([0]) as (service,):
            return await asyncio.wait_for(peer(service), timeout=20.0)

    return asyncio.run(scenario())


async def _eventually(probe, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while not (seen := probe()):
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.005)
    return seen


def test_pipelined_frames_are_answered_in_order():
    frames = [frame for counter in range(1, 26) for frame in (_write_frame(counter), READ)]

    async def peer(service):
        reader, writer = await asyncio.open_connection(*service.address)
        writer.write(b"".join(wire.encode_frame(frame) for frame in frames))  # one send
        replies = [await wire.read_frame(reader) for _ in frames]
        writer.close()
        return replies

    replies = _against_one_replica(peer)
    assert [reply["type"] for reply in replies] == ["WRITE_ACK", "READ_REPLY"] * 25
    assert [reply["value"] for reply in replies[1::2]] == list(range(1, 26))


def test_a_peer_that_never_reads_is_not_buffered_for_without_limit():
    """300 pipelined ``READ``s of a 100 kB value are 30 MB of replies.  The
    replica stops reading the connection once its transport is over the
    high-water mark, holds a reply or two, not three hundred, and answers
    the rest when the peer finally reads."""
    value = "x" * 100_000
    reads = 300

    async def peer(service):
        with socket.create_connection(service.address) as sock:
            sock.sendall(wire.encode_frame(_write_frame(1, value)))
            sock.sendall(wire.encode_frame(READ) * reads)
            (connection,) = await _eventually(lambda: service._connections)
            transport = connection._transport
            await _eventually(lambda: not transport.is_reading())
            await asyncio.sleep(0.05)  # nothing more may pile up while it is paused
            held = transport.get_write_buffer_size()
            answered = service.metrics_payload()["operations"]["READ"]
            sock.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=sock.dup())
            replies = [await wire.read_frame(reader) for _ in range(reads + 1)]
            writer.close()
            return held, answered, replies

    held, answered, replies = _against_one_replica(peer)
    assert held < 3 * len(value)
    assert answered < reads
    assert [reply["type"] for reply in replies] == ["WRITE_ACK"] + ["READ_REPLY"] * reads
    assert all(reply["value"] == value for reply in replies[1:])


def test_an_oversized_length_prefix_is_refused_before_any_body_arrives():
    async def peer(service):
        reader, writer = await asyncio.open_connection(*service.address)
        writer.write(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))  # and not a byte more
        reply = await asyncio.wait_for(wire.read_frame(reader), timeout=2.0)
        closed = await asyncio.wait_for(wire.read_frame(reader), timeout=2.0)
        writer.close()
        return reply, closed, service.metrics_payload()["protocol_errors"]

    reply, closed, errors = _against_one_replica(peer)
    assert reply["type"] == "ERROR"
    assert closed is None and errors == 1


@pytest.mark.parametrize("cut", [2, 4, 11], ids=["header", "empty-body", "body"])
def test_eof_inside_a_frame_counts_one_protocol_error(cut):
    async def peer(service):
        reader, writer = await asyncio.open_connection(*service.address)
        writer.write(wire.encode_frame(READ) + wire.encode_frame(READ)[:cut])
        writer.write_eof()
        replies = [await wire.read_frame(reader) for _ in range(3)]
        writer.close()
        return replies, service.metrics_payload()["protocol_errors"]

    (answered, error, closed), errors = _against_one_replica(peer)
    assert answered["type"] == "READ_REPLY"  # the complete frame before the cut
    assert error["type"] == "ERROR"
    assert closed is None and errors == 1


def test_a_stalled_replica_parks_frames_in_order_and_still_answers_control():
    async def peer(service):
        reader, writer = await asyncio.open_connection(*service.address)
        assert (await call_endpoint(*service.address, {"type": "STALL"}))["stalled"]
        # A control frame *behind* a parked one waits its turn: replies are
        # matched to requests by order alone.
        for frame in (_write_frame(1), READ, {"type": "STATUS"}, _write_frame(2), READ):
            writer.write(wire.encode_frame(frame))
            await asyncio.sleep(0.01)  # several segments, one of them while parked
        status = await call_endpoint(*service.address, {"type": "STATUS"})
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(reader.readexactly(1), timeout=0.1)
        await call_endpoint(*service.address, {"type": "RESUME"})
        replies = [await wire.read_frame(reader) for _ in range(5)]
        writer.close()
        return status, replies

    status, replies = _against_one_replica(peer)
    assert status["stalled"] is True and status["ts"] == [0, -1]  # nothing applied yet
    assert [reply["type"] for reply in replies] == [
        "WRITE_ACK", "READ_REPLY", "STATUS_REPLY", "WRITE_ACK", "READ_REPLY",
    ]
    assert [replies[1]["value"], replies[2]["stalled"], replies[4]["value"]] == [1, False, 2]


def test_stop_returns_promptly_with_clients_still_connected():
    async def scenario():
        service = ReplicaService(ReplicaConfig(THRESHOLD_5, 0))
        await service.start()
        idle = await asyncio.open_connection(*service.address)
        mid_frame = await asyncio.open_connection(*service.address)
        mid_frame[1].write(wire.encode_frame(READ)[:6])
        await call_endpoint(*service.address, {"type": "STALL"})
        parked = await asyncio.open_connection(*service.address)
        parked[1].write(wire.encode_frame(READ))
        await _eventually(lambda: len(service._connections) == 3)
        started = time.monotonic()
        await asyncio.wait_for(service.stop(), timeout=2.0)
        elapsed = time.monotonic() - started
        for reader, writer in (idle, mid_frame, parked):
            try:
                assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
            except ConnectionResetError:
                pass  # an abort may surface as a reset
            writer.close()
        return elapsed

    assert asyncio.run(scenario()) < 1.0
