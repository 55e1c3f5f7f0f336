"""Tests for the event-driven concurrent core: scheduler, network, histories.

Covers the discrete-event machinery itself (ordering, cancellation, latency
and link-fault knobs, crash/recover timelines), the zero-latency agreement
between the event-driven and (over an in-process wire loopback) asyncio
service drivers of the protocol core, the real-attempts accounting,
the aligned load accounting across protocol paths, and the
concurrent-history properties: interleaved writers produce strictly
increasing unique timestamps, reads concurrent with writes return old-or-new
(never a fabrication) at ``b`` colluders, and the checker catches the
``2b + 1``-colluder attack.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro import SimulationError, ThresholdQuorumSystem
from repro.analysis.empirical import driver_agreement
from repro.service import ServiceQuorumClient, wire
from repro.simulation import (
    AsyncQuorumClient,
    EventNetwork,
    EventScheduler,
    FaultInjector,
    FaultScenario,
    HistoryRecorder,
    LatencyModel,
    LinkFaults,
    OperationRecord,
    ReplicaServer,
    RetryPolicy,
    Timestamp,
    TimingScenario,
    ValueTimestampPair,
    build_replicas,
    check_register_history,
    crash_recover_scenario,
    flaky_links_scenario,
    run_event_workload,
    run_workload,
    slow_server_scenario,
    timing_scenario_suite,
)
from repro.simulation.client import access_frequencies
from repro.simulation.messages import ReadRequest, WriteRequest
from repro.simulation.server import BYZANTINE_BEHAVIOURS


@pytest.fixture
def small_system():
    """The 7-of-9 threshold system: 2-masking, fully enumerable, fast."""
    return ThresholdQuorumSystem(9, 7)


# ----------------------------------------------------------------------
# The scheduler.
# ----------------------------------------------------------------------
class TestEventScheduler:
    def test_fires_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(3.0, lambda: fired.append("late"))
        scheduler.schedule(1.0, lambda: fired.append("early"))
        scheduler.schedule(2.0, lambda: fired.append("middle"))
        assert scheduler.run() == 3
        assert fired == ["early", "middle", "late"]
        assert scheduler.now == pytest.approx(3.0)

    def test_ties_break_in_scheduling_order(self):
        scheduler = EventScheduler()
        fired = []
        for label in range(5):
            scheduler.schedule(0.0, lambda label=label: fired.append(label))
        scheduler.run()
        assert fired == list(range(5))

    def test_callbacks_schedule_further_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                scheduler.schedule(1.0, lambda: chain(depth + 1))

        scheduler.schedule(0.0, lambda: chain(0))
        scheduler.run()
        assert fired == [0, 1, 2, 3]
        assert scheduler.now == pytest.approx(3.0)

    def test_cancellation_is_honoured(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule(1.0, lambda: fired.append("no"))
        scheduler.schedule(2.0, lambda: fired.append("yes"))
        event.cancel()
        assert scheduler.run() == 1
        assert fired == ["yes"]

    def test_run_until_stops_and_advances_clock(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(1))
        scheduler.schedule(5.0, lambda: fired.append(5))
        scheduler.run(until=2.0)
        assert fired == [1]
        assert scheduler.now == pytest.approx(2.0)
        scheduler.run()
        assert fired == [1, 5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(-0.1, lambda: None)


# ----------------------------------------------------------------------
# Timing and link-fault knobs.
# ----------------------------------------------------------------------
class TestLatencyAndLinkModels:
    def test_zero_model_draws_no_randomness(self, rng):
        model = LatencyModel.zero()
        state = rng.bit_generator.state
        assert model.sample(iter(rng.random, None), "s0") == 0.0
        assert rng.bit_generator.state == state

    def test_sample_respects_slow_factor(self, rng):
        model = LatencyModel(base=1.0, server_factors=(("slow", 3.0),))
        uniforms = iter(rng.random, None)
        assert model.sample(uniforms, "slow") == pytest.approx(3.0)
        assert model.sample(uniforms, "fast") == pytest.approx(1.0)

    def test_jitter_reorders_messages(self, rng):
        model = LatencyModel.uniform(0.0, 1.0)
        uniforms = iter(rng.random, None)
        draws = [model.sample(uniforms, "s") for _ in range(64)]
        assert any(late < early for early, late in zip(draws, draws[1:]))

    def test_validation(self):
        with pytest.raises(SimulationError):
            LatencyModel(base=-1.0)
        with pytest.raises(SimulationError):
            LatencyModel(server_factors=(("s", 0.0),))
        with pytest.raises(SimulationError):
            LinkFaults(loss=1.0)
        with pytest.raises(SimulationError):
            LinkFaults(duplication=-0.5)

    def test_loss_and_duplication_counts(self, rng):
        lossy = LinkFaults(loss=0.5)
        uniforms = iter(rng.random, None)
        copies = [lossy.copies(uniforms) for _ in range(200)]
        assert 0 in copies and 1 in copies and 2 not in copies
        duplicating = LinkFaults(duplication=1.0)
        assert duplicating.copies(uniforms) == 2


class TestTimingScenarioSchedule:
    def test_static_and_transitions(self):
        healthy = FaultScenario.fault_free()
        degraded = FaultScenario(crashed=frozenset({0}))
        # Given out of order, stored and answered in time order.
        scenario = TimingScenario("x", ((5.0, degraded), (0.0, healthy)))
        assert scenario.transitions == ((0.0, healthy), (5.0, degraded))
        assert scenario.active(4.9).is_responsive(0)
        assert not scenario.active(5.0).is_responsive(0)
        assert TimingScenario.static(degraded).active(100.0) is degraded

    @pytest.mark.parametrize(
        "transitions",
        [
            (),
            ((1.0, FaultScenario.fault_free()),),  # nothing in force at time 0
            ((0.0, FaultScenario.fault_free()), (0.0, FaultScenario.fault_free())),
            ((0.0, FaultScenario.fault_free()), (math.inf, FaultScenario.fault_free())),
        ],
        ids=["empty", "no-state-at-zero", "duplicate-time", "non-finite-time"],
    )
    def test_invalid_transitions_are_rejected_at_construction(self, transitions):
        with pytest.raises(SimulationError):
            TimingScenario(name="x", transitions=transitions)

    def test_unknown_byzantine_behaviour_is_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="unknown Byzantine behaviour"):
            TimingScenario.static(FaultScenario.fault_free(), byzantine_behaviour="confuse")

    def test_slow_factor_comes_from_active_state(self):
        slow = FaultScenario(slow={0: 4.0})
        scenario = TimingScenario("x", ((0.0, FaultScenario.fault_free()), (2.0, slow)))
        assert scenario.active(1.0).slow_factor(0) == pytest.approx(1.0)
        assert scenario.active(3.0).slow_factor(0) == pytest.approx(4.0)

    def test_fault_scenario_slow_validation(self):
        with pytest.raises(SimulationError):
            FaultScenario(slow={0: 0.5})
        with pytest.raises(SimulationError):
            FaultScenario(crashed=frozenset({0}), slow={0: 2.0})


# ----------------------------------------------------------------------
# The event network.
# ----------------------------------------------------------------------
class TestEventNetwork:
    def make(self, *, crashed=frozenset(), latency=None, faults=None, seed=0):
        scheduler = EventScheduler()
        servers = {i: ReplicaServer(i) for i in range(3)}
        network = EventNetwork(
            servers,
            TimingScenario.static(
                FaultScenario(crashed=frozenset(crashed)),
                latency=latency,
                link_faults=faults,
            ),
            scheduler=scheduler,
            rng=np.random.default_rng(seed),
        )
        return scheduler, network

    def test_reply_arrives_by_callback(self):
        scheduler, network = self.make()
        replies = []
        network.send(0, ReadRequest(client_id=0), lambda sid, reply: replies.append(sid))
        assert replies == []  # nothing happens until the scheduler runs
        scheduler.run()
        assert replies == [0]
        assert network.attempted_counts[0] == 1
        assert network.delivered_counts[0] == 1

    def test_crashed_server_is_silent_but_attempted(self):
        scheduler, network = self.make(crashed={1})
        replies = []
        network.send(1, ReadRequest(client_id=0), lambda sid, reply: replies.append(sid))
        scheduler.run()
        assert replies == []
        assert network.attempted_counts[1] == 1
        assert network.delivered_counts[1] == 0
        assert network.server(1).access_count == 0

    def test_mid_flight_crash_drops_request(self):
        # The request is sent while the server is alive but lands after the
        # crash transition: dead on arrival.
        scheduler = EventScheduler()
        servers = {0: ReplicaServer(0)}
        scenario = TimingScenario(
            "crash-at-1",
            ((0.0, FaultScenario.fault_free()),
             (1.0, FaultScenario(crashed=frozenset({0})))),
            latency=LatencyModel(base=2.0),
        )
        network = EventNetwork(
            servers, scenario, scheduler=scheduler, rng=np.random.default_rng(0),
        )
        replies = []
        network.send(0, ReadRequest(client_id=0), lambda sid, reply: replies.append(sid))
        scheduler.run()
        assert replies == []
        assert network.delivered_counts[0] == 0

    def test_lost_messages_never_arrive(self):
        scheduler, network = self.make(faults=LinkFaults(loss=0.999999), seed=1)
        replies = []
        for _ in range(20):
            network.send(0, ReadRequest(client_id=0), lambda sid, reply: replies.append(sid))
        scheduler.run()
        assert replies == []
        assert network.attempted_counts[0] == 20

    def test_duplicated_requests_are_handled_twice(self):
        scheduler, network = self.make(faults=LinkFaults(duplication=1.0))
        replies = []
        network.send(0, ReadRequest(client_id=0), lambda sid, reply: replies.append(sid))
        scheduler.run()
        # Two request copies, each answered by a duplicated reply.
        assert network.server(0).access_count == 2
        assert len(replies) == 4

    def test_unknown_server_and_empty_request_raise(self):
        _, network = self.make()
        with pytest.raises(SimulationError):
            network.send(99, ReadRequest(client_id=0), lambda sid, reply: None)
        with pytest.raises(SimulationError):
            network.send(0, None, lambda sid, reply: None)
        with pytest.raises(SimulationError):
            EventNetwork({}, FaultScenario.fault_free(), scheduler=EventScheduler())

    def test_unknown_request_type_raises_at_delivery(self):
        scheduler, network = self.make()
        network.send(0, "not-a-request", lambda sid, reply: None)
        with pytest.raises(SimulationError, match="unsupported request type"):
            scheduler.run()

    def send_reads(self, crashed, destinations):
        scheduler, network = self.make(crashed=crashed)
        for server_id in destinations:
            network.send(server_id, ReadRequest(client_id=0), lambda sid, reply: None)
        scheduler.run()
        return network

    def test_attempted_vs_delivered_counters(self):
        # The accounting split: a probe of a crashed server is attempted but
        # never delivered, so the two counters diverge exactly there.
        network = self.send_reads({1}, [0, 1, 1])
        assert network.attempted_counts == {0: 1, 1: 2, 2: 0}
        assert network.delivered_counts == {0: 1, 1: 0, 2: 0}

    def test_empirical_message_rates(self):
        network = self.send_reads({1}, [0, 0, 1])
        attempted = network.empirical_message_rates(2)
        delivered = network.empirical_message_rates(2, which="delivered")
        assert attempted[0] == pytest.approx(1.0)
        assert attempted[1] == pytest.approx(0.5)
        assert delivered[1] == pytest.approx(0.0)
        with pytest.raises(SimulationError):
            network.empirical_message_rates(0)
        with pytest.raises(SimulationError):
            network.empirical_message_rates(2, which="bogus")


# ----------------------------------------------------------------------
# Zero-latency agreement: the service driver against the event driver.
# ----------------------------------------------------------------------
class LoopbackServiceClient(ServiceQuorumClient):
    """The asyncio driver with the sockets cut out.

    Each exchange still crosses the whole wire codec in both directions —
    request -> frame -> bytes -> frame -> request -> replica state machine ->
    reply -> frame -> bytes -> frame -> reply — exactly what a live replica
    process does; crashed servers are silent.
    """

    def __init__(self, servers, scenario, **kwargs):
        super().__init__(
            endpoints={server_id: ("loopback", 0) for server_id in servers}, **kwargs
        )
        self.servers = servers
        self.scenario = scenario
        self.indices = {server_id: index for index, server_id in enumerate(servers)}
        self.frames_exchanged = 0

    async def _exchange(self, server_id, request):
        if not self.scenario.is_responsive(server_id):
            return None
        frame, rest = wire.decode_frame(wire.encode_frame(wire.request_to_frame(request)))
        assert not rest
        decoded = wire.frame_to_request(frame)
        reply = self.servers[server_id].handle(decoded)
        frame, rest = wire.decode_frame(
            wire.encode_frame(wire.reply_to_frame(reply, server_index=self.indices[server_id]))
        )
        assert not rest
        self.frames_exchanged += 2
        return wire.frame_to_reply(frame, server_id=server_id)


def drive_service_loopback(
    servers, scenario, script, client_type=LoopbackServiceClient, **client_kwargs
):
    client = client_type(servers, scenario, **client_kwargs)

    async def run():
        return [
            await (client.write(value) if kind == "write" else client.read())
            for kind, value in script
        ]

    results = asyncio.run(run())
    assert client.frames_exchanged > 0
    return results, client


def service_agreement(system, **kwargs):
    """Event vs service driver; needs no socket, never skips."""
    return driver_agreement(system, drive_service_loopback, **kwargs)


def test_cancelled_service_operation_frees_the_client(small_system):
    """A cancelled ``await client.read()`` must not leave the client busy."""
    servers = {server_id: ReplicaServer(server_id) for server_id in small_system.universe}

    class Hanging(LoopbackServiceClient):
        hang = True

        async def _exchange(self, server_id, request):
            if self.hang:
                await asyncio.Event().wait()
            return await super()._exchange(server_id, request)

    client = Hanging(servers, FaultScenario.fault_free(), client_id=0, system=small_system, b=2)

    async def scenario():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(client.read(), timeout=0.05)
        client.hang = False
        return await client.read()

    assert asyncio.run(scenario()).success


def test_cancelled_service_operation_abandons_its_connections(small_system, monkeypatch):
    """A request in flight when its caller gives up poisons a pooled connection:
    the late reply would be read as the answer to the *next* request.  The
    socket-free twin of ``test_cancelled_read_does_not_poison_the_connection_pool``
    (``tests/test_service_live.py``): the real ``_exchange`` over in-memory
    streams, replicas that stall, a cancelled read, and a newer write by
    someone else that the next read must see."""
    servers = {server_id: ReplicaServer(server_id) for server_id in small_system.universe}
    stalled: list | None = None  # while stalled: the connections' unanswered requests

    class Aborted:
        aborted = False

        def abort(self):
            self.aborted = True

    class ReplicaEnd:
        """What the client holds as a ``StreamWriter``; answers into ``reader``."""

        def __init__(self, server_id, reader):
            self.server_id, self.reader, self.transport = server_id, reader, Aborted()

        def write(self, data):
            if stalled is None:
                self.answer(data)
            else:
                stalled.append((self, data))

        def answer(self, data):
            frame, _ = wire.decode_frame(data)
            reply = servers[self.server_id].handle(wire.frame_to_request(frame))
            if not self.transport.aborted:
                self.reader.feed_data(
                    wire.encode_frame(wire.reply_to_frame(reply, server_index=self.server_id))
                )

        async def drain(self):
            pass

        def close(self):
            self.transport.abort()

        async def wait_closed(self):
            pass

    async def connect(host, port):
        reader = asyncio.StreamReader()
        return reader, ReplicaEnd(host, reader)

    monkeypatch.setattr(asyncio, "open_connection", connect)
    client = ServiceQuorumClient(
        0, small_system, {server_id: (server_id, 0) for server_id in servers}, b=2
    )

    async def scenario():
        nonlocal stalled
        assert (await client.write("v1")).success
        assert (await client.read()).value == "v1"
        stalled = []
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(client.read(), timeout=0.05)
        parked, stalled = stalled, None
        for end, data in parked:
            end.answer(data)
        newer = ValueTimestampPair("v2", Timestamp(2, 1))  # another client's write
        for server in servers.values():
            assert server.handle(WriteRequest(client_id=1, pair=newer)).accepted
        return await client.read(), [end for end, _data in parked]

    read, abandoned = asyncio.run(scenario())
    assert read.success and read.value == "v2"
    pooled = [writer for _reader, writer in client._connections.values()]
    assert abandoned and all(end.transport.aborted and end not in pooled for end in abandoned)


class TestZeroLatencyAgreement:
    def test_fault_free(self, small_system):
        report = service_agreement(small_system, b=2, num_operations=80, seed=11)
        assert report.ok, report.mismatches

    def test_with_crashes_and_retries(self, small_system):
        scenario = FaultScenario(crashed=frozenset({0, 1}))
        report = service_agreement(
            small_system, b=2, scenario=scenario, num_operations=60, seed=3
        )
        assert report.ok, report.mismatches

    def test_under_the_optimal_strategy(self, small_system):
        scenario = FaultScenario(crashed=frozenset({4}))
        report = service_agreement(
            small_system, b=2, scenario=scenario, strategy="optimal",
            num_operations=60, seed=5,
        )
        assert report.ok, report.mismatches

    def test_a_diverging_driver_is_reported(self, small_system):
        # The comparison has teeth: a driver that never hears server 0 (so
        # every probe containing it looks partly silent) cannot agree.
        class Lossy(LoopbackServiceClient):
            async def _exchange(self, server_id, request):
                if server_id == 0:
                    return None
                return await super()._exchange(server_id, request)

        lossy = partial(drive_service_loopback, client_type=Lossy)
        report = driver_agreement(small_system, lossy, b=2, num_operations=30, seed=11)
        assert not report.ok
        assert service_agreement(small_system, b=2, num_operations=30, seed=11).ok

    @pytest.mark.parametrize("behaviour", sorted(BYZANTINE_BEHAVIOURS))
    def test_under_every_byzantine_behaviour(self, small_system, rng, behaviour):
        scenario = FaultInjector(small_system.universe, rng).exact(
            num_byzantine=2, num_crashed=1
        )
        report = service_agreement(
            small_system,
            b=2,
            scenario=scenario,
            byzantine_behaviour=behaviour,
            num_operations=50,
            seed=7,
        )
        assert report.ok, report.mismatches

    def test_unavailable_operations_agree_too(self, small_system):
        scenario = FaultScenario(crashed=frozenset({0, 1, 2}))  # a transversal
        report = service_agreement(
            small_system, b=2, scenario=scenario, num_operations=20, seed=9
        )
        assert report.ok, report.mismatches


# ----------------------------------------------------------------------
# Real attempts accounting (the hardcoded attempts=1 regression).
# ----------------------------------------------------------------------
class TestAttemptsAccounting:
    def test_attempts_accumulate_across_probes(self, event_register, rng, complete):
        system = ThresholdQuorumSystem(5, 4)
        scenario = FaultScenario(crashed=frozenset({0}))
        (client,) = event_register(system, scenario, b=0, rng=rng).clients
        results = [complete(client.write, f"v{i}") for i in range(20)]
        assert all(result.success for result in results)
        total_attempts = sum(result.attempts for result in results)
        # Every probe touches exactly one 4-member quorum.
        assert sum(client.attempted_access_counts.values()) == 4 * total_attempts
        # The first write had no suspicion information yet, so on this seed
        # at least one operation needed more than one probe — the old
        # hardcoded attempts=1 would under-report this total.
        assert total_attempts > len(results)

    def test_failed_operations_charge_the_full_budget(self, event_register, rng, complete):
        system = ThresholdQuorumSystem(9, 7)
        scenario = FaultScenario(crashed=frozenset({0, 1, 2}))
        (client,) = event_register(system, scenario, b=2, rng=rng, max_attempts=5).clients
        result = complete(client.write, "doomed")
        assert not result.success
        assert result.attempts == 5
        read_result = complete(client.read)
        assert not read_result.success
        assert read_result.attempts == 5

    def test_write_phase_retry_counts_real_attempts(self):
        # A mid-operation crash between the timestamp query and the install
        # forces the write-phase retry path, which used to report
        # 2 * max_attempts regardless of the real count.
        system = ThresholdQuorumSystem(5, 4)
        scheduler = EventScheduler()
        servers = build_replicas(system, frozenset(), rng=np.random.default_rng(0))
        scenario = TimingScenario(
            "crash-at-1.5",
            ((0.0, FaultScenario.fault_free()),
             (1.5, FaultScenario(crashed=frozenset({0})))),
            latency=LatencyModel(base=1.0),
        )
        network = EventNetwork(
            servers, scenario, scheduler=scheduler, rng=np.random.default_rng(1),
        )
        client = AsyncQuorumClient(
            0, system, network, b=0,
            policy=RetryPolicy(max_attempts=8, request_timeout=3.0),
            rng=np.random.default_rng(2),
        )
        results = []
        client.write("survivor", results.append)
        scheduler.run()
        (result,) = results
        assert result.success
        # The timestamp phase succeeded on the first probe (before the
        # crash); the install retried through at least one fresh quorum.
        assert result.attempts >= 2
        assert result.attempts < 16  # not the old 2 * max_attempts fiction
        assert 0 not in result.quorum


# ----------------------------------------------------------------------
# Load-definition agreement across the protocol paths (satellite 3).
# ----------------------------------------------------------------------
class TestLoadAccountingAgreement:
    def test_message_level_and_vectorised_loads_agree_under_crashes(
        self, event_register, rng, complete
    ):
        system = ThresholdQuorumSystem(9, 7)
        scenario = FaultScenario(crashed=frozenset({0, 1}))
        (client,) = event_register(system, scenario, b=2, rng=rng).clients
        operations = 400
        for index in range(operations):
            if index % 2 == 0:
                assert complete(client.write, index).success
            else:
                assert complete(client.read).success
        message_loads, attempted_loads = access_frequencies([client], system.universe)
        # Load values are genuine access frequencies: never above 1, even
        # though crashes force extra probes (the pre-fix accounting divided
        # raw deliveries by operations and could exceed 1 here).
        assert max(message_loads.values()) <= 1.0
        engine_result = run_workload(
            system, b=2, num_operations=operations, scenario=scenario,
            rng=np.random.default_rng(123),
        )
        assert max(engine_result.per_server_load.values()) <= 1.0
        # Same definition, same steering limit: busiest-server frequencies
        # agree up to sampling noise.
        assert max(message_loads.values()) == pytest.approx(
            engine_result.empirical_load, abs=0.1
        )
        # Crashed servers take probes (attempted) but serve no load.
        assert message_loads[0] == 0.0
        assert attempted_loads[0] > 0.0

    def test_event_layer_uses_the_same_definition(self, rng):
        system = ThresholdQuorumSystem(9, 7)
        scenario = FaultScenario(crashed=frozenset({0, 1}))
        result = run_event_workload(
            system, b=2, num_clients=6, operations_per_client=40,
            scenario=TimingScenario.static(
                scenario, latency=LatencyModel.uniform(1.0, 0.5)
            ),
            rng=rng,
        )
        assert result.availability == pytest.approx(1.0)
        assert max(result.per_server_load.values()) <= 1.0
        assert result.per_server_load[0] == 0.0


# ----------------------------------------------------------------------
# Concurrent histories (satellite 4 + acceptance demo).
# ----------------------------------------------------------------------
class TestConcurrentHistories:
    def test_every_timing_scenario_checks_clean(self):
        """Eight interleaved clients on Threshold(9, 7) across the timing suite.

        Fault-free, slow servers, flaky links, a crash/recover window and
        slow-plus-Byzantine: every scenario stays within the masking bound,
        so every history must check clean, with real concurrency.
        """
        system = ThresholdQuorumSystem(9, 7)
        suite = timing_scenario_suite(
            system.universe,
            b=2,
            rng=np.random.default_rng(20240614),
            latency=LatencyModel.uniform(1.0, 0.5),
        )
        for scenario in suite:
            result = run_event_workload(
                system,
                b=2,
                num_clients=8,
                operations_per_client=40,
                scenario=scenario,
                rng=np.random.default_rng(20240614),
            )
            assert result.check.ok, (scenario.name, result.check.violations)
            assert result.check.concurrent_pairs > 0, f"{scenario.name}: no concurrency"
            assert result.empirical_load <= 1.0

    def test_fault_free_run_with_read_retries_is_fully_available(self):
        result = run_event_workload(
            ThresholdQuorumSystem(9, 7),
            b=2,
            num_clients=8,
            operations_per_client=100,
            scenario=TimingScenario.static(
                FaultScenario.fault_free(), latency=LatencyModel.uniform(1.0, 1.0)
            ),
            retry_unvouched_reads=True,
            rng=np.random.default_rng(99),
        )
        assert result.check.ok
        assert result.availability == 1.0

    def test_interleaved_writers_produce_unique_increasing_timestamps(self, rng):
        system = ThresholdQuorumSystem(9, 7)
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=15,
            write_fraction=1.0,
            scenario=TimingScenario.static(
                FaultScenario.fault_free(), latency=LatencyModel.uniform(1.0, 1.0)
            ),
            rng=rng, keep_history=True,
        )
        writes = [record for record in result.history if record.kind == "write"]
        assert len(writes) == 120
        assert result.check.concurrent_pairs > 0, "history must actually interleave"
        timestamps = [record.attempted_pair.timestamp for record in writes]
        assert len(set(timestamps)) == len(timestamps), "duplicate write timestamp"
        by_client: dict = {}
        for record in sorted(writes, key=lambda r: r.invoked_at):
            previous = by_client.get(record.client_id)
            if previous is not None:
                assert record.attempted_pair.timestamp > previous
            by_client[record.client_id] = record.attempted_pair.timestamp
        assert result.check.ok, result.check.violations

    @pytest.mark.parametrize("behaviour", sorted(BYZANTINE_BEHAVIOURS))
    def test_concurrent_reads_return_old_or_new_at_b_colluders(self, rng, behaviour):
        # >= 8 interleaved clients, b colluders: every successful read must
        # return the initial value or a genuinely written value (old or new
        # of a concurrent write), and never a Byzantine fabrication — under
        # every adversarial behaviour.
        system = ThresholdQuorumSystem(9, 7)
        byzantine = FaultInjector(system.universe, rng).exact(num_byzantine=2)
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=12,
            scenario=TimingScenario.static(
                byzantine,
                latency=LatencyModel.uniform(1.0, 1.0),
                byzantine_behaviour=behaviour,
            ),
            rng=rng, keep_history=True,
        )
        assert result.check.concurrent_pairs > 0
        assert result.check.ok, result.check.violations
        legitimate = {None} | {
            record.attempted_pair.value
            for record in result.history
            if record.kind == "write" and record.attempted_pair is not None
        }
        for record in result.history:
            if record.kind == "read" and record.success:
                assert record.value in legitimate

    def test_beyond_the_bound_the_checker_catches_fabrication(self, rng):
        # The negative case: 2b + 1 colluders answering reads reach the
        # b + 1 vouching threshold and the history checker must flag it.
        system = ThresholdQuorumSystem(9, 7)
        byzantine = FaultInjector(system.universe, rng).exact(num_byzantine=5)
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=10,
            scenario=TimingScenario.static(
                byzantine,
                latency=LatencyModel.uniform(1.0, 1.0),
                byzantine_behaviour="forge-on-read",
            ),
            rng=rng,
            allow_overload=True,
        )
        assert not result.check.ok
        assert result.check.fabricated_reads > 0
        assert result.consistency_violations == result.check.fabricated_reads

    def test_crash_recover_mid_run_keeps_history_consistent(self, rng):
        system = ThresholdQuorumSystem(9, 7)
        scenario = crash_recover_scenario(
            system.universe, [0, 1], down_at=20.0, up_at=60.0,
            latency=LatencyModel.uniform(1.0, 0.5),
        )
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=12,
            scenario=scenario, rng=rng,
        )
        assert result.check.ok, result.check.violations
        assert result.availability > 0.9

    def test_recovered_servers_are_exonerated_and_serve_load_again(self, rng):
        # Regression: suspicion must not be permanent.  Servers crashed only
        # in a short early window should, once recovered and answering,
        # leave the clients' suspected sets and take quorum load again.
        system = ThresholdQuorumSystem(9, 7)
        scenario = crash_recover_scenario(
            system.universe, [0, 1], down_at=5.0, up_at=30.0,
            latency=LatencyModel.uniform(1.0, 0.5),
        )
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=60,
            scenario=scenario, rng=rng,
        )
        assert result.check.ok, result.check.violations
        assert result.per_server_load[0] > 0.0
        assert result.per_server_load[1] > 0.0

    def test_slow_servers_are_correct_but_late(self, rng):
        system = ThresholdQuorumSystem(9, 7)
        slow = {0: 6.0, 1: 6.0}
        scenario = slow_server_scenario(
            system.universe, slow, latency=LatencyModel.uniform(1.0, 0.5)
        )
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=12,
            scenario=scenario, rng=rng,
        )
        assert result.check.ok, result.check.violations
        assert result.latency_p99 >= result.latency_p50 >= 0.0

    def test_slowness_bites_under_a_pure_tail_latency_model(self, rng):
        # Regression: the service stretch must scale with the whole latency
        # model (tail_mean included), not just base/jitter — a slow server
        # under an exponential-tail-only model must actually be slower.
        system = ThresholdQuorumSystem(5, 4)
        tail_only = LatencyModel(tail_mean=1.0)
        fast = run_event_workload(
            system, b=0, num_clients=4, operations_per_client=20,
            scenario=TimingScenario.static(FaultScenario.fault_free(), latency=tail_only),
            rng=np.random.default_rng(42),
        )
        slow = run_event_workload(
            system, b=0, num_clients=4, operations_per_client=20,
            scenario=slow_server_scenario(
                system.universe, {0: 10.0, 1: 10.0}, latency=tail_only
            ),
            rng=np.random.default_rng(42),
        )
        assert slow.latency_mean > fast.latency_mean

    def test_timing_scenario_behaviour_reaches_the_replicas(self, rng):
        # The Byzantine replicas tell the lie their TimingScenario names.
        system = ThresholdQuorumSystem(9, 7)
        byz = FaultInjector(system.universe, rng).exact(num_byzantine=2).byzantine
        scenario = slow_server_scenario(
            system.universe, {sorted(system.universe.elements)[-1]: 2.0},
            byzantine=byz, latency=LatencyModel.uniform(1.0, 0.5),
        )
        assert scenario.byzantine_behaviour == "fabricate-timestamp"
        result = run_event_workload(
            system, b=2, num_clients=4, operations_per_client=6,
            scenario=replace(scenario, byzantine_behaviour="stale"), rng=rng,
            keep_history=True,
        )
        assert result.check.ok
        # Stale replicas answer with the initial timestamp; fabricate would
        # have pushed every installed counter past 10**9.
        assert all(
            record.attempted_pair.timestamp.counter < 10**9
            for record in result.history
            if record.kind == "write" and record.attempted_pair is not None
        )

    def test_same_instant_starts_count_as_concurrent(self):
        from repro.simulation.history import _count_concurrent_pairs

        def rec(invoked, responded):
            return OperationRecord(
                client_id=0, kind="read", invoked_at=invoked,
                responded_at=responded, success=True,
            )

        assert _count_concurrent_pairs([rec(0, 5), rec(0, 5), rec(0, 5)]) == 3
        assert _count_concurrent_pairs([rec(0, 1), rec(1, 2)]) == 0
        assert _count_concurrent_pairs([rec(0, 2), rec(1, 3)]) == 1
        assert _count_concurrent_pairs([rec(0, 0), rec(0, 0)]) == 0

    def test_flaky_links_preserve_safety(self, rng):
        system = ThresholdQuorumSystem(9, 7)
        scenario = flaky_links_scenario(loss=0.05, duplication=0.05)
        result = run_event_workload(
            system, b=2, num_clients=8, operations_per_client=12,
            scenario=scenario, rng=rng,
        )
        assert result.check.ok, result.check.violations

    def test_sequential_clients_cannot_overlap_themselves(self, small_system):
        scheduler = EventScheduler()
        servers = build_replicas(small_system, frozenset(), rng=np.random.default_rng(0))
        network = EventNetwork(
            servers,
            TimingScenario.static(FaultScenario.fault_free(), latency=LatencyModel(base=1.0)),
            scheduler=scheduler,
            rng=np.random.default_rng(1),
        )
        client = AsyncQuorumClient(0, small_system, network, b=2,
                                   rng=np.random.default_rng(2))
        client.write("first", None)
        with pytest.raises(SimulationError):
            client.write("second", None)


# ----------------------------------------------------------------------
# The checker itself, on synthetic histories.
# ----------------------------------------------------------------------
class TestHistoryChecker:
    @staticmethod
    def write_record(client_id, invoked, responded, counter, *, success=True, value="v"):
        pair = ValueTimestampPair(value=value, timestamp=Timestamp(counter, client_id))
        return OperationRecord(
            client_id=client_id, kind="write", invoked_at=invoked,
            responded_at=responded, success=success, value=value,
            timestamp=pair.timestamp if success else None,
            attempted_pair=pair,
        )

    @staticmethod
    def read_record(client_id, invoked, responded, counter, owner, *, value="v"):
        return OperationRecord(
            client_id=client_id, kind="read", invoked_at=invoked,
            responded_at=responded, success=True, value=value,
            timestamp=Timestamp(counter, owner),
        )

    def test_clean_history_passes(self):
        records = [
            self.write_record(0, 0.0, 1.0, 1),
            self.read_record(1, 2.0, 3.0, 1, 0),
        ]
        check = check_register_history(records)
        assert check.ok
        assert check.operations == 2

    def test_detects_fabricated_read(self):
        records = [
            self.write_record(0, 0.0, 1.0, 1),
            self.read_record(1, 2.0, 3.0, 99, 123, value="forged"),
        ]
        check = check_register_history(records)
        assert not check.ok
        assert check.fabricated_reads == 1

    def test_detects_stale_read(self):
        records = [
            self.write_record(0, 0.0, 1.0, 1, value="old"),
            self.write_record(0, 2.0, 3.0, 2, value="new"),
            # Read starts after the second write completed but returns the
            # first value: stale.
            self.read_record(1, 4.0, 5.0, 1, 0, value="old"),
        ]
        check = check_register_history(records)
        assert not check.ok
        assert check.stale_reads == 1

    def test_concurrent_read_may_return_old_value(self):
        records = [
            self.write_record(0, 0.0, 1.0, 1, value="old"),
            self.write_record(0, 2.0, 6.0, 2, value="new"),
            # Read overlaps the second write: old value is legitimate.
            self.read_record(1, 3.0, 4.0, 1, 0, value="old"),
        ]
        assert check_register_history(records).ok

    def test_detects_duplicate_write_timestamps(self):
        records = [
            self.write_record(0, 0.0, 1.0, 1),
            self.write_record(1, 0.5, 1.5, 1),
        ]
        # Different clients: distinct (counter, client) pairs — fine.
        assert check_register_history(records).ok
        duplicated = [
            self.write_record(0, 0.0, 1.0, 1),
            self.write_record(0, 2.0, 3.0, 1),
        ]
        check = check_register_history(duplicated)
        assert check.duplicate_write_timestamps == 1

    def test_detects_write_order_violation(self):
        records = [
            self.write_record(0, 0.0, 1.0, 5),
            # Starts after the first completed but installs a smaller stamp.
            self.write_record(1, 2.0, 3.0, 4),
        ]
        check = check_register_history(records)
        assert not check.ok
        assert check.write_order_violations >= 1

    def test_recorder_collects_and_checks(self):
        from repro.simulation import OperationResult

        recorder = HistoryRecorder()
        recorder.record(
            client_id=0, kind="write", invoked_at=0.0, responded_at=1.0,
            result=OperationResult(
                success=True, value="v", timestamp=Timestamp(1, 0),
                quorum=frozenset({0}), attempts=1,
            ),
            attempted_pair=ValueTimestampPair(value="v", timestamp=Timestamp(1, 0)),
        )
        assert recorder.check().ok
