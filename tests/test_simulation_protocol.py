"""Integration tests for the masking-quorum register protocol (client + replicas + runner).

The protocol steps run on the event-driven stack at zero latency, each
operation run to completion before the next starts (the ``complete``
fixture): a blocking register, one request object per delivery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import MGrid, SimulationError, ThresholdQuorumSystem, masking_threshold
from repro.simulation import (
    FaultInjector,
    FaultScenario,
    Timestamp,
    ValueTimestampPair,
    run_workload,
)


@pytest.fixture
def small_system():
    """The 7-of-9 threshold system: a 2-masking system small enough for fast runs."""
    return ThresholdQuorumSystem(9, 7)


class TestRegisterDeployment:
    def test_rejects_too_many_byzantine_servers(self, event_register, small_system, rng):
        scenario = FaultScenario(byzantine=frozenset({0, 1, 2}))
        with pytest.raises(SimulationError):
            event_register(small_system, scenario, b=2, rng=rng)

    def test_overload_flag_allows_it(self, event_register, small_system, rng):
        scenario = FaultScenario(byzantine=frozenset({0, 1, 2}))
        stack = event_register(small_system, scenario, b=2, rng=rng, allow_overload=True)
        assert stack.network.scenario.max_byzantine == 3

    def test_rejects_unknown_servers_in_scenario(self, event_register, small_system, rng):
        scenario = FaultScenario(crashed=frozenset({99}))
        with pytest.raises(SimulationError):
            event_register(small_system, scenario, b=2, rng=rng)

    def test_clients_get_unique_ids(self, event_register, small_system, rng):
        first, second = event_register(small_system, b=2, rng=rng, num_clients=2).clients
        assert first.client_id != second.client_id


class TestFaultFreeProtocol:
    def test_read_your_write(self, event_register, small_system, rng, complete):
        (client,) = event_register(small_system, b=2, rng=rng).clients
        assert complete(client.write, "hello").success
        result = complete(client.read)
        assert result.success
        assert result.value == "hello"

    def test_reads_see_other_clients_writes(self, event_register, small_system, rng, complete):
        writer, reader = event_register(small_system, b=2, rng=rng, num_clients=2).clients
        complete(writer.write, "from-writer")
        assert complete(reader.read).value == "from-writer"

    def test_successive_writes_increase_timestamps(
        self, event_register, small_system, rng, complete
    ):
        (client,) = event_register(small_system, b=2, rng=rng).clients
        first = complete(client.write, "a")
        second = complete(client.write, "b")
        assert second.timestamp > first.timestamp

    def test_correct_replicas_converge_on_written_quorum(
        self, event_register, small_system, rng, complete
    ):
        stack = event_register(small_system, b=2, rng=rng)
        result = complete(stack.clients[0].write, "x")
        holders = [
            sid for sid in small_system.universe
            if stack.network.server(sid).current_pair.value == "x"
        ]
        assert set(result.quorum) <= set(holders)

    def test_initial_read_returns_the_inherited_pair(
        self, event_register, small_system, rng, complete
    ):
        # Replicas restore only a pair newer than the zero pair.
        initial = ValueTimestampPair(value="empty", timestamp=Timestamp(1, 0))
        (client,) = event_register(small_system, b=2, rng=rng, initial_pair=initial).clients
        assert complete(client.read).value == "empty"

    @pytest.mark.parametrize(
        "timestamp", [Timestamp.zero(), Timestamp(0, -2)], ids=["zero", "below-zero"]
    )
    def test_inherited_pair_no_replica_would_hold_is_refused(
        self, event_register, rng, timestamp
    ):
        """No replica installs it, so an honest read of ``None`` would look fabricated."""
        initial = ValueTimestampPair(value="empty", timestamp=timestamp)
        with pytest.raises(SimulationError, match="not newer than the replicas' zero pair"):
            event_register(masking_threshold(5, 1), b=1, rng=rng, initial_pair=initial)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        value=st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=4)),
        counter=st.integers(-1, 3),
        client_id=st.integers(-3, 2),
        seed=st.integers(0, 2**16),
    )
    @example(value=None, counter=0, client_id=-1, seed=0)
    @example(value="empty", counter=1, client_id=0, seed=0)
    def test_every_accepted_inherited_pair_is_read_back(
        self, event_register, complete, value, counter, client_id, seed
    ):
        """Fault-free and at zero latency, a read returns the inherited pair."""
        initial = ValueTimestampPair(value=value, timestamp=Timestamp(counter, client_id))
        try:
            stack = event_register(
                masking_threshold(5, 1),
                b=1,
                rng=np.random.default_rng(seed),
                initial_pair=initial,
            )
        except SimulationError:
            return
        result = complete(stack.clients[0].read)
        assert result.success
        assert (result.value, result.timestamp) == (value, initial.timestamp)
        assert stack.recorder.check().ok


class TestByzantineMasking:
    @pytest.mark.parametrize(
        "behaviour", ["fabricate-timestamp", "forge-on-read", "stale", "random-value"]
    )
    def test_b_byzantine_servers_cannot_corrupt_reads(
        self, event_register, small_system, rng, complete, behaviour
    ):
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=2)
        (client,) = event_register(
            small_system, scenario, b=2, rng=rng, behaviour=behaviour
        ).clients
        for round_index in range(5):
            value = ("v", round_index)
            complete(client.write, value)
            result = complete(client.read)
            assert result.success
            assert result.value == value

    def test_beyond_the_bound_the_adversary_can_win(
        self, event_register, small_system, rng, complete
    ):
        # With 2b+1 = 5 colluding forgers, forged pairs reach the b+1
        # vouching threshold with a timestamp the writer never saw, and reads
        # return the forged value.
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=5)
        (client,) = event_register(
            small_system,
            scenario,
            b=2,
            rng=rng,
            behaviour="forge-on-read",
            allow_overload=True,
        ).clients
        complete(client.write, "honest")
        corrupted = any(complete(client.read).value != "honest" for _ in range(10))
        assert corrupted

    def test_workload_runner_reports_no_violations_at_the_bound(self, small_system, rng):
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=2, num_crashed=1)
        result = run_workload(
            small_system, b=2, num_operations=80, scenario=scenario, rng=rng
        )
        assert result.consistency_violations == 0
        assert result.successful_writes > 0
        assert result.successful_reads > 0


class TestCrashAvailability:
    def test_crashing_below_resilience_keeps_service_available(self, small_system, rng):
        # f = MT - 1 = 2 crashes are always survivable.
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=0, num_crashed=2)
        result = run_workload(
            small_system, b=2, num_operations=60, scenario=scenario, rng=rng
        )
        assert result.availability == pytest.approx(1.0)

    def test_crashing_a_transversal_makes_operations_fail(
        self, event_register, small_system, rng, complete
    ):
        # Crashing n - k + 1 = 3 specific servers can hit every quorum; with
        # a threshold system ANY 3 crashes do.
        scenario = FaultScenario(crashed=frozenset({0, 1, 2}))
        (client,) = event_register(small_system, scenario, b=2, rng=rng, max_attempts=5).clients
        assert not complete(client.write, "doomed").success
        assert not complete(client.read).success

    def test_workload_under_heavy_crashes_reports_failures(self, small_system, rng):
        scenario = FaultScenario(crashed=frozenset({0, 1, 2, 3}))
        result = run_workload(
            small_system, b=2, num_operations=30, scenario=scenario, rng=rng
        )
        assert result.failed_operations == 30
        assert result.availability == 0.0


class TestEmpiricalLoad:
    def test_empirical_load_tracks_analytic_load(self, rng):
        system = MGrid(5, 1)
        result = run_workload(system, b=1, num_operations=400, rng=rng)
        # The MGrid strategy is uniform over quorums, whose induced load is
        # c/n; the empirical busiest-server frequency should be close.
        assert result.empirical_load == pytest.approx(system.load(), abs=0.12)

    def test_per_server_loads_sum_to_expected_quorum_size(self, small_system, rng):
        result = run_workload(small_system, b=2, num_operations=200, rng=rng)
        total = sum(result.per_server_load.values())
        assert total == pytest.approx(small_system.min_quorum_size(), rel=0.15)

    def test_runner_validates_arguments(self, small_system, rng):
        with pytest.raises(SimulationError):
            run_workload(small_system, b=2, num_operations=0, rng=rng)
        with pytest.raises(SimulationError):
            run_workload(small_system, b=2, num_operations=10, write_fraction=1.5, rng=rng)
