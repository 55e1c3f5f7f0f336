"""Unit tests for replicas (correct and Byzantine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimulationError
from repro.simulation import (
    BYZANTINE_BEHAVIOURS,
    ByzantineReplicaServer,
    ReplicaServer,
    Timestamp,
    ValueTimestampPair,
)
from repro.simulation.messages import REPLY_TYPE, ReadRequest, TimestampRequest, WriteRequest


def write_request(value, counter, client_id=0):
    return WriteRequest(
        client_id=client_id,
        pair=ValueTimestampPair(value=value, timestamp=Timestamp(counter, client_id)),
    )


class TestCorrectReplica:
    def test_initial_state(self):
        server = ReplicaServer("s0", initial_value="init")
        assert server.current_pair.value == "init"
        assert server.current_pair.timestamp == Timestamp.zero()

    def test_write_then_read(self):
        server = ReplicaServer("s0")
        ack = server.handle_write(write_request("v1", 1))
        assert ack.accepted
        reply = server.handle_read(ReadRequest(client_id=0))
        assert reply.pair.value == "v1"

    def test_stale_write_rejected(self):
        server = ReplicaServer("s0")
        server.handle_write(write_request("new", 5))
        ack = server.handle_write(write_request("old", 2))
        assert not ack.accepted
        assert server.current_pair.value == "new"

    def test_timestamp_query(self):
        server = ReplicaServer("s0")
        server.handle_write(write_request("v", 3))
        reply = server.handle_timestamp(TimestampRequest(client_id=1))
        assert reply.timestamp == Timestamp(3, 0)

    def test_access_counting(self):
        server = ReplicaServer("s0")
        server.handle_read(ReadRequest(client_id=0))
        server.handle_timestamp(TimestampRequest(client_id=0))
        server.handle_write(write_request("v", 1))
        assert server.access_count == 3


class TestByzantineReplica:
    def test_unknown_behaviour_rejected(self):
        with pytest.raises(SimulationError):
            ByzantineReplicaServer("s0", behaviour="explode")

    def test_behaviour_catalogue_is_complete(self):
        assert BYZANTINE_BEHAVIOURS == {
            "fabricate-timestamp", "forge-on-read", "stale", "random-value", "drop-writes",
        }

    def test_forge_on_read_keeps_timestamp_queries_honest(self):
        server = ByzantineReplicaServer("s0", behaviour="forge-on-read")
        server.handle_write(write_request("real", 3))
        assert server.handle_timestamp(TimestampRequest(client_id=0)).timestamp == Timestamp(3, 0)
        assert server.handle_read(ReadRequest(client_id=0)).pair.timestamp > Timestamp(10**6, 0)

    def test_fabricated_timestamps_are_enormous(self):
        server = ByzantineReplicaServer("s0", behaviour="fabricate-timestamp")
        reply = server.handle_read(ReadRequest(client_id=0))
        assert reply.pair.timestamp > Timestamp(10**6, 0)
        ts_reply = server.handle_timestamp(TimestampRequest(client_id=0))
        assert ts_reply.timestamp > Timestamp(10**6, 0)

    def test_colluders_agree_on_forged_value(self):
        first = ByzantineReplicaServer("a", collusion_token="forged")
        second = ByzantineReplicaServer("b", collusion_token="forged")
        assert (
            first.handle_read(ReadRequest(client_id=0)).pair
            == second.handle_read(ReadRequest(client_id=0)).pair
        )

    def test_stale_replica_ignores_writes_in_replies(self):
        server = ByzantineReplicaServer("s0", behaviour="stale", initial_value="old")
        server.handle_write(write_request("new", 9))
        assert server.handle_read(ReadRequest(client_id=0)).pair.value == "old"

    def test_random_value_replica_keeps_real_timestamp(self, rng):
        server = ByzantineReplicaServer("s0", behaviour="random-value", rng=rng)
        server.handle_write(write_request("real", 2))
        reply = server.handle_read(ReadRequest(client_id=0))
        assert reply.pair.value != "real"
        assert reply.pair.timestamp == Timestamp(2, 0)

    def test_drop_writes_replica_lies_about_acceptance(self):
        server = ByzantineReplicaServer("s0", behaviour="drop-writes", initial_value="init")
        ack = server.handle_write(write_request("v", 1))
        assert ack.accepted
        assert server.current_pair.value == "init"


class TestAccessCountParity:
    """Regression: Byzantine replicas used to double-count their accesses."""

    TRAFFIC = (
        TimestampRequest(client_id=0),
        ReadRequest(client_id=0),
        WriteRequest(
            client_id=0,
            pair=ValueTimestampPair(value="v", timestamp=Timestamp(1, 0)),
        ),
        ReadRequest(client_id=1),
        TimestampRequest(client_id=1),
    )

    @staticmethod
    def drive(server):
        handlers = {
            "TimestampRequest": server.handle_timestamp,
            "ReadRequest": server.handle_read,
            "WriteRequest": server.handle_write,
        }
        for request in TestAccessCountParity.TRAFFIC:
            handlers[type(request).__name__](request)

    @pytest.mark.parametrize("behaviour", sorted(BYZANTINE_BEHAVIOURS))
    def test_byzantine_counts_match_correct_under_identical_traffic(self, behaviour):
        correct = ReplicaServer("s0")
        byzantine = ByzantineReplicaServer("s1", behaviour=behaviour)
        self.drive(correct)
        self.drive(byzantine)
        assert correct.access_count == len(self.TRAFFIC)
        assert byzantine.access_count == correct.access_count

    @pytest.mark.parametrize("behaviour", [None, *sorted(BYZANTINE_BEHAVIOURS)])
    def test_handle_is_the_matching_handler(self, behaviour):
        """``handle`` — the hosts' one entry point — answers exactly what the
        per-type handler answers, honest replica or liar, and counts once."""

        def replica():
            if behaviour is None:
                return ReplicaServer("s0")
            return ByzantineReplicaServer("s0", behaviour=behaviour, rng=np.random.default_rng(5))

        entry, direct = replica(), replica()
        handlers = {
            TimestampRequest: direct.handle_timestamp,
            ReadRequest: direct.handle_read,
            WriteRequest: direct.handle_write,
        }
        for served, request in enumerate(self.TRAFFIC, start=1):
            reply = entry.handle(request)
            assert reply == handlers[type(request)](request)
            assert isinstance(reply, REPLY_TYPE[type(request)])
            assert entry.access_count == served
        with pytest.raises(SimulationError, match="unsupported request type"):
            entry.handle({"type": "READ"})
        assert entry.access_count == len(self.TRAFFIC)
