"""Transport-free unit tests of the protocol core.

:class:`~repro.simulation.client.ProtocolCore` yields broadcasts and is
resumed with reply dicts; these tests play the network by hand — no network
object, scheduler or socket — so each protocol decision (suspicion, retry,
timestamp choice, vouching, accounting) is pinned down in isolation from
every driver.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from repro import SimulationError, ThresholdQuorumSystem
from repro.simulation import HistoryRecorder, ReplicaServer, RetryPolicy
from repro.simulation.client import OperationResult, ProtocolCore, advance, vouched_pair
from repro.simulation.messages import (
    ReadReply,
    ReadRequest,
    Timestamp,
    TimestampRequest,
    ValueTimestampPair,
    WriteRequest,
)

B = 1
HANDLERS = {
    TimestampRequest: "handle_timestamp",
    ReadRequest: "handle_read",
    WriteRequest: "handle_write",
}


@pytest.fixture
def system():
    """4-of-5 threshold: any two quorums share 3 = 2b + 1 servers at b = 1."""
    return ThresholdQuorumSystem(5, 4)


@pytest.fixture
def servers(system):
    return {server_id: ReplicaServer(server_id) for server_id in system.universe}


def make_core(system, *, history=None, **policy):
    ticks = itertools.count()
    return ProtocolCore(
        7,
        system,
        b=B,
        policy=RetryPolicy(**policy),
        rng=np.random.default_rng(0),
        history=history,
        clock=lambda: float(next(ticks)),
    )


def answer(servers, broadcast, *, silent=()):
    """What honest replicas reply to a broadcast; ``silent`` members say nothing."""
    quorum, request = broadcast
    return {
        server_id: getattr(servers[server_id], HANDLERS[type(request)])(request)
        for server_id in quorum
        if server_id not in silent
    }


def split_votes(broadcast):
    """Read replies in which no two members report the same pair."""
    quorum, _request = broadcast
    return {
        server_id: ReadReply(
            server_id, ValueTimestampPair(f"split-{server_id}", Timestamp(1, server_id))
        )
        for server_id in quorum
    }


def forged_read(broadcast, servers, liars):
    """Honest read replies, except ``liars`` who agree on one forged pair."""
    forged = ValueTimestampPair("forged", Timestamp(10**9, 666))
    replies = answer(servers, broadcast)
    for server_id in liars:
        replies[server_id] = ReadReply(server_id, forged)
    return replies


def write_through(core, servers, value):
    operation = core.write_operation(value)
    step = advance(operation)
    while not isinstance(step, OperationResult):
        step = advance(operation, answer(servers, step))
    return step


# ----------------------------------------------------------------------
# Silence suspects, an answer exonerates.
# ----------------------------------------------------------------------
class TestSuspicion:
    def test_silent_member_is_suspected_and_avoided(self, system, servers):
        core = make_core(system)
        operation = core.read_operation()
        first = advance(operation)
        assert isinstance(first[1], ReadRequest)
        victim = min(first[0])

        second = advance(operation, answer(servers, first, silent={victim}))
        assert core.suspected == {victim}
        assert core.timeouts == 1
        assert victim not in second[0]
        assert second[1] is first[1]  # the same request goes to the next quorum

        result = advance(operation, answer(servers, second))
        assert result.success
        assert result.attempts == 2
        assert result.quorum == second[0]
        # Every probe is charged as attempted; only the one that served the
        # successful operation counts towards the load.
        assert core.attempted_access_counts == Counter(first[0]) + Counter(second[0])
        assert core.successful_access_counts == Counter(second[0])
        assert (core.operations_started, core.successful_operations) == (1, 1)

    def test_an_answer_exonerates(self, system, servers):
        core = make_core(system)
        # No 4-of-5 quorum avoids two servers, so one suspect must be probed.
        core.suspected = {0, 1}
        operation = core.read_operation()
        probe = advance(operation)
        probed_suspects = core.suspected & probe[0]
        assert probed_suspects
        result = advance(operation, answer(servers, probe))
        assert result.success
        assert core.suspected == {0, 1} - probed_suspects

    def test_budget_exhaustion_fails_the_operation(self, system, servers):
        core = make_core(system, max_attempts=3)
        operation = core.read_operation()
        step = advance(operation)
        probes = 0
        while not isinstance(step, OperationResult):
            probes += 1
            step = advance(operation, {})  # nobody ever answers
        assert probes == 3
        assert not step.success
        assert step.quorum is None
        assert step.attempts == 3
        assert core.successful_operations == 0
        assert not core.successful_access_counts

    def test_one_operation_at_a_time(self, system):
        core = make_core(system)
        in_flight = core.read_operation()
        advance(in_flight)
        with pytest.raises(SimulationError, match="already has an operation in flight"):
            advance(core.read_operation())

    def test_an_abandoned_operation_frees_the_client(self, system, servers):
        # What a cancelled asyncio driver does: close the generator mid-probe.
        core = make_core(system)
        abandoned = core.read_operation()
        advance(abandoned)
        abandoned.close()
        result = write_through(core, servers, "v")
        assert result.success
        assert (core.operations_started, core.successful_operations) == (2, 1)


# ----------------------------------------------------------------------
# The two-phase write.
# ----------------------------------------------------------------------
class TestWrite:
    def test_fresh_timestamp_then_install_at_the_same_quorum(self, system, servers):
        core = make_core(system)
        write_through(core, servers, "old")
        operation = core.write_operation("new")
        query = advance(operation)
        assert isinstance(query[1], TimestampRequest)
        install = advance(operation, answer(servers, query))
        assert isinstance(install[1], WriteRequest)
        assert install[0] == query[0]
        assert install[1].pair == ValueTimestampPair("new", Timestamp(2, 7))
        result = advance(operation, answer(servers, install))
        assert result == OperationResult(
            success=True,
            value="new",
            timestamp=Timestamp(2, 7),
            quorum=query[0],
            attempts=1,
            latency=result.latency,
        )

    def test_write_phase_loss_retries_through_fresh_quorums(self, system, servers):
        history = HistoryRecorder()
        core = make_core(system, history=history)
        operation = core.write_operation("v")
        query = advance(operation)
        install = advance(operation, answer(servers, query))
        victim = min(install[0])

        retry = advance(operation, answer(servers, install, silent={victim}))
        assert retry[1] is install[1]  # the very same pair is re-installed
        assert victim not in retry[0]
        result = advance(operation, answer(servers, retry))

        assert result.success
        assert result.quorum == retry[0]
        assert result.timestamp == install[1].pair.timestamp
        # One timestamp probe plus one retry probe: the real total.
        assert result.attempts == 2
        assert core.attempted_access_counts == Counter(query[0]) + Counter(retry[0])
        assert core.successful_access_counts == Counter(retry[0])
        (record,) = history.records
        assert (record.kind, record.success, record.attempts) == ("write", True, 2)
        assert record.attempted_pair == install[1].pair
        assert (record.invoked_at, record.responded_at) == (0.0, 1.0)
        assert result.latency == 1.0

    def test_exhausted_install_reports_the_attempted_pair(self, system, servers):
        history = HistoryRecorder()
        core = make_core(system, history=history, max_attempts=2)
        operation = core.write_operation("v")
        install = advance(operation, answer(servers, advance(operation)))
        step = advance(operation, {})
        while not isinstance(step, OperationResult):
            assert step[1] is install[1]
            step = advance(operation, {})
        assert not step.success
        assert step.attempts == 1 + 2
        (record,) = history.records
        # The pair may have reached some replicas: the checker must know it.
        assert record.attempted_pair == install[1].pair

    def test_half_failed_install_never_reuses_a_counter(self, system, servers):
        core = make_core(system, max_attempts=1)
        operation = core.write_operation("lost")
        install = advance(operation, answer(servers, advance(operation)))
        lost = install[1].pair.timestamp
        step = advance(operation, {})  # the install reaches nobody ...
        while not isinstance(step, OperationResult):
            step = advance(operation, {})  # ... and neither does the retry
        assert not step.success
        assert all(server.current_pair.timestamp < lost for server in servers.values())

        core.suspected.clear()
        result = write_through(core, servers, "kept")
        assert result.success
        # No replica ever saw `lost`, yet its counter is burnt for good.
        assert result.timestamp > lost
        assert result.timestamp.counter == lost.counter + 1


# ----------------------------------------------------------------------
# The b + 1-vouched read.
# ----------------------------------------------------------------------
class TestRead:
    def test_unvouched_read_fails_without_the_retry_flag(self, system):
        core = make_core(system)
        operation = core.read_operation()
        probe = advance(operation)
        result = advance(operation, split_votes(probe))
        assert not result.success
        assert result.value is None
        assert result.quorum == probe[0]  # responsive, just not vouched
        assert result.attempts == 1
        assert not core.successful_access_counts

    def test_unvouched_read_retries_up_to_the_budget(self, system):
        core = make_core(system, retry_unvouched_reads=True, max_attempts=3)
        operation = core.read_operation()
        step = advance(operation)
        probes = 0
        while not isinstance(step, OperationResult):
            probes += 1
            step = advance(operation, split_votes(step))
        assert probes == 3
        assert not step.success
        assert step.attempts == 3

    def test_unvouched_read_retry_can_succeed(self, system, servers):
        core = make_core(system, retry_unvouched_reads=True)
        write_through(core, servers, "v")
        operation = core.read_operation()
        again = advance(operation, split_votes(advance(operation)))
        result = advance(operation, answer(servers, again))
        assert result.success
        assert (result.value, result.attempts) == ("v", 2)

    def test_b_forged_replies_are_discarded(self, system, servers):
        core = make_core(system)
        written = write_through(core, servers, "honest")
        operation = core.read_operation()
        probe = advance(operation)
        liars = sorted(probe[0])[:B]
        result = advance(operation, forged_read(probe, servers, liars))
        assert result.success
        assert (result.value, result.timestamp) == ("honest", written.timestamp)

    def test_b_plus_one_forged_replies_are_not(self, system, servers):
        # The check has teeth: one colluder past the bound and the forgery wins.
        core = make_core(system)
        write_through(core, servers, "honest")
        operation = core.read_operation()
        probe = advance(operation)
        liars = sorted(probe[0])[: B + 1]
        result = advance(operation, forged_read(probe, servers, liars))
        assert result.success
        assert result.value == "forged"

    def test_reads_advance_the_clients_timestamp(self, system, servers):
        writer, reader = make_core(system), make_core(system)
        written = write_through(writer, servers, "v")
        operation = reader.read_operation()
        advance(operation, answer(servers, advance(operation)))
        assert reader.last_timestamp == written.timestamp


# ----------------------------------------------------------------------
# The vouch rule itself.
# ----------------------------------------------------------------------
class TestVouchedPair:
    OLD = ValueTimestampPair("old", Timestamp(1, 0))
    NEW = ValueTimestampPair("new", Timestamp(2, 0))

    def test_empty(self):
        assert vouched_pair([], 0) is None
        assert vouched_pair(iter(()), 3) is None

    def test_all_below_threshold(self):
        assert vouched_pair([self.OLD, self.NEW], 1) is None
        assert vouched_pair([self.OLD] * 3 + [self.NEW] * 3, 3) is None

    def test_threshold_is_exactly_b_plus_one(self):
        assert vouched_pair([self.NEW] * 2 + [self.OLD] * 3, 2) == self.OLD
        assert vouched_pair([self.NEW] * 3 + [self.OLD] * 3, 2) == self.NEW
        assert vouched_pair([self.OLD], 0) == self.OLD

    def test_tied_votes_go_to_the_higher_timestamp(self):
        assert vouched_pair([self.OLD, self.NEW, self.NEW, self.OLD], 1) == self.NEW

    def test_tied_timestamps_go_to_the_first_reported(self):
        twin = ValueTimestampPair("twin", self.NEW.timestamp)
        assert vouched_pair([twin, self.NEW, self.NEW, twin], 1) == twin
        assert vouched_pair([self.NEW, twin, self.NEW, twin], 1) == self.NEW
