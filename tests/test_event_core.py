"""Contract, identity and cost tests of the discrete-event core.

* **Identity.**  One sha256 over every protocol-visible output of
  ``run_event_workload`` — the full history, the per-server tallies,
  ``timeouts`` and ``events_processed`` — for each timing scenario on
  ``mgrid(5, 1)`` and a contended ``threshold(5, 1)`` run, floats hashed by
  ``float.hex``.  The pinned value is what the event core produced before
  its per-message path was rewritten; any change to the order of events or
  of rng draws moves it.
* **Scheduler contract.**  Callbacks receive their ``*args``; ties fire in
  scheduling order; cancelled handles are skipped; the clock never jumps
  past a pending event; non-finite times and timing knobs are rejected.
* **Cached invariants.**  ``LatencyModel``/``LinkFaults``/``FaultScenario``
  compute their flags and factor maps once; the cached views must agree with
  the declared fields.
* **The uniform stream.**  A network's delays and copy counts, drawn from
  blocks of 64 uniforms, equal a replay that draws one scalar
  ``rng.random()`` per uniform; the generator is advanced one block at a
  time, only when the last draw is used, and never by a zero-latency clean
  network; a delivery recognises the fault state in force by identity.
* **Cost.**  A Python-call budget per operation of the ``sim_events``
  benchmark's run, counted with ``sys.setprofile`` — an integer that does
  not depend on how busy the machine is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro import MGrid, SimulationError, ThresholdQuorumSystem, api
from repro.simulation import (
    EventNetwork,
    EventScheduler,
    FaultScenario,
    LatencyModel,
    LinkFaults,
    ReplicaServer,
    RetryPolicy,
    TimingScenario,
    run_event_workload,
)
from repro.simulation.messages import ReadRequest
from repro.simulation.scenarios import timing_scenario_suite


def canon(value):
    """JSON-able canonical form; floats by ``hex`` so equality is bitwise."""
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {repr(key): canon(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    return repr(value)


def result_rows(result) -> list:
    return [
        [canon(asdict(record)) for record in result.history],
        canon(result.per_server_load),
        canon(result.per_server_attempted),
        canon(result.per_server_messages),
        result.timeouts,
        result.events_processed,
    ]


def identity_rows() -> list:
    rows = []
    system = MGrid(5, 1)
    for seed in (3, 11):
        suite = timing_scenario_suite(
            system.universe, b=1, rng=np.random.default_rng(seed)
        )
        for scenario in suite:
            result = run_event_workload(
                system,
                b=1,
                num_clients=4,
                operations_per_client=12,
                scenario=scenario,
                rng=np.random.default_rng(seed),
                keep_history=True,
            )
            rows.append([scenario.name, seed, result_rows(result)])
    # Quorums of 3 out of 5 meet in one server, so reads often find no pair
    # vouched by b + 1 = 2 replicas: the unvouched-read retry path runs.
    contended = ThresholdQuorumSystem(5, 3)
    for retry in (False, True):
        result = run_event_workload(
            contended,
            b=1,
            num_clients=8,
            operations_per_client=10,
            scenario=TimingScenario.static(
                FaultScenario.fault_free(), latency=LatencyModel.uniform(0.1, 4.0)
            ),
            retry_unvouched_reads=retry,
            rng=np.random.default_rng(5),
            keep_history=True,
        )
        rows.append(["contended", retry, result_rows(result)])
    return rows


#: ``identity_rows()`` as the event core produced it before the
#: per-message path was rewritten (tuple heap entries, callbacks with
#: arguments, cached latency/fault invariants): that rewrite changed no
#: event order and no rng draw.
IDENTITY_SHA256 = "7f32829be61a665e5b5ef9674ab6a80763938f8eb3ebcba0912a354e98b52963"


def test_event_results_are_bit_identical():
    blob = json.dumps(identity_rows(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == IDENTITY_SHA256


# ----------------------------------------------------------------------
# The scheduler contract.
# ----------------------------------------------------------------------
class TestSchedulerContract:
    def test_arguments_reach_the_callback(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, fired.append, "a")
        scheduler.schedule(0.5, lambda *args: fired.append(args), 1, "two", None)
        assert scheduler.run() == 2
        assert fired == [(1, "two", None), "a"]

    def test_ties_with_arguments_fire_in_scheduling_order(self):
        scheduler = EventScheduler()
        fired = []
        for label in range(6):
            scheduler.schedule(2.0, fired.append, label)
        scheduler.schedule(1.0, fired.append, "first")
        scheduler.run()
        assert fired == ["first", 0, 1, 2, 3, 4, 5]

    def test_a_cancelled_handle_is_skipped_and_releases_its_callback(self):
        scheduler = EventScheduler()
        fired = []
        skipped = scheduler.schedule(1.0, fired.append, "no")
        scheduler.schedule(1.0, fired.append, "yes")
        skipped.cancel()
        assert skipped.cancelled and skipped.args == ()
        assert scheduler.pending == 1
        assert scheduler.run() == 1
        assert fired == ["yes"]
        assert scheduler.events_processed == 1

    def test_the_clock_never_jumps_past_a_pending_event(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1.0, lambda: seen.append(scheduler.now))
        scheduler.schedule(1.5, lambda: seen.append(scheduler.now))
        assert scheduler.run(until=2.0, max_events=1) == 1
        assert scheduler.now == 1.0
        scheduler.run()
        assert seen == [1.0, 1.5]

    def test_until_advances_the_clock_past_cancelled_events(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(1.5, lambda: None).cancel()
        scheduler.schedule(3.0, lambda: None)
        assert scheduler.run(until=2.0, max_events=1) == 1
        assert scheduler.now == 2.0
        assert scheduler.pending == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: EventScheduler().schedule(math.nan, lambda: None),
        lambda: EventScheduler().schedule(math.inf, lambda: None),
        lambda: EventScheduler().run(until=math.nan),
        lambda: LatencyModel(base=math.nan),
        lambda: LatencyModel(jitter=math.inf),
        lambda: LatencyModel(server_factors=(("s", math.nan),)),
        lambda: RetryPolicy(request_timeout=math.nan),
        lambda: FaultScenario(slow={0: math.nan}),
        lambda: TimingScenario(
            "x", ((0.0, FaultScenario.fault_free()), (math.nan, FaultScenario.fault_free()))
        ),
    ],
    ids=[
        "schedule-nan",
        "schedule-inf",
        "run-until-nan",
        "latency-base-nan",
        "latency-jitter-inf",
        "latency-factor-nan",
        "request-timeout-nan",
        "slow-factor-nan",
        "timeline-time-nan",
    ],
)
def test_non_finite_times_are_rejected(build):
    with pytest.raises(SimulationError):
        build()


# ----------------------------------------------------------------------
# Invariants computed once.
# ----------------------------------------------------------------------
def first_factor(pairs, server_id) -> float:
    for known_id, factor in pairs:
        if known_id == server_id:
            return factor
    return 1.0


class TestCachedInvariants:
    @pytest.mark.parametrize(
        "model",
        [
            LatencyModel(),
            LatencyModel(base=1e-12),
            LatencyModel.uniform(1.0, 0.5),
            LatencyModel(tail_mean=2.0),
            LatencyModel(base=1.0, server_factors=(("a", 3.0), ("b", 2.0), ("a", 5.0))),
        ],
    )
    def test_latency_views_match_the_fields(self, model):
        assert model.is_zero == (
            model.base < 1e-9 and model.jitter < 1e-9 and model.tail_mean < 1e-9
        )
        for server_id in ("a", "b", "c"):
            assert model.factor_for(server_id) == first_factor(model.server_factors, server_id)
        uniforms = iter(np.random.default_rng(0).random, None)
        if not model.is_zero:
            assert model.sample(uniforms, "a") > 0.0

    def test_duplicate_factor_ids_keep_the_first_entry(self):
        model = LatencyModel(base=1.0, server_factors=(("a", 3.0), ("a", 5.0)))
        assert model.factor_for("a") == 3.0
        assert model.sample(iter(np.random.default_rng(0).random, None), "a") == 3.0
        scenario = FaultScenario(slow=(("a", 2.0), ("a", 4.0)))
        assert scenario.slow_factor("a") == 2.0
        assert scenario.slow_factor("b") == 1.0

    @pytest.mark.parametrize(
        "faults",
        [LinkFaults(), LinkFaults(loss=1e-12), LinkFaults(loss=0.2), LinkFaults(duplication=0.1)],
    )
    def test_link_views_match_the_fields(self, faults):
        assert faults.is_clean == (faults.loss < 1e-9 and faults.duplication < 1e-9)

    def test_equality_and_hash_ignore_the_cached_views(self):
        warm = LatencyModel(base=1.0, server_factors=(("a", 2.0),))
        assert warm.is_zero is False and warm.factor_for("a") == 2.0
        cold = LatencyModel(base=1.0, server_factors=(("a", 2.0),))
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        clean = LinkFaults()
        assert clean.is_clean and clean == LinkFaults() and hash(clean) == hash(LinkFaults())


# ----------------------------------------------------------------------
# The uniform stream: block draws that replay scalar draws.
# ----------------------------------------------------------------------
class RecordingScheduler(EventScheduler):
    """An event loop that records ``(callback name, server id, delay)`` of
    every scheduled message leg, in scheduling order."""

    def __init__(self) -> None:
        super().__init__()
        self.legs: list[tuple[str, object, float]] = []

    def schedule(self, delay, callback, *args):
        self.legs.append((callback.__name__, args[0], delay))
        return super().schedule(delay, callback, *args)


def ignore_reply(server_id, reply) -> None:
    """The reply callback of the stream tests: replies are only counted."""


def stream_network(latency, faults, *, servers=7, scenario=None):
    """A recording network of ``servers`` replicas seeded 17, on fault-free
    ``latency``/``faults`` links unless a ``scenario`` is given."""
    if scenario is None:
        scenario = TimingScenario.static(
            FaultScenario.fault_free(), latency=latency, link_faults=faults
        )
    scheduler = RecordingScheduler()
    network = EventNetwork(
        {server_id: ReplicaServer(server_id) for server_id in range(servers)},
        scenario,
        scheduler=scheduler,
        rng=np.random.default_rng(17),
    )
    return scheduler, network


def scalar_legs(latency, faults, rng, server_ids) -> list[tuple[object, float]]:
    """``(server id, delay)`` of every leg sent to ``server_ids`` in order,
    each uniform one scalar ``rng.random()``: the loss draw, the
    duplication draw, then one jitter draw per surviving copy."""
    legs = []
    for server_id in server_ids:
        copies = 1
        if faults.loss > 0.0 and rng.random() < faults.loss:
            copies = 0
        elif faults.duplication > 0.0 and rng.random() < faults.duplication:
            copies = 2
        for _ in range(copies):
            delay = (latency.base + latency.jitter * rng.random()) * latency.factor_for(
                server_id
            )
            legs.append((server_id, delay))
    return legs


def draws_since(start: np.random.Generator, state: dict) -> int:
    """How many scalar draws take a generator from ``start`` to ``state``."""
    for count in range(10_000):
        if start.bit_generator.state == state:
            return count
        start.random()
    raise AssertionError("the generator state is not reachable by scalar draws")


LINKS = {
    "clean": (LatencyModel.uniform(1.0, 0.5), LinkFaults()),
    "lossy": (LatencyModel.uniform(1.0, 0.5), LinkFaults(loss=0.3)),
    "duplicating": (LatencyModel.uniform(1.0, 0.5), LinkFaults(duplication=0.4)),
    "lossy-duplicating": (LatencyModel.uniform(0.5, 2.0), LinkFaults(loss=0.2, duplication=0.3)),
    "server-factors": (
        LatencyModel(base=1.0, jitter=1.0, server_factors=((0, 3.0), (5, 0.5), (0, 9.0))),
        LinkFaults(loss=0.1),
    ),
}


class TestUniformStream:
    @pytest.mark.parametrize("link", sorted(LINKS))
    def test_legs_replay_scalar_draws_across_refills(self, link):
        latency, faults = LINKS[link]
        scheduler, network = stream_network(latency, faults)
        server_ids = list(range(7)) * 20
        for start in range(0, len(server_ids), 7):
            network.broadcast(server_ids[start : start + 7], ReadRequest(0), ignore_reply)
        scheduler.run()
        replay = np.random.default_rng(17)
        requests = scalar_legs(latency, faults, replay, server_ids)
        # Every request was sent at time 0, so they are delivered in order
        # of their delays, ties in sending order; each delivery sends a reply.
        delivered = [server_id for server_id, _ in sorted(requests, key=lambda leg: leg[1])]
        replies = scalar_legs(latency, faults, replay, delivered)
        legs = scheduler.legs
        assert [leg[1:] for leg in legs if leg[0] == "_deliver"] == requests
        assert [leg[1:] for leg in legs if leg[0] == "ignore_reply"] == replies
        # Two or more refills, and a draw count off the block edge.
        drawn = draws_since(np.random.default_rng(17), replay.bit_generator.state)
        assert drawn > 128
        # The generator is one whole block ahead of the draws used, at most.
        blocks = draws_since(np.random.default_rng(17), network.rng.bit_generator.state)
        assert blocks == -(-drawn // 64) * 64

    def test_a_run_ending_on_a_block_edge_draws_no_further_block(self):
        latency = LatencyModel.uniform(1.0, 0.5)
        scheduler, network = stream_network(latency, LinkFaults(), servers=8)
        for _ in range(8):
            network.broadcast(range(8), ReadRequest(0), ignore_reply)
        replay = np.random.default_rng(17)
        assert [leg[1:] for leg in scheduler.legs] == scalar_legs(
            latency, LinkFaults(), replay, list(range(8)) * 8
        )
        assert network.rng.bit_generator.state == replay.bit_generator.state
        # The 65th uniform opens the next block.
        network.send(3, ReadRequest(0), ignore_reply)
        assert scheduler.legs[-1][1:] == scalar_legs(latency, LinkFaults(), replay, [3])[0]
        for _ in range(63):
            replay.random()
        assert network.rng.bit_generator.state == replay.bit_generator.state

    def test_a_zero_latency_clean_network_never_advances_its_generator(self):
        scheduler, network = stream_network(LatencyModel.zero(), LinkFaults())
        state = network.rng.bit_generator.state
        for _ in range(100):
            network.broadcast(range(7), ReadRequest(0), ignore_reply)
        scheduler.run()
        assert network.delivered_counts == {server_id: 100 for server_id in range(7)}
        assert network.rng.bit_generator.state == state

    def test_an_exponential_tail_is_drawn_by_inversion_from_the_stream(self):
        latency = LatencyModel(base=0.5, jitter=1.0, tail_mean=2.0)
        scheduler, network = stream_network(latency, LinkFaults())
        network.broadcast(range(7), ReadRequest(0), ignore_reply)
        replay = np.random.default_rng(17)
        expected = []
        for _ in range(7):
            jitter = replay.random()
            expected.append(0.5 + 1.0 * jitter - 2.0 * math.log1p(-replay.random()))
        assert [leg[2] for leg in scheduler.legs] == expected

    def test_deliveries_recognise_the_fault_state_by_identity(self, monkeypatch):
        healthy = FaultScenario.fault_free()
        scenario = TimingScenario(
            "crash-and-recover",
            (
                (0.0, healthy),
                (5.0, FaultScenario(crashed=frozenset({0}), slow=((1, 3.0),))),
                (10.0, FaultScenario.fault_free()),
            ),
            latency=LatencyModel(base=1.0),
        )
        scheduler, network = stream_network(None, None, scenario=scenario)
        compared = []

        def counted_eq(state, other):
            compared.append("eq")
            return state is other

        def counted_hash(state):
            compared.append("hash")
            return id(state)

        monkeypatch.setattr(FaultScenario, "__eq__", counted_eq)
        monkeypatch.setattr(FaultScenario, "__hash__", counted_hash)
        for time in (0.0, 4.5, 6.0, 9.5, 12.0):
            scheduler.schedule(time, network.broadcast, range(3), ReadRequest(0), ignore_reply)
        scheduler.run()
        assert compared == []
        # Requests land at 1, 5.5, 7, 10.5 and 13: server 0 is crashed for
        # two of them, and server 1's replies are stretched by (3 - 1) * 1.0.
        assert network.delivered_counts == {0: 3, 1: 5, 2: 5, 3: 0, 4: 0, 5: 0, 6: 0}
        replies = [delay for name, server_id, delay in scheduler.legs if name == "ignore_reply"]
        assert replies.count(3.0) == 2 and replies.count(1.0) == 11


# ----------------------------------------------------------------------
# Cost: Python-level calls per operation of the sim_events run.
# ----------------------------------------------------------------------
#: Calls per operation of ``cost_spec(320)``: 564 on CPython 3.11 since the
#: uniform stream and the per-state delivery views (837 after the
#: per-message rewrite, 2 231 before it).  The budget leaves ~20 % for
#: interpreter differences across the supported versions.
CALLS_PER_OP_BUDGET = 675


def cost_spec(operations: int) -> api.WorkloadSpec:
    return api.WorkloadSpec(
        "mgrid",
        params={"n": 49, "b": 3},
        scenario="slow-servers",
        clients=8,
        operations=operations,
        seed=7,
    )


def test_python_calls_per_event_operation_stay_within_budget(python_calls):
    api.run(cost_spec(16), engine="event")  # imports and construction caches
    calls, report = python_calls(lambda: api.run(cost_spec(320), engine="event"))
    per_operation = calls / report.operations
    assert report.operations == 320 and report.failed_operations == 0
    assert per_operation <= CALLS_PER_OP_BUDGET, f"{per_operation:.1f} Python calls per operation"
