"""Trace-driven workload tests: arrival processes, skew, and the replay loop.

:mod:`repro.simulation.traces` replays open-loop arrivals (explicit traces
or a synthetic diurnal process) through the event core with a fixed client
pool and a FIFO queue.  These tests pin the arrival sampling (shape,
determinism, diurnal concentration), the Zipf hot-quorum re-weighting, and
the replay's accounting — including the one thing only an open-loop run can
show: latency percentiles that include genuine queueing delay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MGrid
from repro.exceptions import SimulationError
from repro.simulation import (
    FaultScenario,
    TimingScenario,
    TraceScenario,
    TraceWorkloadResult,
    hot_quorum_strategy,
    run_event_workload,
)
from repro.simulation.engine import resolve_strategy


@pytest.fixture
def system():
    return MGrid(4, 0)


# ----------------------------------------------------------------------
# The arrival process.
# ----------------------------------------------------------------------
class TestArrivalSchedule:
    def test_diurnal_schedule_shape_and_determinism(self):
        trace = TraceScenario(name="d", period=100.0, peak_ratio=4.0)
        first = trace.arrival_schedule(300, np.random.default_rng(5))
        second = trace.arrival_schedule(300, np.random.default_rng(5))
        assert first == second
        assert len(first) == 300
        times = [time for time, _ in first]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= 100.0
        assert {kind for _, kind in first} <= {"read", "write"}

    def test_diurnal_peak_concentrates_arrivals(self):
        """The sinusoidal intensity peaks mid-period: the middle half of the
        cycle must hold clearly more than half the arrivals."""
        trace = TraceScenario(name="d", period=100.0, peak_ratio=8.0)
        times = [t for t, _ in trace.arrival_schedule(2000, np.random.default_rng(0))]
        middle = sum(1 for t in times if 25.0 <= t <= 75.0)
        assert middle / len(times) > 0.6

    def test_peak_ratio_one_is_uniform(self):
        trace = TraceScenario(name="flat", period=100.0, peak_ratio=1.0)
        times = [t for t, _ in trace.arrival_schedule(2000, np.random.default_rng(0))]
        middle = sum(1 for t in times if 25.0 <= t <= 75.0)
        assert abs(middle / len(times) - 0.5) < 0.05

    def test_write_fraction_steers_the_mix(self):
        trace = TraceScenario(name="d")
        arrivals = trace.arrival_schedule(
            1000, np.random.default_rng(1), write_fraction=0.9
        )
        writes = sum(1 for _, kind in arrivals if kind == "write")
        assert writes > 800

    def test_explicit_arrivals_are_replayed_verbatim(self):
        explicit = ((0.0, "write"), (1.5, "read"), (3.0, "read"))
        trace = TraceScenario(name="x", arrivals=explicit)
        assert trace.arrival_schedule(999, np.random.default_rng(0)) == explicit

    def test_from_records_parses_the_json_shape(self):
        records = [{"t": 0.0, "op": "write"}, {"t": 2.5, "op": "read"}]
        trace = TraceScenario.from_records("file", records)
        assert trace.arrivals == ((0.0, "write"), (2.5, "read"))
        with pytest.raises(SimulationError):
            TraceScenario.from_records("bad", [{"time": 1.0}])

    def test_validation(self):
        with pytest.raises(SimulationError):
            TraceScenario(name="x", period=0.0)
        with pytest.raises(SimulationError):
            TraceScenario(name="x", peak_ratio=0.5)
        with pytest.raises(SimulationError):
            TraceScenario(name="x", skew=-1.0)
        with pytest.raises(SimulationError):
            TraceScenario(name="x", arrivals=((2.0, "read"), (1.0, "read")))
        with pytest.raises(SimulationError):
            TraceScenario(name="x", arrivals=((0.0, "delete"),))
        with pytest.raises(SimulationError):
            TraceScenario(name="x", arrivals=((-1.0, "read"),))
        with pytest.raises(SimulationError):
            TraceScenario(
                name="x",
                timing=TimingScenario.static(
                    FaultScenario.fault_free(), byzantine_behaviour="nope"
                ),
            )


# ----------------------------------------------------------------------
# Hot-quorum skew.
# ----------------------------------------------------------------------
class TestHotQuorumStrategy:
    def test_zero_skew_is_the_identity(self, system):
        base = resolve_strategy(system, None)
        assert hot_quorum_strategy(system, skew=0.0, base=base) is base

    def test_skew_concentrates_on_the_top_ranks(self, system):
        base = resolve_strategy(system, None)
        skewed = hot_quorum_strategy(system, skew=2.0, base=base)
        assert skewed.probabilities.sum() == pytest.approx(1.0)
        # The first-ranked quorum gains probability mass, the last loses.
        assert skewed.probabilities[0] > base.probabilities[0]
        assert skewed.probabilities[-1] < base.probabilities[-1]

    def test_negative_skew_is_rejected(self, system):
        with pytest.raises(SimulationError):
            hot_quorum_strategy(system, skew=-0.5)


# ----------------------------------------------------------------------
# The replay loop.
# ----------------------------------------------------------------------
class TestReplay:
    def test_diurnal_replay_accounting(self, system):
        trace = TraceScenario(name="diurnal", period=120.0, peak_ratio=4.0, skew=1.1)
        result = run_event_workload(
            system,
            b=0,
            scenario=trace,
            num_clients=6,
            operations_per_client=25,
            rng=np.random.default_rng(3),
        )
        assert isinstance(result, TraceWorkloadResult)
        assert result.operations == 150
        succeeded = result.successful_reads + result.successful_writes
        assert succeeded + result.failed_operations == 150
        assert result.check is not None and result.check.ok
        assert result.latency_p99 >= result.latency_p50 > 0.0
        assert result.arrival_rate > 0.0
        assert result.empirical_load == pytest.approx(
            max(result.per_server_load.values())
        )

    def test_replay_is_seed_deterministic(self, system):
        trace = TraceScenario(name="diurnal")
        runs = [
            run_event_workload(
                system,
                b=0,
                scenario=trace,
                num_clients=4,
                operations_per_client=25,
                rng=np.random.default_rng(8),
            )
            for _ in range(2)
        ]
        assert runs[0].per_server_load == runs[1].per_server_load
        assert runs[0].latency_p99 == runs[1].latency_p99
        assert runs[0].queue_delay_p99 == runs[1].queue_delay_p99

    def test_a_tiny_pool_queues_and_a_big_pool_does_not(self, system):
        """Open-loop pressure: one client serving a burst must build genuine
        queueing delay; a pool as large as the burst must not."""
        burst = tuple((0.0, "read") for _ in range(20))
        trace = TraceScenario(name="burst", arrivals=burst)
        starved = run_event_workload(
            system,
            b=0,
            scenario=trace,
            num_clients=1,
            rng=np.random.default_rng(0),
        )
        roomy = run_event_workload(
            system,
            b=0,
            scenario=trace,
            num_clients=20,
            rng=np.random.default_rng(0),
        )
        assert starved.queue_delay_p99 > 0.0
        assert roomy.queue_delay_mean == pytest.approx(0.0)
        # Sojourn = queueing + service, so the starved pool's p99 dominates.
        assert starved.latency_p99 > roomy.latency_p99

    def test_explicit_trace_defines_the_operation_count(self, system):
        trace = TraceScenario(
            name="x", arrivals=((0.0, "write"), (1.0, "read"), (2.0, "read"))
        )
        result = run_event_workload(
            system,
            b=0,
            scenario=trace,
            operations_per_client=999,
            rng=np.random.default_rng(0),
        )
        assert result.operations == 3
        assert result.successful_writes <= 1

    def test_byzantine_overload_is_refused_without_the_flag(self, system):
        byz = frozenset(system.universe.elements[:3])
        trace = TraceScenario(
            name="x", timing=TimingScenario.static(FaultScenario(byzantine=byz))
        )
        with pytest.raises(SimulationError):
            run_event_workload(system, b=0, scenario=trace, rng=np.random.default_rng(0))

    def test_replay_validates_inputs(self, system):
        trace = TraceScenario(name="x")
        with pytest.raises(SimulationError):
            run_event_workload(system, b=0, scenario=trace, num_clients=0)
        with pytest.raises(SimulationError):
            run_event_workload(system, b=0, scenario=trace, write_fraction=1.5)
        with pytest.raises(SimulationError):
            run_event_workload(system, b=0, scenario="diurnal")  # type: ignore[arg-type]
