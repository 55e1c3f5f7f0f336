"""Workload runner: end-to-end experiments over the replicated register.

This module is the stable entry point for workload experiments, one per
engine.  :func:`run_workload` (defined in :mod:`repro.simulation.engine`)
executes batches of operations as array computations over the bitmask
incidence machinery, driven by a
:class:`~repro.simulation.scenarios.WorkloadScenario` (see
:mod:`repro.simulation.engine` for the execution semantics and
``docs/simulation.md`` for the measurement model).  :func:`run_event_workload`
drives the message-level protocol instead — the one protocol core of
:mod:`repro.simulation.client` behind its event-driven driver — over the
stack :class:`EventStack` wires up (and the trace runner shares), driven by
a :class:`~repro.simulation.events.TimingScenario`; the
blocking :class:`~repro.simulation.client.QuorumClient` and
:class:`~repro.simulation.register.ReplicatedRegister` remain available for
protocol-step tests and examples.

Accounting note (the Definition 3.8 fix): ``empirical_load`` and
``per_server_load`` count quorum accesses of *successful* operations only and
normalise by the successful-operation count, so they are genuine access
frequencies — the empirical counterpart of the induced load ``l_w(u)``.
Probes made by failed operations are reported separately in
``per_server_attempted`` (the quantity the pre-fix runner conflated with the
load, which could exceed 1 under heavy faults).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.floats import is_zero
from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.client import AsyncQuorumClient, RetryPolicy, access_frequencies
from repro.simulation.engine import WorkloadResult, resolve_strategy, run_workload
from repro.simulation.events import EventNetwork, EventScheduler, TimingScenario
from repro.simulation.faults import FaultScenario
from repro.simulation.history import HistoryCheck, HistoryRecorder
from repro.simulation.messages import ValueTimestampPair
from repro.simulation.server import ByzantineReplicaServer, ReplicaServer

__all__ = [
    "EventWorkloadResult",
    "WorkloadResult",
    "build_replicas",
    "latency_summary",
    "run_event_workload",
    "run_workload",
]


def build_replicas(
    system: QuorumSystem,
    byzantine: frozenset,
    *,
    byzantine_behaviour: str = "fabricate-timestamp",
    initial_value: object = None,
    rng: np.random.Generator | None = None,
) -> dict[Hashable, ReplicaServer]:
    """One replica per universe element, Byzantine where ``byzantine`` says so.

    Shared by :class:`~repro.simulation.register.ReplicatedRegister` setups
    and the event-driven drivers; Byzantine replicas get independent
    generators spawned from ``rng`` so replica randomness never perturbs the
    clients' draw streams (the zero-latency agreement relies on that).
    """
    rng = ensure_rng(rng)
    seeds = iter(rng.integers(2**63, size=max(1, len(byzantine))))
    servers: dict[Hashable, ReplicaServer] = {}
    for server_id in system.universe:
        if server_id in byzantine:
            servers[server_id] = ByzantineReplicaServer(
                server_id,
                behaviour=byzantine_behaviour,
                rng=np.random.default_rng(int(next(seeds))),
                initial_value=initial_value,
            )
        else:
            servers[server_id] = ReplicaServer(server_id, initial_value=initial_value)
    return servers


#: The latency statistics every clocked result and report carries.
LATENCY_FIELDS = ("latency_mean", "latency_p50", "latency_p90", "latency_p99")


@dataclass
class EventWorkloadResult(WorkloadResult):
    """A :class:`WorkloadResult` extended with timing and history facts.

    The inherited accounting keeps its engine semantics (``per_server_load``
    over successful operations, ``per_server_attempted`` over every probe,
    ``per_server_messages`` as raw sends per operation), while the event
    layer adds what only a clock can measure:

    Attributes
    ----------
    duration:
        Simulated time from the first invocation to the last completion.
    events_processed:
        Scheduler events fired over the run.
    timeouts:
        Probes that ran into their request timeout.
    latency_mean / latency_p50 / latency_p90 / latency_p99:
        Operation latency statistics over successful operations (simulated
        time units; ``0.0`` when nothing succeeded).
    check:
        The concurrent-history consistency verdict
        (:class:`~repro.simulation.history.HistoryCheck`);
        ``consistency_violations`` and ``stale_reads`` of the base class are
        its fabricated/stale counters.
    history:
        The raw operation records (populated when ``keep_history=True``).
    replica_pairs:
        The pair each replica held once the run drained — what a ``STATUS``
        frame reports on the live service, and what a reconfiguration's
        hand-over reads.
    """

    duration: float = 0.0
    events_processed: int = 0
    timeouts: int = 0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p90: float = 0.0
    latency_p99: float = 0.0
    check: HistoryCheck | None = None
    history: tuple = field(default_factory=tuple)
    replica_pairs: dict = field(default_factory=dict)

    @classmethod
    def fold(cls, parts: Sequence[WorkloadResult], **extra: Any) -> WorkloadResult:
        """Fold the clock too: durations, events and timeouts add, and the
        latency statistics become operation-weighted means of the segments'
        (a stitched timeline has no single latency distribution)."""
        operations = sum(part.operations for part in parts)
        means = {
            name: float(
                sum(getattr(part, name) * part.operations for part in parts) / operations
            )
            for name in LATENCY_FIELDS
        }
        return super().fold(
            parts,
            duration=float(sum(part.duration for part in parts)),
            events_processed=sum(part.events_processed for part in parts),
            timeouts=sum(part.timeouts for part in parts),
            **means,
            **extra,
        )


def latency_summary(samples: Sequence[float], empty: float | None) -> dict:
    """Mean and p50/p90/p99 of latency samples, keyed by :data:`LATENCY_FIELDS`.

    The one estimator behind every report's latency fields: ``np.percentile``
    (linear interpolation).  With no samples every statistic is ``empty`` —
    ``0.0`` on simulator results, ``None`` on live-service reports.
    """
    sample = np.array(samples)
    if not sample.size:
        return dict.fromkeys(LATENCY_FIELDS, empty)
    statistics = [sample.mean(), *np.percentile(sample, [50, 90, 99])]
    return dict(zip(LATENCY_FIELDS, map(float, statistics)))


class EventStack:
    """The event-driven protocol stack of one run: build it, drive it, fold it.

    Construction wires scheduler, replicas, network, recorder and clients,
    drawing from ``rng`` in a fixed order — replicas, the network's
    generator, then one generator per client — so a run is a deterministic
    function of the seed.  ``scenario`` is the run's one fault schedule
    (see :meth:`TimingScenario.of` for a bare :class:`FaultScenario`).
    ``request_timeout=None`` derives a generous multiple of the latency
    scale (or 1.0 when the latency model is zero).  ``initial_pair`` is
    register state the run inherits: every replica is restored to it before
    serving and the recorder checks against it.  Once the caller has
    scheduled its operations and run the scheduler, :meth:`result`
    assembles the :class:`EventWorkloadResult` (or a subclass).
    """

    def __init__(
        self,
        system: QuorumSystem,
        scenario: TimingScenario | FaultScenario,
        *,
        b: int,
        num_clients: int,
        max_attempts: int,
        request_timeout: float | None,
        retry_unvouched_reads: bool = False,
        strategy: Strategy | None,
        initial_pair: ValueTimestampPair | None = None,
        rng: np.random.Generator,
        allow_overload: bool,
    ) -> None:
        scenario = TimingScenario.of(scenario)
        if num_clients < 1:
            raise SimulationError(f"num_clients must be >= 1, got {num_clients}")
        if b < 0:
            raise SimulationError(f"masking parameter must be >= 0, got {b}")
        if not allow_overload and scenario.max_byzantine > b:
            raise SimulationError(
                f"scenario has {scenario.max_byzantine} Byzantine servers but the "
                f"deployment only masks b={b}; pass allow_overload=True to force it"
            )
        scenario.validate_against(system.universe)
        if request_timeout is None:
            latency = scenario.latency
            scale = latency.base + latency.jitter + 2.0 * latency.tail_mean
            slowest = max(
                [1.0]
                + [factor for _, state in scenario.transitions for _, factor in state.slow]
            )
            request_timeout = 1.0 if is_zero(scale) else 8.0 * scale * slowest
        self.system = system
        self.scheduler = EventScheduler()
        servers = build_replicas(
            system,
            scenario.byzantine,
            byzantine_behaviour=scenario.byzantine_behaviour,
            rng=rng,
        )
        if initial_pair is not None:
            for server in servers.values():
                server.restore(initial_pair)
        self.network = EventNetwork(
            servers,
            scenario,
            scheduler=self.scheduler,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        self.recorder = HistoryRecorder(initial_pair)
        policy = RetryPolicy(
            max_attempts=max_attempts,
            request_timeout=request_timeout,
            retry_unvouched_reads=retry_unvouched_reads,
        )
        self.clients = [
            AsyncQuorumClient(
                client_id,
                system,
                self.network,
                b=b,
                policy=policy,
                rng=np.random.default_rng(rng.integers(2**63)),
                strategy=strategy,
                history=self.recorder,
            )
            for client_id in range(num_clients)
        ]

    def result(
        self,
        result_type: type[EventWorkloadResult],
        latencies: list[float],
        *,
        started_at: float,
        keep_history: bool,
        **extra: float,
    ) -> EventWorkloadResult:
        """Check the recorded history and fold the run into ``result_type``.

        ``latencies`` and ``started_at`` are the caller's: a closed-loop run
        reports protocol latencies since the first invocation, a trace
        replay sojourn times since the first arrival.
        """
        records = self.recorder.records
        check = self.recorder.check()
        operations = len(records)
        successful = [record for record in records if record.success]
        per_server_load, per_server_attempted = access_frequencies(
            self.clients, self.system.universe
        )
        return result_type(
            operations=operations,
            successful_reads=sum(1 for r in successful if r.kind == "read"),
            successful_writes=sum(1 for r in successful if r.kind == "write"),
            failed_operations=operations - len(successful),
            consistency_violations=check.fabricated_reads,
            stale_reads=check.stale_reads,
            empirical_load=max(per_server_load.values()),
            per_server_load=per_server_load,
            per_server_messages=self.network.empirical_message_rates(max(1, operations)),
            per_server_attempted=per_server_attempted,
            duration=max(r.responded_at for r in records) - started_at if records else 0.0,
            events_processed=self.scheduler.events_processed,
            timeouts=sum(client.timeouts for client in self.clients),
            **latency_summary(latencies, 0.0),
            check=check,
            history=tuple(records) if keep_history else (),
            replica_pairs={
                server_id: self.network.server(server_id).current_pair
                for server_id in self.system.universe
            },
            **extra,
        )


def run_event_workload(
    system: QuorumSystem,
    *,
    b: int,
    num_clients: int = 8,
    operations_per_client: int = 25,
    scenario: TimingScenario | FaultScenario | None = None,
    write_fraction: float = 0.5,
    max_attempts: int = 10,
    request_timeout: float | None = None,
    retry_unvouched_reads: bool = False,
    think_time: float = 0.0,
    strategy: Strategy | str | None = None,
    initial_pair: ValueTimestampPair | None = None,
    rng: np.random.Generator | None = None,
    allow_overload: bool = False,
    keep_history: bool = False,
) -> EventWorkloadResult:
    """Run a *concurrent* workload over the event-driven protocol stack.

    ``num_clients`` resumable clients each perform ``operations_per_client``
    operations back to back (plus an optional exponential ``think_time``
    between them), interleaving through the shared
    :class:`~repro.simulation.events.EventScheduler`; latency, message loss,
    duplication, slow servers, mid-run crash/recover transitions and the
    Byzantine replicas' lie all come from the one ``scenario`` (a bare
    :class:`~repro.simulation.faults.FaultScenario` runs at zero latency over
    clean links, ``None`` fault-free).  The completed history is checked with
    :func:`~repro.simulation.history.check_register_history`.

    Each client draws quorums from its own generator spawned off ``rng``, so
    runs are deterministic functions of the seed.  An
    :class:`~repro.core.quorum_system.ImplicitQuorumSystem` deployment works
    unchanged at ``n = 10^3..10^4``: with the default strategy the clients
    sample fresh quorums straight from the base construction
    (``sample_quorum`` / ``sample_quorum_avoiding``), so no quorum family is
    ever enumerated (see ``docs/analysis.md``).  ``request_timeout``
    defaults to a generous multiple of the latency scale (or 1.0 when the
    latency model is zero).  ``retry_unvouched_reads`` lets reads whose vote
    was split below ``b + 1`` by an interleaved write retry at a fresh
    quorum instead of aborting — the concurrency-liveness knob of
    :class:`~repro.simulation.client.RetryPolicy`.  ``initial_pair`` is the
    register state the run inherits (a reconfiguration's hand-over): every
    replica starts from it, and so does the history check.

    Returns an :class:`EventWorkloadResult`; the base-class fields follow the
    engine's accounting so event runs drop into the same comparison tooling.
    """
    if operations_per_client < 1:
        raise SimulationError(
            f"operations_per_client must be >= 1, got {operations_per_client}"
        )
    if not 0.0 <= write_fraction <= 1.0:
        raise SimulationError(f"write_fraction must lie in [0, 1], got {write_fraction}")
    if not 0.0 <= think_time < math.inf:
        raise SimulationError(f"think_time must be finite and non-negative, got {think_time}")
    rng = ensure_rng(rng)
    stack = EventStack(
        system,
        scenario,
        b=b,
        num_clients=num_clients,
        max_attempts=max_attempts,
        request_timeout=request_timeout,
        retry_unvouched_reads=retry_unvouched_reads,
        strategy=resolve_strategy(system, strategy) if strategy is not None else None,
        initial_pair=initial_pair,
        rng=rng,
        allow_overload=allow_overload,
    )
    scheduler = stack.scheduler
    pacing_rng = np.random.default_rng(rng.integers(2**63))

    # Each client is a little generator process: finish an operation,
    # optionally think, start the next.  Writers-first seeding is unnecessary
    # (reads of the initial value are legitimate); interleaving comes from
    # latency jitter and staggered starts.
    def start_client(client: AsyncQuorumClient, remaining: int) -> None:
        if remaining <= 0:
            return
        def next_operation(_result) -> None:
            delay = (
                pacing_rng.exponential(think_time) if think_time > 0.0 else 0.0
            )
            scheduler.schedule(delay, start_client, client, remaining - 1)

        if client.rng.random() < write_fraction:
            client.write((client.client_id, remaining), next_operation)
        else:
            client.read(next_operation)

    for client in stack.clients:
        offset = pacing_rng.exponential(think_time) if think_time > 0.0 else 0.0
        scheduler.schedule(offset, start_client, client, operations_per_client)
    scheduler.run()

    records = stack.recorder.records
    return stack.result(
        EventWorkloadResult,
        [r.responded_at - r.invoked_at for r in records if r.success],
        started_at=min((r.invoked_at for r in records), default=0.0),
        keep_history=keep_history,
    )
