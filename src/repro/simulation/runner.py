"""Workload runner: end-to-end experiments over the replicated register.

This module holds the one entry point of each engine; every scenario object
carries its own configuration, so the entry point dispatches on the
scenario's kind.  :func:`run_workload` executes batches of operations as
array computations over the bitmask incidence machinery
(:func:`repro.simulation.engine.run_batch`; see :mod:`repro.simulation.engine`
for the execution semantics and ``docs/simulation.md`` for the measurement
model) under a :class:`~repro.simulation.scenarios.WorkloadScenario`, a
static :class:`~repro.simulation.faults.FaultScenario`, an
:class:`~repro.simulation.adversary.AdaptiveScenario` (rounds re-chosen
from observed load) or a :class:`~repro.simulation.reconfig.MembershipTimeline`
(epochs of a changing universe).  :func:`run_event_workload` drives the
message-level protocol instead — the one protocol core of
:mod:`repro.simulation.client` behind its event-driven driver — over the
stack :class:`EventStack` wires up, closed-loop under a
:class:`~repro.simulation.events.TimingScenario` or static fault scenario,
open-loop under a :class:`~repro.simulation.traces.TraceScenario`, or epoch
by epoch under a membership timeline.

Accounting note (the Definition 3.8 fix): ``empirical_load`` and
``per_server_load`` count quorum accesses of *successful* operations only and
normalise by the successful-operation count, so they are genuine access
frequencies — the empirical counterpart of the induced load ``l_w(u)``.
Probes made by failed operations are reported separately in
``per_server_attempted`` (the quantity the pre-fix runner conflated with the
load, which could exceed 1 under heavy faults).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

import numpy as np

from repro.core.floats import is_zero
from repro.core.masking import vouch_threshold
from repro.core.membership import Epoch
from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.adversary import AdaptiveScenario, AdversarialResult, AdversarialRound
from repro.simulation.client import (
    AsyncQuorumClient,
    RetryPolicy,
    access_frequencies,
    vouched_pair,
)
from repro.simulation.engine import WorkloadResult, resolve_strategy, run_batch
from repro.simulation.events import EventNetwork, EventScheduler, TimingScenario
from repro.simulation.faults import FaultScenario, check_byzantine_budget
from repro.simulation.history import (
    EpochWindow,
    HistoryCheck,
    HistoryRecorder,
    check_register_history,
)
from repro.simulation.messages import ValueTimestampPair
from repro.simulation.reconfig import (
    EpochOutcome,
    MembershipTimeline,
    ReconfigResult,
    _run_epochs,
)
from repro.simulation.scenarios import WorkloadScenario
from repro.simulation.server import (
    ByzantineReplicaServer,
    ReplicaServer,
    check_inherited_pair,
)
from repro.simulation.traces import TraceScenario, hot_quorum_strategy

__all__ = [
    "EventWorkloadResult",
    "TraceWorkloadResult",
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
    rng: np.random.Generator | None = None,
) -> dict[Hashable, ReplicaServer]:
    """One replica per universe element, Byzantine where ``byzantine`` says so.

    Byzantine replicas get independent generators spawned from ``rng`` so
    replica randomness never perturbs the clients' draw streams (the
    zero-latency driver agreement relies on that).
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
            )
        else:
            servers[server_id] = ReplicaServer(server_id)
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


@dataclass
class TraceWorkloadResult(EventWorkloadResult):
    """An :class:`EventWorkloadResult` for a trace replay.

    The inherited latency statistics are **sojourn times** (arrival to
    completion, queueing included); the queueing component and the offered
    arrival rate are reported separately.
    """

    queue_delay_mean: float = 0.0
    queue_delay_p99: float = 0.0
    arrival_rate: float = 0.0


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
        check_inherited_pair(initial_pair)
        check_byzantine_budget(scenario.max_byzantine, b, allow_overload=allow_overload)
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


def run_workload(
    system: QuorumSystem,
    *,
    b: int | None = None,
    num_operations: int = 200,
    scenario: (
        WorkloadScenario | FaultScenario | AdaptiveScenario | MembershipTimeline | None
    ) = None,
    strategy: Strategy | str | None = None,
    rng: np.random.Generator | int | None = None,
    write_fraction: float = 0.5,
    max_attempts: int = 10,
    allow_overload: bool = False,
    mode: str = "vectorised",
) -> WorkloadResult | ReconfigResult:
    """Run a batched read/write workload on the vectorised engine.

    Parameters
    ----------
    system:
        The quorum system to deploy over (for a membership timeline, the
        system of epoch 0).
    b:
        Masking parameter used by the read protocol's vouching rule;
        ``None`` means each segment's own masking bound.  On a membership
        timeline every epoch clamps ``b`` to its rebound system's bound.
    num_operations:
        Total operations, split over the adaptive rounds or the epochs.
    scenario:
        A phased :class:`~repro.simulation.scenarios.WorkloadScenario`,
        which also names the Byzantine servers' vouching model
        (``"fabricate"`` / ``"equivocate"``); a static
        :class:`FaultScenario` — its one-phase ``"fabricate"`` special case
        (fault-free when ``None``); an
        :class:`~repro.simulation.adversary.AdaptiveScenario`, whose policy
        re-chooses the fault set before each round from the per-server
        access counts observed so far (returns an
        :class:`~repro.simulation.adversary.AdversarialResult`); or a
        :class:`~repro.simulation.reconfig.MembershipTimeline`, whose epochs
        run fault-free on their rebound systems (returns a
        :class:`~repro.simulation.reconfig.ReconfigResult`).
    strategy:
        Access strategy: ``None``/``"uniform"``, ``"optimal"`` (the
        :func:`~repro.core.load.exact_load` LP strategy) or any
        :class:`~repro.core.strategy.Strategy`; on a timeline, epoch 0's.
    rng:
        Randomness source; rounds and epochs consume one continuing stream,
        so the whole run is a deterministic function of its state.
    write_fraction:
        Probability that an operation is a write (the first operation, and
        every operation before the first success, is forced to be a write so
        reads always have something to observe — except in an epoch that
        inherits the register).
    max_attempts:
        Probe budget charged to operations that find no responsive quorum.
    allow_overload:
        Permit phases with more Byzantine servers than ``b`` (negative
        tests).
    mode:
        ``"vectorised"`` (array execution) or ``"sequential"`` (the
        per-operation reference path; same semantics, same schedule,
        identical result) for every batch of the run.
    """
    if isinstance(scenario, (TimingScenario, TraceScenario)):
        raise SimulationError(
            f"a {type(scenario).__name__} runs on the other engine; use run_event_workload"
        )
    rng = ensure_rng(rng)
    batch = partial(
        run_batch,
        rng=rng,
        write_fraction=write_fraction,
        max_attempts=max_attempts,
        allow_overload=allow_overload,
        mode=mode,
    )
    if isinstance(scenario, MembershipTimeline):
        return _run_vectorised_epochs(system, scenario, b, num_operations, strategy, batch)
    b = system.masking_bound() if b is None else b
    if isinstance(scenario, AdaptiveScenario):
        return _run_rounds(system, scenario, b, num_operations, strategy, batch)
    return batch(
        system, b=b, num_operations=num_operations, scenario=scenario, strategy=strategy
    )


def _run_rounds(
    system: QuorumSystem,
    scenario: AdaptiveScenario,
    b: int,
    num_operations: int,
    strategy: Strategy | str | None,
    batch: Callable[..., WorkloadResult],
) -> AdversarialResult:
    """The adaptive round loop: before each round the policy picks the fault
    set from the successful-access counts accumulated so far, and the round
    runs as one batch (corruption trajectory included, the run is a
    deterministic function of the seed)."""
    sizes = scenario.round_sizes(num_operations)
    resolved = resolve_strategy(system, strategy)
    counts: Counter = Counter()
    rounds: list[AdversarialRound] = []
    for index, chunk in enumerate(sizes):
        fault = scenario.policy.choose(system.universe, b, counts)
        result = batch(
            system,
            b=b,
            num_operations=chunk,
            scenario=WorkloadScenario.from_fault_scenario(
                fault,
                name=f"adaptive-round-{index}",
                byzantine_model=scenario.byzantine_model,
            ),
            strategy=resolved,
        )
        rounds.append(AdversarialRound(index=index, fault=fault, result=result))
        counts.update(result.tallies())
    return AdversarialResult.fold(
        [round_.result for round_ in rounds], rounds=tuple(rounds), strategy=resolved
    )


def _run_vectorised_epochs(
    system: QuorumSystem,
    timeline: MembershipTimeline,
    b: int | None,
    num_operations: int,
    strategy: Strategy | str | None,
    batch: Callable[..., WorkloadResult],
) -> ReconfigResult:
    """The vectorised epoch loop: one batch per epoch on the shared stream,
    each epoch after the first with the register installed."""
    operations = timeline.operations_per_epoch(num_operations)

    def run_epoch(
        epoch: Epoch,
        rebound: QuorumSystem,
        epoch_b: int,
        current: Strategy,
        previous: EpochOutcome | None,
    ) -> WorkloadResult:
        return batch(
            rebound,
            b=epoch_b,
            num_operations=operations[epoch.index],
            scenario=None,
            strategy=current,
            register_installed=previous is not None,
        )

    outcomes = _run_epochs(system, timeline, b, strategy, run_epoch)
    return ReconfigResult(
        outcomes=outcomes,
        whole=WorkloadResult.fold([outcome.result for outcome in outcomes]),
    )


def run_event_workload(
    system: QuorumSystem,
    *,
    b: int | None = None,
    num_clients: int = 8,
    operations_per_client: int = 25,
    scenario: (
        TimingScenario | FaultScenario | TraceScenario | MembershipTimeline | None
    ) = None,
    write_fraction: float = 0.5,
    max_attempts: int = 10,
    request_timeout: float | None = None,
    retry_unvouched_reads: bool = False,
    strategy: Strategy | str | None = None,
    rng: np.random.Generator | int | None = None,
    allow_overload: bool = False,
    keep_history: bool = False,
) -> EventWorkloadResult | ReconfigResult:
    """Run a *concurrent* workload over the event-driven protocol stack.

    ``num_clients`` resumable clients interleave through the shared
    :class:`~repro.simulation.events.EventScheduler`; latency, message loss,
    duplication, slow servers, mid-run crash/recover transitions and the
    Byzantine replicas' lie all come from the one ``scenario``:

    * a :class:`~repro.simulation.events.TimingScenario` or a bare
      :class:`~repro.simulation.faults.FaultScenario` (zero latency over
      clean links; ``None`` is fault-free) runs **closed-loop** — each
      client performs ``operations_per_client`` operations back to back;
    * a :class:`~repro.simulation.traces.TraceScenario` runs **open-loop**
      in its own timing environment: its arrivals (a synthetic trace
      generates ``num_clients * operations_per_client`` of them) join a
      FIFO queue served by the client pool, so the reported latencies are
      sojourn times (returns a :class:`TraceWorkloadResult`);
    * a :class:`~repro.simulation.reconfig.MembershipTimeline` runs each
      epoch closed-loop and fault-free on its rebound system, from the
      register the previous epoch hands over, with every client's
      operations split by the timeline's fractions; the per-epoch histories
      are stitched onto one time axis and checked as one register's
      (returns a :class:`~repro.simulation.reconfig.ReconfigResult`).

    ``b=None`` means each segment's own masking bound (per epoch on a
    timeline, where a given ``b`` is clamped to each epoch's bound).  The
    completed history is checked with
    :func:`~repro.simulation.history.check_register_history`.

    Each client draws quorums from its own generator spawned off ``rng``, so
    runs are deterministic functions of the seed.  An
    :class:`~repro.core.quorum_system.ImplicitQuorumSystem` deployment works
    unchanged at ``n = 10^3..10^4``: with the default strategy the clients
    of a closed-loop run sample fresh quorums straight from the base
    construction (``sample_quorum`` / ``sample_quorum_avoiding``), so no
    quorum family is ever enumerated (see ``docs/analysis.md``).
    ``request_timeout`` defaults to a generous multiple of the latency scale
    (or 1.0 when the latency model is zero).  ``retry_unvouched_reads`` lets
    reads whose vote was split below ``b + 1`` by an interleaved write retry
    at a fresh quorum instead of aborting — the concurrency-liveness knob of
    :class:`~repro.simulation.client.RetryPolicy`.

    The base-class fields of the result follow the vectorised engine's
    accounting so event runs drop into the same comparison tooling.
    """
    if isinstance(scenario, (WorkloadScenario, AdaptiveScenario)):
        raise SimulationError(
            f"a {type(scenario).__name__} runs on the other engine; use run_workload"
        )
    if operations_per_client < 1:
        raise SimulationError(
            f"operations_per_client must be >= 1, got {operations_per_client}"
        )
    if not 0.0 <= write_fraction <= 1.0:
        raise SimulationError(f"write_fraction must lie in [0, 1], got {write_fraction}")
    rng = ensure_rng(rng)
    stack = partial(
        EventStack,
        num_clients=num_clients,
        max_attempts=max_attempts,
        request_timeout=request_timeout,
        retry_unvouched_reads=retry_unvouched_reads,
        rng=rng,
        allow_overload=allow_overload,
    )
    if isinstance(scenario, MembershipTimeline):
        return _run_event_epochs(
            system,
            scenario,
            b,
            strategy,
            stack,
            operations_per_client=operations_per_client,
            write_fraction=write_fraction,
            rng=rng,
            keep_history=keep_history,
        )
    b = system.masking_bound() if b is None else b
    if isinstance(scenario, TraceScenario):
        arrivals = scenario.arrival_schedule(
            num_clients * operations_per_client, rng, write_fraction=write_fraction
        )
        resolved = hot_quorum_strategy(
            system, skew=scenario.skew, base=resolve_strategy(system, strategy)
        )
        return _run_open_loop(
            stack(system, scenario.timing, b=b, strategy=resolved), arrivals, keep_history
        )
    resolved = resolve_strategy(system, strategy) if strategy is not None else None
    return _run_closed_loop(
        stack(system, scenario, b=b, strategy=resolved),
        operations_per_client,
        write_fraction,
        rng,
        keep_history,
    )


def _run_closed_loop(
    stack: EventStack,
    operations_per_client: int,
    write_fraction: float,
    rng: np.random.Generator,
    keep_history: bool,
) -> EventWorkloadResult:
    """Each client performs its operations back to back; latencies are
    protocol latencies since the first invocation."""
    scheduler = stack.scheduler
    rng.integers(2**63)  # reserved: a shared stream's later draws (the next epoch's) follow it

    # Each client is a little generator process: finish an operation, start
    # the next.  Writers-first seeding is unnecessary (reads of the initial
    # value are legitimate); interleaving comes from latency jitter.
    def start_client(client: AsyncQuorumClient, remaining: int) -> None:
        if remaining <= 0:
            return

        def next_operation(_result) -> None:
            scheduler.schedule(0.0, start_client, client, remaining - 1)

        if client.rng.random() < write_fraction:
            client.write((client.client_id, remaining), next_operation)
        else:
            client.read(next_operation)

    for client in stack.clients:
        scheduler.schedule(0.0, start_client, client, operations_per_client)
    scheduler.run()

    records = stack.recorder.records
    return stack.result(
        EventWorkloadResult,
        [r.responded_at - r.invoked_at for r in records if r.success],
        started_at=min((r.invoked_at for r in records), default=0.0),
        keep_history=keep_history,
    )


def _run_open_loop(
    stack: EventStack, arrivals: tuple, keep_history: bool
) -> TraceWorkloadResult:
    """Replay ``(time, kind)`` arrivals through a FIFO queue served by the
    stack's clients; an arrival whose turn comes starts its protocol
    operation immediately, so the sojourn time is queueing delay plus
    protocol latency."""
    scheduler = stack.scheduler
    idle: deque = deque(stack.clients)
    pending: deque = deque()
    sojourns: list[float] = []
    queue_delays: list[float] = []
    sequence = itertools.count()

    def try_dispatch() -> None:
        while idle and pending:
            arrived_at, kind = pending.popleft()
            client = idle.popleft()
            queue_delays.append(scheduler.now - arrived_at)
            number = next(sequence)

            def finish(_result, client=client, arrived_at=arrived_at) -> None:
                sojourns.append(scheduler.now - arrived_at)
                idle.append(client)
                try_dispatch()

            if kind == "write":
                client.write((client.client_id, number), finish)
            else:
                client.read(finish)

    def arrive(arrived_at: float, kind: str) -> None:
        pending.append((arrived_at, kind))
        try_dispatch()

    for arrived_at, kind in arrivals:
        scheduler.schedule(arrived_at, arrive, arrived_at, kind)
    scheduler.run()

    queueing = latency_summary(queue_delays, 0.0)
    span = arrivals[-1][0] - arrivals[0][0] if len(arrivals) > 1 else 0.0
    return stack.result(
        TraceWorkloadResult,
        sojourns,
        started_at=arrivals[0][0],
        keep_history=keep_history,
        queue_delay_mean=queueing["latency_mean"],
        queue_delay_p99=queueing["latency_p99"],
        arrival_rate=len(arrivals) / span if span > 0.0 else 0.0,
    )


def _handed_over_pair(
    previous: EpochOutcome, b: int, rng: np.random.Generator
) -> ValueTimestampPair:
    """The register a drained epoch hands the next one (masking ``b``).

    Reads the replicas of one quorum drawn from the old epoch's strategy and
    keeps the highest pair ``min(b_old, b) + 1`` of them vouch for.
    """
    drained, strategy = previous.result, previous.strategy
    assert isinstance(drained, EventWorkloadResult) and strategy is not None
    quorum = strategy.sample(rng)
    vouch_b = min(previous.b, b)
    pair = vouched_pair((drained.replica_pairs[server] for server in quorum), vouch_b)
    if pair is None:
        raise SimulationError(
            f"epoch {previous.index} cannot hand its register over: no pair is vouched "
            f"by {vouch_threshold(vouch_b)} members of the quorum {sorted(quorum, key=repr)}"
        )
    return pair


def _run_event_epochs(
    system: QuorumSystem,
    timeline: MembershipTimeline,
    b: int | None,
    strategy: Strategy | str | None,
    stack: Callable[..., EventStack],
    *,
    operations_per_client: int,
    write_fraction: float,
    rng: np.random.Generator,
    keep_history: bool,
) -> ReconfigResult:
    """The event engine's epoch loop: each epoch runs its slice of every
    client's operations closed-loop from the pair the previous epoch hands
    over; the histories are stitched onto one time axis and checked as one
    register's — zero violations expected at ≤ b faults per epoch."""
    per_client = timeline.operations_per_epoch(operations_per_client)
    windows: list[EpochWindow] = []
    combined: list = []

    def run_epoch(
        epoch: Epoch,
        rebound: QuorumSystem,
        epoch_b: int,
        current: Strategy,
        previous: EpochOutcome | None,
    ) -> WorkloadResult:
        initial_pair = None if previous is None else _handed_over_pair(previous, epoch_b, rng)
        result = _run_closed_loop(
            stack(rebound, None, b=epoch_b, strategy=current, initial_pair=initial_pair),
            per_client[epoch.index],
            write_fraction,
            rng,
            keep_history=True,
        )
        offset = windows[-1].end if windows else 0.0
        combined.extend(
            replace(
                record,
                invoked_at=record.invoked_at + offset,
                responded_at=record.responded_at + offset,
            )
            for record in result.history
        )
        windows.append(
            EpochWindow(
                index=epoch.index,
                start=offset,
                end=offset + result.duration + 1.0,
                members=epoch.member_set(),
            )
        )
        return result

    outcomes = _run_epochs(system, timeline, b, strategy, run_epoch)
    windows[-1] = replace(windows[-1], end=float("inf"))
    return ReconfigResult(
        outcomes=outcomes,
        whole=EventWorkloadResult.fold([outcome.result for outcome in outcomes]),
        windows=tuple(windows),
        check=check_register_history(combined, epochs=windows),
        history=tuple(combined) if keep_history else (),
    )
