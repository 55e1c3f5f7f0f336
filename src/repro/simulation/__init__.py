"""Replicated-register simulation over masking quorum systems.

This subpackage implements the protocol the paper's quorum systems exist to
serve: the masking-quorum read/write register of [MR98a], with Byzantine and
crash fault injection, an event-driven network, and a workload runner that
measures empirical load and availability.

Two engines are provided:

* the **event-driven concurrent core** (:mod:`repro.simulation.events`,
  :class:`AsyncQuorumClient`, :mod:`repro.simulation.history`) — a
  discrete-event scheduler driven by one :class:`TimingScenario` (timed
  crash/recover transitions, per-link latency, loss/duplication and the
  Byzantine replicas' lie; a bare :class:`FaultScenario` is its static
  zero-latency case); clients resume the one protocol core of
  :mod:`repro.simulation.client` as replies arrive, so many of them
  interleave within one run and the produced concurrent histories are
  checked with a linearizability-style register checker
  (:func:`check_register_history`), behind :func:`run_event_workload`,
  which also replays open-loop arrival traces (:class:`TraceScenario`) and
  drives membership epochs (:class:`MembershipTimeline`); at zero latency
  with the scheduler run after each operation it is the one-client-at-a-time
  register the protocol-step tests drive; and
* the **vectorised scenario engine** (:mod:`repro.simulation.engine`,
  :mod:`repro.simulation.scenarios`) — batched array execution of whole
  workloads over the bitmask incidence machinery, driven by one
  :class:`WorkloadScenario` (operation-fraction phases plus the vouching
  model), behind :func:`run_workload`, which also runs adaptive adversaries
  (:class:`AdaptiveScenario`) and membership epochs
  (:class:`MembershipTimeline`).  See ``docs/simulation.md``.

Each engine has one entry point; the scenario object carries the run's
configuration and selects what the entry point does.
"""

from repro.simulation.adversary import (
    AdaptiveScenario,
    AdversarialResult,
    AdversarialRound,
    AdversaryPolicy,
    GreedyLoadAdversary,
    StaleReadAdversary,
)
from repro.simulation.client import (
    AsyncQuorumClient,
    OperationResult,
    RetryPolicy,
)
from repro.simulation.engine import WorkloadResult, resolve_strategy
from repro.simulation.events import (
    EventNetwork,
    EventScheduler,
    LatencyModel,
    LinkFaults,
    TimingScenario,
)
from repro.simulation.faults import FaultInjector, FaultScenario
from repro.simulation.history import (
    EpochWindow,
    HistoryCheck,
    HistoryRecorder,
    OperationRecord,
    check_register_history,
)
from repro.simulation.messages import Timestamp, ValueTimestampPair
from repro.simulation.reconfig import (
    REOPTIMISE_POLICIES,
    EpochOutcome,
    MembershipTimeline,
    ReconfigResult,
    reoptimise_strategy,
)
from repro.simulation.runner import (
    EventWorkloadResult,
    TraceWorkloadResult,
    build_replicas,
    latency_summary,
    run_event_workload,
    run_workload,
)
from repro.simulation.scenarios import (
    BYZANTINE_MODELS,
    WorkloadScenario,
    blast_radius_scenario,
    byzantine_scenario,
    churn_scenario,
    correlated_failure_scenario,
    crash_recover_scenario,
    crash_scenario,
    fault_free_scenario,
    flaky_links_scenario,
    lattice_embedding,
    partition_scenario,
    percolation_scenario,
    random_crash_scenario,
    scenario_suite,
    slow_server_scenario,
    timing_scenario_suite,
)
from repro.simulation.server import BYZANTINE_BEHAVIOURS, ByzantineReplicaServer, ReplicaServer
from repro.simulation.traces import TraceScenario, hot_quorum_strategy

__all__ = [
    "BYZANTINE_BEHAVIOURS",
    "BYZANTINE_MODELS",
    "REOPTIMISE_POLICIES",
    "AdaptiveScenario",
    "AdversarialResult",
    "AdversarialRound",
    "AdversaryPolicy",
    "AsyncQuorumClient",
    "ByzantineReplicaServer",
    "EpochOutcome",
    "EpochWindow",
    "EventNetwork",
    "EventScheduler",
    "EventWorkloadResult",
    "FaultInjector",
    "FaultScenario",
    "GreedyLoadAdversary",
    "HistoryCheck",
    "HistoryRecorder",
    "LatencyModel",
    "LinkFaults",
    "MembershipTimeline",
    "OperationRecord",
    "OperationResult",
    "ReconfigResult",
    "ReplicaServer",
    "RetryPolicy",
    "StaleReadAdversary",
    "Timestamp",
    "TimingScenario",
    "TraceScenario",
    "TraceWorkloadResult",
    "ValueTimestampPair",
    "WorkloadResult",
    "WorkloadScenario",
    "blast_radius_scenario",
    "build_replicas",
    "byzantine_scenario",
    "check_register_history",
    "churn_scenario",
    "correlated_failure_scenario",
    "crash_recover_scenario",
    "crash_scenario",
    "fault_free_scenario",
    "flaky_links_scenario",
    "hot_quorum_strategy",
    "latency_summary",
    "lattice_embedding",
    "partition_scenario",
    "percolation_scenario",
    "random_crash_scenario",
    "reoptimise_strategy",
    "resolve_strategy",
    "run_event_workload",
    "run_workload",
    "scenario_suite",
    "slow_server_scenario",
    "timing_scenario_suite",
]
