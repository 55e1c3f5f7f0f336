"""Unified workload runner: one spec, two engines, one report.

PRs 2–3 left the repo with two workload engines with different call
conventions and result shapes: the vectorised scenario engine
(:func:`repro.simulation.runner.run_workload` returning
:class:`~repro.simulation.engine.WorkloadResult`) and the event-driven
concurrent core (:func:`repro.simulation.runner.run_event_workload`
returning :class:`~repro.simulation.runner.EventWorkloadResult`).  The
facade accepts one declarative :class:`WorkloadSpec`, picks the engine
(``engine="auto"``: timed scenarios need the event core's clock, everything
else runs vectorised), transparently switches to sampled-quorum mode for
universes whose family cannot be enumerated
(:class:`~repro.core.quorum_system.ImplicitQuorumSystem`, the PR-4
machinery), and normalises both engines' outputs into one JSON-stable
:class:`WorkloadReport` — so cross-engine checks reduce to comparing two
reports (see :func:`repro.analysis.empirical.engine_agreement`).

>>> from repro.api import WorkloadSpec, run
>>> report = run(WorkloadSpec(system="mgrid", params={"side": 4, "b": 1},
...                           scenario="crash", operations=50, seed=7))
>>> report.engine
'vectorized'
>>> report.consistent and 0.0 <= report.availability <= 1.0
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.membership import MembershipSpec, ReconfigScenario
from repro.api.registry import SystemSpec, build, spec_of
from repro.api.scenarios import build_scenario
from repro.core.quorum_system import ImplicitQuorumSystem, QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import ComputationError, InvalidParameterError
from repro.simulation.adversary import AdaptiveScenario
from repro.simulation.engine import WorkloadResult
from repro.simulation.faults import FaultScenario
from repro.simulation.history import HistoryCheck
from repro.simulation.reconfig import MembershipTimeline, ReconfigResult
from repro.simulation.runner import LATENCY_FIELDS, run_event_workload, run_workload
from repro.simulation.scenarios import TimingScenario, WorkloadScenario
from repro.simulation.traces import TraceScenario

__all__ = ["WorkloadReport", "WorkloadSpec", "run"]

#: Above this family size the facade switches to sampled-quorum mode
#: (ImplicitQuorumSystem) instead of enumerating.
ENUMERATION_CEILING = 100_000

ENGINES = ("auto", "vectorized", "event")


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative description of one workload experiment.

    The fields that are also ``python -m repro run`` flags carry their help
    text as ``metadata["help"]``; the CLI derives those flags from them.

    Attributes
    ----------
    system:
        A registry name, a :class:`~repro.api.registry.SystemSpec` or an
        already-built :class:`~repro.core.quorum_system.QuorumSystem`.
    params:
        Construction parameters, when ``system`` is a registry name.
    scenario:
        Besides a catalogue name, a
        :class:`~repro.simulation.scenarios.WorkloadScenario`, a
        :class:`~repro.simulation.scenarios.TimingScenario` or a static
        :class:`~repro.simulation.faults.FaultScenario`.
    operations:
        The event engine hands every client the same share, so a count that
        is not a multiple of ``clients`` is rounded **up** there
        (``report.operations`` records what actually ran); the vectorised
        engine runs the count exactly.
    strategy:
        Besides a name, an explicit :class:`~repro.core.strategy.Strategy`.
    allow_overload:
        Permit more Byzantine servers than ``b`` (negative tests; moot on
        reconfiguration runs, whose epochs are fault-free).
    membership:
        Optional :class:`~repro.api.membership.MembershipSpec` turning the
        run into a membership-reconfiguration workload (mutually exclusive
        with ``scenario``; named ``reconfig-*`` catalogue scenarios carry
        their own membership specs).
    """

    system: SystemSpec | QuorumSystem | str
    params: dict = field(default_factory=dict)
    b: int | None = field(
        default=None,
        metadata={
            "flag": "--protocol-b",
            "help": "masking parameter for the protocol (default: the system's bound)",
        },
    )
    scenario: object = field(
        default=None,
        metadata={"help": "catalogue scenario name (default: fault-free)"},
    )
    operations: int = field(
        default=200, metadata={"flag": "--ops", "help": "total operations across all clients"}
    )
    clients: int = field(
        default=4,
        metadata={"help": "concurrent clients (the vectorised engine's accounting ignores it)"},
    )
    write_fraction: float = field(
        default=0.5, metadata={"help": "probability that an operation is a write"}
    )
    strategy: object = field(
        default=None,
        metadata={
            "choices": ("uniform", "optimal"),
            "help": "quorum access strategy (default: the system's natural one; "
            "optimal = the load LP's)",
        },
    )
    seed: int = field(
        default=0, metadata={"help": "the single seed every random draw of the run derives from"}
    )
    max_attempts: int = field(default=10, metadata={"help": "probe budget per operation"})
    allow_overload: bool = False
    num_samples: int = field(
        default=256,
        metadata={"help": "sample size when the facade must switch to sampled-quorum mode"},
    )
    membership: MembershipSpec | None = None

    def __post_init__(self):
        if self.membership is not None and self.scenario is not None:
            raise InvalidParameterError(
                "membership and scenario are mutually exclusive: a membership "
                "spec is itself the reconfiguration scenario"
            )
        if self.operations < 1:
            raise InvalidParameterError(
                f"operations must be >= 1, got {self.operations}"
            )
        if self.clients < 1:
            raise InvalidParameterError(f"clients must be >= 1, got {self.clients}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise InvalidParameterError(
                f"write_fraction must lie in [0, 1], got {self.write_fraction}"
            )
        if self.num_samples < 1:
            raise InvalidParameterError(
                f"num_samples must be >= 1, got {self.num_samples}"
            )


@dataclass(frozen=True)
class WorkloadReport:
    """Engine-independent summary of one workload run (JSON-stable).

    Both engines produce exactly this shape: fields only one engine can
    measure (latency percentiles, timeouts, simulated duration) are
    ``None`` on the other engine's reports, but the key set never changes —
    that is what lets ``analysis/empirical.py`` compare engines
    result-vs-result and lets ``python -m repro run --json`` feed dashboards.

    Attributes
    ----------
    engine:
        ``"vectorized"`` or ``"event"`` — which engine actually ran.
    system / n / b / scenario / strategy / seed:
        The resolved experiment coordinates (``spec`` carries the registry
        spec when the system came from one).
    sampled:
        Whether the run used sampled-quorum mode
        (:class:`~repro.core.quorum_system.ImplicitQuorumSystem`).
    operations / successful_reads / successful_writes / failed_operations:
        Operation accounting.
    availability:
        Fraction of operations that completed.
    consistent / consistency_violations / stale_reads:
        The consistency verdict (violations must be 0 whenever the
        Byzantine count is within ``b``).  On every run that recorded a
        history (event engine, live service) they are the checker's:
        ``consistent`` is :attr:`~repro.simulation.history.HistoryCheck.ok`
        and every counter except stale reads is a violation; on the
        vectorised engine they are the vouching rule's own counters.
    empirical_load / busiest_server:
        The busiest server's measured access frequency over successful
        operations (Definition 3.8's empirical counterpart) and which
        server it was.
    latency_mean / latency_p50 / latency_p90 / latency_p99 / duration /
    timeouts / events_processed:
        Event-engine clock measurements (``None`` under the vectorised
        engine; operation-weighted means of the per-epoch statistics on
        reconfiguration runs).
    epochs:
        Per-epoch accounting of a membership-reconfiguration run (one dict
        per epoch: n, b, rebound system, re-optimisation policy, operations,
        availability, empirical load); ``None`` on fixed-membership runs.
    """

    engine: str
    system: str
    n: int
    b: int
    scenario: str
    strategy: str
    seed: int
    sampled: bool
    operations: int
    successful_reads: int
    successful_writes: int
    failed_operations: int
    availability: float
    consistent: bool
    consistency_violations: int
    stale_reads: int
    empirical_load: float
    busiest_server: str
    spec: dict | None = None
    latency_mean: float | None = None
    latency_p50: float | None = None
    latency_p90: float | None = None
    latency_p99: float | None = None
    duration: float | None = None
    timeouts: int | None = None
    events_processed: int | None = None
    epochs: list | None = None

    #: The key set every report's to_dict() emits, in order (schema contract).
    SCHEMA = (
        "engine", "system", "spec", "n", "b", "scenario", "strategy", "seed",
        "sampled", "operations", "successful_reads", "successful_writes",
        "failed_operations", "availability", "consistent",
        "consistency_violations", "stale_reads", "empirical_load",
        "busiest_server", "latency_mean", "latency_p50", "latency_p90",
        "latency_p99", "duration", "timeouts", "events_processed", "epochs",
    )

    def to_dict(self) -> dict:
        """Return the JSON-stable dict (always the full :data:`SCHEMA`)."""
        return {key: getattr(self, key) for key in self.SCHEMA}


def _scenario_label(spec: WorkloadSpec) -> str:
    scenario = spec.scenario
    if spec.membership is not None:
        return "reconfig-custom"
    if scenario is None:
        return "fault-free"
    if isinstance(scenario, str):
        return scenario
    name = getattr(scenario, "name", None)
    return name if name else type(scenario).__name__


def _strategy_label(strategy: object) -> str:
    if strategy is None:
        return "default"
    if isinstance(strategy, str):
        return strategy
    if isinstance(strategy, Strategy):
        return "explicit"
    return type(strategy).__name__


def _resolve_system(spec: WorkloadSpec) -> tuple[QuorumSystem, dict | None]:
    if isinstance(spec.system, QuorumSystem):
        if spec.params:
            raise InvalidParameterError(
                "WorkloadSpec.params only applies when system is a registry name"
            )
        system = spec.system
    else:
        system = build(spec.system, **spec.params)
    try:
        registry_spec = spec_of(system).to_dict()
    except InvalidParameterError:
        registry_spec = None
    return system, registry_spec


def _resolve_b(spec: WorkloadSpec, system: QuorumSystem) -> int:
    if spec.b is not None:
        if spec.b < 0:
            raise InvalidParameterError(f"b must be >= 0, got {spec.b}")
        return spec.b
    return system.masking_bound()  # wrapper views delegate to their base


def _maybe_sampled(spec: WorkloadSpec, system: QuorumSystem) -> tuple[QuorumSystem, bool]:
    """Switch to sampled-quorum mode when the family cannot be enumerated."""
    if isinstance(system, ImplicitQuorumSystem):
        return system, True
    base_enumerable = system.enumerates_all_quorums
    if base_enumerable:
        try:
            if system.num_quorums() <= ENUMERATION_CEILING:
                return system, False
        except ComputationError:
            pass
    if not callable(getattr(system, "sample_quorum_mask", None)):
        raise ComputationError(
            f"{system.name} can neither enumerate its family nor sample from it"
        )
    implicit = ImplicitQuorumSystem(
        system, num_samples=spec.num_samples, seed=spec.seed
    )
    return implicit, True


def _resolve_scenario(
    spec: WorkloadSpec, system: QuorumSystem, b: int
) -> (
    WorkloadScenario
    | TimingScenario
    | FaultScenario
    | AdaptiveScenario
    | TraceScenario
    | MembershipTimeline
):
    """The scenario object an engine's entry point takes; a reconfiguration
    scenario (or ``membership=``) is built over the deployed universe."""
    scenario = spec.scenario
    if spec.membership is not None:
        # The __post_init__ guard guarantees scenario is None here.
        scenario = ReconfigScenario(name="reconfig-custom", membership=spec.membership)
    if scenario is None:
        scenario = "fault-free"
    if isinstance(scenario, str):
        # A stream separate from the workload's own rng, so scenario
        # placement never perturbs the operation draws.
        rng = np.random.default_rng([spec.seed, 0x5CE7A210])
        scenario = build_scenario(scenario, system.universe, b=b, rng=rng)
    if isinstance(scenario, ReconfigScenario):
        return scenario.membership.build(system.universe)
    if isinstance(
        scenario,
        (WorkloadScenario, TimingScenario, FaultScenario, AdaptiveScenario, TraceScenario),
    ):
        return scenario
    raise InvalidParameterError(
        "scenario must be a catalogue name, WorkloadScenario, TimingScenario, "
        "AdaptiveScenario, TraceScenario, ReconfigScenario or FaultScenario, "
        f"got {type(scenario).__name__}"
    )


def _pick_engine(engine: str, scenario: object) -> str:
    if engine not in ENGINES:
        raise InvalidParameterError(
            f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
        )
    timed = isinstance(scenario, (TimingScenario, TraceScenario))
    if engine == "auto":
        return "event" if timed else "vectorized"
    if engine == "vectorized" and timed:
        raise InvalidParameterError(
            f"scenario {getattr(scenario, 'name', scenario)!r} carries timing "
            "(latency models, mid-run transitions); it needs engine='event'"
        )
    return engine


def _event_scenario(
    scenario: object,
) -> TimingScenario | FaultScenario | TraceScenario | MembershipTimeline:
    """Translate an untimed scenario for the event engine.

    A single-phase :class:`WorkloadScenario` unwraps to its fault state.
    Multi-phase schedules are fractions of an *operation batch*, which a
    clock-driven engine cannot honour, and the two-camp ``"equivocate"``
    vouch model has no replica behaviour behind it; both are rejected
    rather than silently misinterpreted, and so is an adaptive scenario,
    whose rounds are batch semantics.
    """
    if isinstance(scenario, (TimingScenario, FaultScenario, TraceScenario, MembershipTimeline)):
        return scenario
    if isinstance(scenario, WorkloadScenario):
        if scenario.num_phases != 1:
            raise InvalidParameterError(
                f"scenario {scenario.name!r} has {scenario.num_phases} "
                "operation-fraction phases; the event engine needs a timed "
                "scenario (TimingScenario) for mid-run transitions"
            )
        if scenario.byzantine_model == "equivocate":
            raise InvalidParameterError(
                f"scenario {scenario.name!r} splits its liars into two "
                "conflicting camps, a vouch model only the vectorised engine "
                "implements; use engine='auto' or 'vectorized'"
            )
        return scenario.phases[0]
    raise InvalidParameterError(
        f"scenario {getattr(scenario, 'name', scenario)!r} adapts between operation "
        "rounds, which only the vectorised engine's batch semantics express; use "
        "engine='auto' or 'vectorized'"
    )


#: Event-engine clock measurements; ``None`` on results that have no clock.
CLOCK_FIELDS = (*LATENCY_FIELDS, "duration", "timeouts", "events_processed")


def assemble_report(
    result: WorkloadResult, check: HistoryCheck | None, **fields: Any
) -> WorkloadReport:
    """Normalise one engine result into a :class:`WorkloadReport`.

    Every report — the facade's, on either engine, with or without
    reconfiguration, and the live service's — is built here, so each derived
    field has one definition:

    * ``consistent`` / ``consistency_violations`` / ``stale_reads`` come from
      ``check`` whenever a history was recorded (``consistent == check.ok``;
      every counter except stale reads is a violation) and from the engine's
      own counters otherwise;
    * the clock fields are the result's (``None`` where it has no clock);
    * ``busiest_server`` is the server attaining ``empirical_load``.

    ``fields`` carries the run's coordinates (``engine``, ``system``, ``n``,
    ``b``, ``scenario``, ``strategy``, ``seed``, ``sampled``, ``spec``) and
    overrides any derived field the caller defines differently.
    """
    consistent, violations = result.is_consistent, result.consistency_violations
    stale = result.stale_reads
    if check is not None:
        consistent, violations, stale = check.ok, check.safety_violations, check.stale_reads
    busiest = ""
    if result.per_server_load and result.empirical_load > 0.0:
        busiest = repr(max(result.per_server_load, key=result.per_server_load.get))
    derived = {
        "operations": int(result.operations),
        "successful_reads": int(result.successful_reads),
        "successful_writes": int(result.successful_writes),
        "failed_operations": int(result.failed_operations),
        "availability": float(result.availability),
        "consistent": bool(consistent),
        "consistency_violations": int(violations),
        "stale_reads": int(stale),
        "empirical_load": float(result.empirical_load),
        "busiest_server": busiest,
        **{name: getattr(result, name, None) for name in CLOCK_FIELDS},
    }
    return WorkloadReport(**{**derived, **fields})


def run(spec: WorkloadSpec, *, engine: str = "auto") -> WorkloadReport:
    """Run one workload experiment and return its :class:`WorkloadReport`.

    ``engine="auto"`` routes timed scenarios (latency models, mid-run
    crash/recover) to the event-driven core and everything else to the
    vectorised engine; forcing ``"vectorized"`` on a timed scenario is an
    error, while forcing ``"event"`` on an untimed one runs it at zero
    latency.  The run is one call to the chosen engine's entry point
    (:func:`~repro.simulation.runner.run_workload` or
    :func:`~repro.simulation.runner.run_event_workload`) with the spec's
    ``b``.  On the event engine each client runs
    ``ceil(operations / clients)`` operations whatever the scenario kind (a
    synthetic trace's arrivals and a membership timeline's epochs included),
    so a non-divisible total is rounded up — ``report.operations`` always
    records the executed count
    (:func:`repro.analysis.empirical.engine_agreement` pre-rounds specs so
    both engines execute identical totals).  Universes whose quorum family
    exceeds the enumeration ceiling
    are switched to sampled-quorum mode automatically (``report.sampled``
    records it), which is what lets
    ``python -m repro run --construction mgrid --n 4096 --scenario crash``
    complete without materialising the ``> 10^6``-quorum family.

    On a reconfiguration run ``empirical_load`` is the worst per-epoch load
    (no single server attains it across rebound systems, so
    ``busiest_server`` is empty) and the event engine's latency fields are
    operation-weighted means of the per-epoch statistics.
    """
    if not isinstance(spec, WorkloadSpec):
        raise InvalidParameterError(
            f"run() takes a WorkloadSpec, got {type(spec).__name__}"
        )
    system, registry_spec = _resolve_system(spec)
    b = _resolve_b(spec, system)
    system, sampled = _maybe_sampled(spec, system)
    scenario = _resolve_scenario(spec, system, b)
    chosen = _pick_engine(engine, scenario)
    rng = np.random.default_rng(spec.seed)

    coordinates = {
        "engine": chosen,
        "system": system.name,
        "n": system.n,
        "b": b,
        "scenario": _scenario_label(spec),
        "strategy": _strategy_label(spec.strategy),
        "seed": spec.seed,
        "sampled": sampled,
        "spec": registry_spec,
    }
    result: WorkloadResult | ReconfigResult
    if chosen == "vectorized":
        result = run_workload(
            system,
            b=spec.b,
            num_operations=spec.operations,
            scenario=scenario,
            strategy=spec.strategy,
            rng=rng,
            write_fraction=spec.write_fraction,
            max_attempts=spec.max_attempts,
            allow_overload=spec.allow_overload,
        )
    else:
        result = run_event_workload(
            system,
            b=spec.b,
            num_clients=spec.clients,
            operations_per_client=math.ceil(spec.operations / spec.clients),
            scenario=_event_scenario(scenario),
            write_fraction=spec.write_fraction,
            max_attempts=spec.max_attempts,
            strategy=spec.strategy,
            rng=rng,
            allow_overload=spec.allow_overload,
        )
    if isinstance(result, ReconfigResult):
        return assemble_report(
            result.whole,
            result.check,
            empirical_load=max(o.result.empirical_load for o in result.outcomes),
            busiest_server="",
            epochs=[outcome.to_dict() for outcome in result.outcomes],
            **coordinates,
        )
    return assemble_report(result, getattr(result, "check", None), **coordinates)
