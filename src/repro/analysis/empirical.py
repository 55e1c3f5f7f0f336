"""Empirical-vs-analytic comparison of the paper's measures.

The analytic side of the reproduction computes ``L(Q)`` by linear program
(Definition 3.8, :func:`repro.core.load.exact_load`) and ``Fp(Q)`` by exact
enumeration (Definition 3.10,
:func:`repro.core.availability.exact_failure_probability`).  This module
closes the loop with the *empirical* side: it runs the vectorised scenario
engine and checks that

* the measured busiest-server access frequency matches the induced load
  ``L_w(Q)`` of the strategy the clients used — and, when the clients use
  the LP's optimal strategy, matches ``L(Q)`` itself; and
* the measured operation availability under independent crashes matches
  ``1 - Fp(Q)``.

Both comparisons return structured results with the analytic value, the
expected value of the estimator, the measurement and the gaps, so tests and
benchmarks can assert tolerances and tables can print them.

A third cross-check closes the loop between the *drivers* of the one
protocol core: :func:`driver_agreement` drives the same operation script
through the event-driven client at zero latency and through the driver the
caller plugs in (the tests plug in the asyncio service client over an
in-process wire loopback), and verifies they agree **operation for
operation** (success, value, timestamp, quorum and the real probe count) —
how broadcasts travel and how silence is detected must not be observable in
the outcome.

Since the facade landed, the *engine*-level cross-check is a result-vs-result
comparison: :func:`engine_agreement` runs one
:class:`~repro.api.workloads.WorkloadSpec` through both engines via
:func:`repro.api.workloads.run` and diffs the two normalised
:class:`~repro.api.workloads.WorkloadReport` objects directly, and the
analytic reference values above come from the facade's measure dispatcher
(:func:`repro.api.measures.measure` with ``method="exact"``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import ComputationError, InvalidParameterError
from repro.simulation.client import (
    AsyncQuorumClient,
    OperationResult,
    ProtocolCore,
    RetryPolicy,
)
from repro.simulation.engine import resolve_strategy
from repro.simulation.events import EventNetwork, EventScheduler
from repro.simulation.faults import FaultInjector, FaultScenario
from repro.simulation.runner import build_replicas, run_workload
from repro.simulation.scenarios import WorkloadScenario

if TYPE_CHECKING:  # circular at runtime: the facade imports this module
    from repro.api.workloads import WorkloadSpec

__all__ = [
    "EmpiricalAvailabilityComparison",
    "EmpiricalLoadComparison",
    "EngineAgreement",
    "ProtocolAgreement",
    "empirical_availability_comparison",
    "empirical_load_comparison",
    "driver_agreement",
    "engine_agreement",
]


@dataclass(frozen=True)
class EmpiricalLoadComparison:
    """Measured ``L_w`` against the strategy's induced load and the LP's ``L(Q)``.

    Attributes
    ----------
    analytic_load:
        ``L(Q)`` from the exact linear program — the best any strategy can do.
    strategy_load:
        ``L_w(Q)``, the induced load of the strategy the workload actually
        used (equals ``analytic_load`` when that strategy is the LP optimum).
    empirical_load:
        The busiest server's measured access frequency over successful
        operations.
    operations:
        Number of operations in the measurement.
    """

    analytic_load: float
    strategy_load: float
    empirical_load: float
    operations: int

    @property
    def sampling_gap(self) -> float:
        """|measured − expected|: pure sampling noise of the estimator."""
        return abs(self.empirical_load - self.strategy_load)

    @property
    def optimality_gap(self) -> float:
        """``L_w(Q) − L(Q)`` ≥ 0: the price of the strategy used."""
        return self.strategy_load - self.analytic_load


@dataclass(frozen=True)
class EmpiricalAvailabilityComparison:
    """Measured availability against the exact crash probability ``Fp``.

    Attributes
    ----------
    analytic_failure_probability:
        ``Fp(Q)`` from exact enumeration.
    empirical_failure_rate:
        Fraction of operations that failed across all sampled crash
        configurations.
    trials:
        Number of independently-drawn crash configurations.
    operations_per_trial:
        Operations run under each configuration.
    """

    analytic_failure_probability: float
    empirical_failure_rate: float
    trials: int
    operations_per_trial: int

    @property
    def gap(self) -> float:
        """|measured − exact| failure probability."""
        return abs(self.empirical_failure_rate - self.analytic_failure_probability)


@dataclass(frozen=True)
class ProtocolAgreement:
    """Operation-for-operation comparison of a protocol driver with the
    zero-latency event driver.

    Attributes
    ----------
    operations:
        Length of the operation script both drivers executed.
    mismatches:
        ``(index, field, event_value, driver_value)`` tuples for every
        per-operation divergence of the driver from the event driver, plus
        an ``(-1, "operations", ...)`` entry when the result counts differ
        and an ``(-1, "accounting", ...)`` entry when the per-server
        successful-access tallies differ.
    """

    operations: int
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        """Whether the driver reproduced the event driver exactly."""
        return not self.mismatches


#: ``driver(servers, scenario, script, **client_kwargs)`` builds a client over
#: ``servers`` (``client_kwargs``: ``client_id``, ``system``, ``b``,
#: ``policy``, ``rng``, ``strategy``), runs the ``("read" | "write", value)``
#: script and returns ``(results, client)``.
ProtocolDriver = Callable[..., tuple[list[OperationResult], ProtocolCore]]


def _drive_events(
    servers: dict, scenario: FaultScenario, script: list, **client_kwargs: Any
) -> tuple[list[OperationResult], ProtocolCore]:
    scheduler = EventScheduler()
    client = AsyncQuorumClient(
        network=EventNetwork(servers, scenario, scheduler=scheduler), **client_kwargs
    )
    results: list[OperationResult] = []
    for kind, value in script:
        if kind == "write":
            client.write(value, results.append)
        else:
            client.read(results.append)
        scheduler.run()
    return results, client


def driver_agreement(
    system: QuorumSystem,
    driver: ProtocolDriver,
    *,
    b: int,
    num_operations: int = 60,
    scenario: FaultScenario | None = None,
    byzantine_behaviour: str = "fabricate-timestamp",
    write_fraction: float = 0.5,
    max_attempts: int = 10,
    strategy: Strategy | str | None = None,
    seed: int = 0,
    allow_overload: bool = False,
) -> ProtocolAgreement:
    """Drive one operation script through ``driver`` and the event driver.

    The reference is the event-driven driver (:class:`AsyncQuorumClient`
    over a **zero-latency** :class:`EventNetwork`); ``driver`` is any
    :data:`ProtocolDriver`.  Both are given identical replicas, identical
    client rng streams and the same read/write script; both run the one
    protocol core, and a zero-latency model draws no network randomness, so
    every operation must agree on ``(success, value, timestamp, quorum,
    attempts)`` — silence detection by timeout or by transport failure are
    observationally identical.  (``latency`` is excluded: the two clocks
    differ.)
    """
    scenario = scenario if scenario is not None else FaultScenario.fault_free()
    resolved = resolve_strategy(system, strategy) if strategy is not None else None
    script_rng = np.random.default_rng(seed)
    script = [
        ("write", f"value-{index}")
        if script_rng.random() < write_fraction
        else ("read", None)
        for index in range(num_operations)
    ]
    if not allow_overload and scenario.num_byzantine > b:
        raise ComputationError(
            f"scenario has {scenario.num_byzantine} Byzantine servers but b={b}; "
            "pass allow_overload=True to compare beyond the bound"
        )

    def drive(driver: ProtocolDriver) -> tuple[list[OperationResult], ProtocolCore]:
        servers = build_replicas(
            system,
            scenario.byzantine,
            byzantine_behaviour=byzantine_behaviour,
            rng=np.random.default_rng(seed + 1),
        )
        return driver(
            servers,
            scenario,
            script,
            client_id=0,
            system=system,
            b=b,
            policy=RetryPolicy(max_attempts=max_attempts, request_timeout=1.0),
            rng=np.random.default_rng(seed + 2),
            strategy=resolved,
        )

    reference, reference_client = drive(_drive_events)
    results, client = drive(driver)
    mismatches = []
    if len(results) != len(reference):
        mismatches.append((-1, "operations", len(reference), len(results)))
    for index, (expected, result) in enumerate(zip(reference, results)):
        for field_name in ("success", "value", "timestamp", "quorum", "attempts"):
            expected_value = getattr(expected, field_name)
            value = getattr(result, field_name)
            if expected_value != value:
                mismatches.append((index, field_name, expected_value, value))
    expected_tally = dict(reference_client.successful_access_counts)
    tally = dict(client.successful_access_counts)
    if expected_tally != tally:
        mismatches.append((-1, "accounting", expected_tally, tally))
    return ProtocolAgreement(operations=num_operations, mismatches=tuple(mismatches))


@dataclass(frozen=True)
class EngineAgreement:
    """Result-vs-result comparison of the two workload engines.

    Since the facade normalises both engines into one
    :class:`~repro.api.workloads.WorkloadReport`, the cross-check reduces to
    comparing two reports: the experiment coordinates and the consistency
    verdict must agree exactly, the statistical fields (availability, load)
    must agree within the sampling tolerance of the shared spec.

    Attributes
    ----------
    vectorized / event:
        The two engines' reports for the same :class:`WorkloadSpec`.
    mismatched_fields:
        ``(field, vectorized_value, event_value)`` tuples for every exactly
        comparable field that diverged (schema keys, ``n``, ``b``,
        ``operations``, ``consistent``, ``consistency_violations``).
    availability_gap / load_gap:
        Absolute differences of the two statistical headline numbers.
    """

    vectorized: object
    event: object
    mismatched_fields: tuple = ()
    availability_gap: float = 0.0
    load_gap: float = 0.0

    def ok(self, *, availability_tol: float = 0.05, load_tol: float = 0.1) -> bool:
        """Whether the engines agree (exact fields + gaps within tolerance)."""
        return (
            not self.mismatched_fields
            and self.availability_gap <= availability_tol
            and self.load_gap <= load_tol
        )


def engine_agreement(spec: WorkloadSpec) -> EngineAgreement:
    """Run one :class:`~repro.api.workloads.WorkloadSpec` on both engines.

    The spec's operation count is rounded up to a multiple of its client
    count so both engines execute the same total (the event engine hands
    each client ``operations / clients`` operations).  Only untimed
    scenarios qualify — a timed scenario cannot run vectorised by
    construction.
    """
    from dataclasses import replace

    from repro.api.workloads import WorkloadSpec, run

    if not isinstance(spec, WorkloadSpec):
        raise ComputationError(
            f"engine_agreement takes a WorkloadSpec, got {type(spec).__name__}"
        )
    operations = spec.clients * -(-spec.operations // spec.clients)
    spec = replace(spec, operations=operations)
    vectorized = run(spec, engine="vectorized")
    event = run(spec, engine="event")

    mismatches = []
    vec_dict, event_dict = vectorized.to_dict(), event.to_dict()
    if set(vec_dict) != set(event_dict):
        mismatches.append(("schema", sorted(vec_dict), sorted(event_dict)))
    for field_name in ("n", "b", "operations", "consistent", "consistency_violations"):
        if vec_dict[field_name] != event_dict[field_name]:
            mismatches.append(
                (field_name, vec_dict[field_name], event_dict[field_name])
            )
    return EngineAgreement(
        vectorized=vectorized,
        event=event,
        mismatched_fields=tuple(mismatches),
        availability_gap=abs(vectorized.availability - event.availability),
        load_gap=abs(vectorized.empirical_load - event.empirical_load),
    )


def empirical_load_comparison(
    system: QuorumSystem,
    *,
    b: int,
    num_operations: int = 2000,
    rng: np.random.Generator | None = None,
    strategy: Strategy | str | None = "optimal",
) -> EmpiricalLoadComparison:
    """Measure ``L_w`` on a fault-free workload and compare it with the LP.

    With the default ``strategy="optimal"`` the clients are driven by the LP's
    optimal strategy, so the measured busiest-server frequency estimates
    ``L(Q)`` itself; with ``"uniform"`` it estimates the uniform strategy's
    induced load, and ``optimality_gap`` quantifies what ignoring ``L(Q)``
    costs.
    """
    from repro.api.measures import measure

    rng = ensure_rng(rng)
    resolved = resolve_strategy(system, strategy)
    analytic = measure(system, "load", method="exact").value
    expected = resolved.induced_system_load(system.universe)
    result = run_workload(
        system,
        b=b,
        num_operations=num_operations,
        strategy=resolved,
        rng=rng,
    )
    return EmpiricalLoadComparison(
        analytic_load=float(analytic),
        strategy_load=float(expected),
        empirical_load=float(result.empirical_load),
        operations=num_operations,
    )


def empirical_availability_comparison(
    system: QuorumSystem,
    p: float,
    *,
    b: int,
    trials: int = 200,
    operations_per_trial: int = 20,
    rng: np.random.Generator | None = None,
    strategy: Strategy | str | None = None,
) -> EmpiricalAvailabilityComparison:
    """Measure availability under iid crashes and compare it with exact ``Fp``.

    Each trial draws one crash configuration from the independent-crash model
    of Definition 3.10 and runs a short workload under it; the aggregated
    failure rate estimates ``Fp(Q)`` because the engine's steering retry makes
    an operation fail exactly when every supported quorum is hit — the event
    ``crash(Q)`` whose probability ``Fp`` is.

    Note the estimator matches ``Fp`` only when the strategy supports every
    quorum (the default); a strategy with restricted support can only reach
    its own quorums, so its failure rate dominates ``Fp``.
    """
    from repro.api.measures import measure

    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    rng = ensure_rng(rng)
    resolved = resolve_strategy(system, strategy)
    analytic = measure(system, "fp", method="exact", p=p).value
    injector = FaultInjector(system.universe, rng)
    failed = 0
    total = 0
    for _ in range(trials):
        configuration = injector.independent_crashes(p)
        result = run_workload(
            system,
            b=b,
            num_operations=operations_per_trial,
            scenario=WorkloadScenario.from_fault_scenario(configuration, name="iid-crash"),
            strategy=resolved,
            rng=rng,
        )
        failed += result.failed_operations
        total += result.operations
    return EmpiricalAvailabilityComparison(
        analytic_failure_probability=float(analytic),
        empirical_failure_rate=failed / total,
        trials=trials,
        operations_per_trial=operations_per_trial,
    )
