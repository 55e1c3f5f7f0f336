"""Conformance checks: empirical metrics against the paper's proven bounds.

The repo measures (empirical load, availability, stale/fabricated reads) and
computes (LP load, closed-form ``Fp``) the same quantities; this module
turns "the measurement must stay inside the proven envelope" into reusable,
test-callable assertions.  Each check is a :class:`ConformanceCheck` — an
observed value, a bound, a direction and the statistical slack the finite
sample is allowed — and a run's checks bundle into a
:class:`ConformanceReport` whose :meth:`~ConformanceReport.require` raises
:class:`~repro.exceptions.ConformanceError` on any violation.

What is checked, and why it is sound:

* **Load upper envelope** — for an adversarial run, the aggregate empirical
  load cannot exceed (beyond sampling noise) the largest load the access
  strategy *restricted to the quorums that survived each round* induces
  (:func:`restricted_induced_loads`): that restricted-and-renormalised
  strategy is exactly what the engine's steering retry samples from, so the
  per-round expectation is the restricted induced load and the aggregate is
  a convex combination over rounds.
* **Load worst case** — the same restricted load maximised over *every*
  crash set of size up to ``b`` (:func:`worst_case_induced_load`): the
  bound no adaptive crash adversary with budget ``b`` can beat, whatever it
  observes.
* **Load lower bound** — ``L(Q)`` of the Definition 3.8 LP
  (:func:`~repro.core.load.exact_load`).  Any strategy over any subfamily
  of the quorums induces at least ``L(Q)`` (restricting the family only
  shrinks the LP's feasible set), so the observed load must sit *above*
  ``L(Q)`` minus noise — the two-sided squeeze that pins the measurement to
  the theory.
* **Masking envelope** — with at most ``b`` Byzantine servers per round,
  Lemma 3.6 guarantees zero fabricated and zero stale reads; the bound is
  exact, so the tolerance is zero.
* **Availability** — the failure rate observed under independent
  per-server faults (e.g. the site-percolation phases of
  :func:`~repro.simulation.scenarios.percolation_scenario`) must agree with
  the closed-form ``Fp`` of :mod:`repro.core.analytic` within a binomial
  confidence interval.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from repro.core.analytic import analytic_failure_probability
from repro.core.load import exact_load
from repro.core.membership import Membership
from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.core.universe import Universe
from repro.exceptions import ComputationError, ConformanceError, InvalidParameterError
from repro.simulation.adversary import AdaptiveScenario, AdversarialResult
from repro.simulation.engine import WorkloadResult, resolve_strategy
from repro.simulation.messages import Timestamp
from repro.simulation.reconfig import ReconfigResult
from repro.simulation.runner import run_workload
from repro.simulation.scenarios import percolation_scenario

__all__ = [
    "ConformanceCheck",
    "ConformanceReport",
    "adversarial_conformance",
    "availability_conformance",
    "load_conformance",
    "masking_conformance",
    "percolation_conformance",
    "reconfig_conformance",
    "recovery_conformance",
    "restricted_induced_loads",
    "service_conformance",
    "worst_case_induced_load",
]

#: Default z-score for statistical slacks (one-in-millions false alarms).
DEFAULT_Z = 5.0

#: Default cap on the number of crash sets :func:`worst_case_induced_load`
#: will enumerate.
ENUMERATION_LIMIT = 200_000


@dataclass(frozen=True)
class ConformanceCheck:
    """One "empirical metric vs paper bound" comparison.

    Attributes
    ----------
    metric:
        What was measured (e.g. ``"empirical-load"``).
    observed / bound:
        The measurement and the theoretical bound it is held against.
    direction:
        ``"<="`` (observed must not exceed the bound) or ``">="``.
    slack:
        Statistical tolerance granted on the permissive side (0 for exact
        bounds like the masking envelope).
    detail:
        Human-readable context for reports and error messages.
    """

    metric: str
    observed: float
    bound: float
    direction: str = "<="
    slack: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if self.direction not in ("<=", ">="):
            raise InvalidParameterError(
                f"direction must be '<=' or '>=', got {self.direction!r}"
            )
        if self.slack < 0.0:
            raise InvalidParameterError(f"slack must be >= 0, got {self.slack}")

    @property
    def ok(self) -> bool:
        """Whether the observation respects the bound within the slack."""
        if self.direction == "<=":
            return self.observed <= self.bound + self.slack
        return self.observed >= self.bound - self.slack

    @property
    def margin(self) -> float:
        """Distance from the slackened bound (positive = inside the envelope)."""
        if self.direction == "<=":
            return self.bound + self.slack - self.observed
        return self.observed - (self.bound - self.slack)

    def require(self) -> None:
        """Raise :class:`~repro.exceptions.ConformanceError` unless :attr:`ok`."""
        if not self.ok:
            raise ConformanceError(
                f"{self.metric}: observed {self.observed:.6g} violates bound "
                f"{self.direction} {self.bound:.6g} (slack {self.slack:.3g})"
                + (f" — {self.detail}" if self.detail else "")
            )

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "observed": self.observed,
            "bound": self.bound,
            "direction": self.direction,
            "slack": self.slack,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ConformanceReport:
    """All conformance checks of one run."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(check for check in self.checks if not check.ok)

    def require(self) -> None:
        """Raise on the first violated check."""
        for check in self.checks:
            check.require()

    def check(self, metric: str) -> ConformanceCheck:
        """Return the (first) check with the given metric name."""
        for entry in self.checks:
            if entry.metric == metric:
                return entry
        raise InvalidParameterError(
            f"no conformance check named {metric!r}; have "
            f"{', '.join(sorted({c.metric for c in self.checks}))}"
        )

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [check.to_dict() for check in self.checks]}


# ----------------------------------------------------------------------
# Restricted-strategy load bounds.
# ----------------------------------------------------------------------
def restricted_induced_loads(
    strategy: Strategy,
    universe: Universe,
    crash_sets: Sequence[Iterable],
) -> np.ndarray:
    """Max induced load of the strategy restricted to each crash set's survivors.

    For each crash set ``B``, the strategy is conditioned on its supported
    quorums that avoid ``B`` (renormalised) — exactly the distribution the
    engine's steering retry samples from — and the maximum per-server access
    probability of that conditional strategy is returned.  Entries are
    ``NaN`` when no supported quorum survives (operations fail; no load is
    induced at all).
    """
    engine = strategy.support_engine(universe)
    n = universe.size
    crashed_rows = np.zeros((len(crash_sets), n), dtype=bool)
    for row, crash_set in enumerate(crash_sets):
        positions = universe.indices_of(crash_set)
        if positions:
            crashed_rows[row, list(positions)] = True
    alive = engine.quorums_alive(crashed_rows)  # (num_sets, num_quorums)
    weights = strategy.probabilities[None, :] * alive
    totals = weights.sum(axis=1)
    safe_totals = np.where(totals > 0.0, totals, 1.0)
    loads = (weights / safe_totals[:, None]) @ engine.incidence_matrix().astype(float)
    per_set = loads.max(axis=1)
    per_set[totals <= 0.0] = np.nan
    return per_set


def worst_case_induced_load(
    system: QuorumSystem,
    strategy: Strategy | str | None = None,
    *,
    b: int,
    limit: int = ENUMERATION_LIMIT,
) -> float:
    """The restricted induced load maximised over every crash set of size <= b.

    This is the load envelope no crash adversary with budget ``b`` can
    exceed against the given strategy, however adaptively it chooses its
    victims.  Enumerates all ``sum_k C(n, k)`` crash sets, so it is meant
    for the test-sized systems the conformance suite runs on; a budget
    beyond ``limit`` sets raises
    :class:`~repro.exceptions.ComputationError`.
    """
    if b < 0:
        raise InvalidParameterError(f"b must be >= 0, got {b}")
    universe = system.universe
    n = universe.size
    total_sets = sum(comb(n, k) for k in range(min(b, n) + 1))
    if total_sets > limit:
        raise ComputationError(
            f"worst-case load bound needs {total_sets} crash sets at n={n}, "
            f"b={b}; limit is {limit}"
        )
    resolved = resolve_strategy(system, strategy)
    crash_sets: list[tuple] = []
    for k in range(min(b, n) + 1):
        crash_sets.extend(combinations(universe.elements, k))
    per_set = restricted_induced_loads(resolved, universe, crash_sets)
    finite = per_set[~np.isnan(per_set)]
    return float(finite.max()) if finite.size else 0.0


def _binomial_slack(rate: float, trials: int, z: float) -> float:
    """A z-sigma binomial half-width plus one-count discretisation slack."""
    trials = max(1, trials)
    clipped = min(max(rate, 0.0), 1.0)
    return z * sqrt(clipped * (1.0 - clipped) / trials) + 1.0 / trials


# ----------------------------------------------------------------------
# Bound builders: each of the paper's bounds is spelled once, here, and the
# run-level checks below compose them under their own metric names/tags.
# ----------------------------------------------------------------------
def _envelope_bound(
    strategy: Strategy, universe: Universe, crash_sets: Sequence[Iterable]
) -> float:
    """Load envelope: the restricted induced load maximised over the crash
    sets a run actually realised."""
    per_set = restricted_induced_loads(strategy, universe, crash_sets)
    finite = per_set[~np.isnan(per_set)]
    return float(finite.max()) if finite.size else 0.0


def _worst_case_bound(
    system: QuorumSystem, strategy: Strategy | None, b: int
) -> float | None:
    """Load worst case: :func:`worst_case_induced_load`, or ``None`` when
    there is no strategy or the enumeration exceeds its budget."""
    if strategy is None:
        return None
    try:
        return worst_case_induced_load(system, strategy, b=b)
    except ComputationError:
        return None


def _lp_bound(system: QuorumSystem) -> float | None:
    """``L(Q)`` of the Definition 3.8 LP, or ``None`` when it is intractable."""
    try:
        return float(exact_load(system).load)
    except ComputationError:
        return None


def _load_checks(
    observed: float, successful: int, z: float, bounds: Iterable[tuple]
) -> list[ConformanceCheck]:
    """Hold an observed load to ``(metric, direction, bound, detail)`` rows.

    Every load bound is an expectation over ``successful`` operations, so
    each gets that sample's binomial slack; rows whose bound is ``None``
    (not computable for the system) are skipped.
    """
    return [
        ConformanceCheck(
            metric=metric,
            observed=observed,
            bound=bound,
            direction=direction,
            slack=_binomial_slack(bound, successful, z),
            detail=detail,
        )
        for metric, direction, bound, detail in bounds
        if bound is not None
    ]


_LP_DETAIL = "L(Q) of the Definition 3.8 LP — no strategy induces less"


def _zero_checks(*rows: tuple) -> list[ConformanceCheck]:
    """Exact zero bounds (no slack) from ``(metric, observed, detail)`` rows."""
    return [
        ConformanceCheck(
            metric=metric, observed=float(observed), bound=0.0, direction="<=", detail=detail
        )
        for metric, observed, detail in rows
    ]


def _masking_checks(
    fabricated: int,
    stale: int,
    successful_reads: int,
    details: tuple[str, str],
    metrics: tuple[str, str] = ("fabricated-reads", "stale-read-rate"),
) -> list[ConformanceCheck]:
    """The Lemma 3.6 zero bounds: no fabricated reads, zero stale-read rate."""
    return _zero_checks(
        (metrics[0], fabricated, details[0]),
        (metrics[1], stale / max(1, successful_reads), details[1]),
    )


# ----------------------------------------------------------------------
# Run-level conformance checks.
# ----------------------------------------------------------------------
def load_conformance(
    result: AdversarialResult,
    system: QuorumSystem,
    *,
    b: int | None = None,
    z: float = DEFAULT_Z,
) -> ConformanceReport:
    """Check an adversarial run's empirical load against the load bounds.

    Three checks: the trajectory envelope (observed load <= the largest
    restricted induced load over the rounds the adversary actually played),
    the global worst case over every crash set of size up to ``b`` when the
    enumeration fits the budget, and the ``L(Q)`` lower bound when the LP is
    available for the system.
    """
    if not isinstance(result, AdversarialResult):
        raise InvalidParameterError(
            f"load_conformance takes an AdversarialResult, got {type(result).__name__}"
        )
    if result.strategy is None:
        raise InvalidParameterError(
            "the adversarial result carries no strategy; rerun through "
            "run_workload with an AdaptiveScenario"
        )
    crash_sets = [round_.fault.crashed for round_ in result.rounds]
    budget = b if b is not None else max(
        (round_.fault.num_crashed for round_ in result.rounds), default=0
    )
    checks = _load_checks(
        result.empirical_load,
        result.successful_reads + result.successful_writes,
        z,
        [
            (
                "load-envelope",
                "<=",
                _envelope_bound(result.strategy, system.universe, crash_sets),
                "restricted induced load maximised over the adversary's "
                f"{len(result.rounds)} realised crash sets",
            ),
            (
                "load-worst-case",
                "<=",
                _worst_case_bound(system, result.strategy, budget),
                f"restricted induced load over every crash set of size <= {budget}",
            ),
            ("load-lp-lower-bound", ">=", _lp_bound(system), _LP_DETAIL),
        ],
    )
    return ConformanceReport(checks=tuple(checks))


def masking_conformance(result: WorkloadResult, *, b: int) -> ConformanceReport:
    """Check the Lemma 3.6 zero-violation guarantee on any workload result.

    Within ``b`` Byzantine servers the masking rule admits no fabricated and
    no stale reads, so both counters are held to an exact zero bound.  For
    an :class:`~repro.simulation.adversary.AdversarialResult` the per-round
    Byzantine counts are verified to actually stay within ``b`` (otherwise
    the guarantee does not apply and the check is vacuous by construction —
    overloaded negative runs should expect failures here).
    """
    checks = _masking_checks(
        result.consistency_violations,
        result.stale_reads,
        result.successful_reads,
        (
            f"Lemma 3.6: no fabrication with <= b={b} liars",
            "Lemma 3.6: reads see the latest completed write",
        ),
    )
    rounds = getattr(result, "rounds", ())
    if rounds:
        checks.append(
            ConformanceCheck(
                metric="byzantine-budget",
                observed=float(max(round_.fault.num_byzantine for round_ in rounds)),
                bound=float(b),
                direction="<=",
                detail="the adversary stayed within the masking parameter",
            )
        )
    return ConformanceReport(checks=tuple(checks))


def service_conformance(
    result: object,
    *,
    crash_sets: Sequence[Iterable] | None = None,
    z: float = DEFAULT_Z,
) -> ConformanceReport:
    """Check a *live-traffic* run against the paper's bounds.

    Takes a :class:`~repro.service.harness.ServiceRunResult` (duck-typed, so
    this module never imports the service layer) — the outcome of driving
    real replica processes over sockets — and holds it to the same envelope
    the simulators are held to:

    * **masking zero bounds** — with at most ``b`` Byzantine replicas the
      recorded history must contain zero fabricated reads, zero stale reads
      and zero write-order/duplicate-timestamp violations (Lemma 3.6 plus
      the unique-timestamp rule; all exact, no slack);
    * **load envelope** — the busiest replica's empirical load cannot exceed
      the client strategy's restricted induced load maximised over the crash
      sets the run actually realised (``crash_sets``; the fault-free run is
      always included), beyond binomial noise;
    * **load lower bound** — the observed load must sit above ``L(Q)`` of
      the Definition 3.8 LP minus noise, when the LP is tractable for the
      system.

    ``crash_sets`` lists the replica subsets that were down during the run
    (killed or stalled past the retry budget); each is bounded like one
    adversarial round.
    """
    for attribute in ("system", "b", "check", "per_server_load", "strategy", "records"):
        if not hasattr(result, attribute):
            raise InvalidParameterError(
                "service_conformance takes a ServiceRunResult-shaped object; "
                f"{type(result).__name__} has no {attribute!r}"
            )
    system: QuorumSystem = result.system
    history = result.check
    successful = [record for record in result.records if record.success]
    checks = _masking_checks(
        history.fabricated_reads,
        history.stale_reads,
        sum(1 for record in successful if record.kind == "read"),
        (
            f"Lemma 3.6 over live traffic: no fabrication with <= b={result.b} liars",
            "Lemma 3.6 over live traffic: reads see the latest completed write",
        ),
    ) + _zero_checks(
        (
            "history-safety",
            history.write_order_violations + history.duplicate_write_timestamps,
            "real-time write order and unique write timestamps",
        )
    )

    realised: list[tuple] = [()] + [tuple(crash_set) for crash_set in crash_sets or ()]
    # The crash-budget worst case only bounds runs whose outages stayed
    # within the masking budget (its quantifier ranges over sets of size
    # <= b); larger realised crash sets are covered by the envelope.
    within_budget = all(len(crash_set) <= result.b for crash_set in realised)
    checks += _load_checks(
        max(result.per_server_load.values(), default=0.0),
        len(successful),
        z,
        [
            (
                "load-envelope",
                "<=",
                _envelope_bound(result.strategy, system.universe, realised),
                "restricted induced load of the client strategy over the "
                f"{len(realised)} realised crash sets",
            ),
            (
                "load-worst-case",
                "<=",
                _worst_case_bound(system, result.strategy, result.b) if within_budget else None,
                f"restricted induced load over every crash set of size <= {result.b}",
            ),
            ("load-lp-lower-bound", ">=", _lp_bound(system), _LP_DETAIL),
        ],
    )
    return ConformanceReport(checks=tuple(checks))


def _timestamp_rank(timestamp) -> float:
    """Monotone float embedding of the lexicographic timestamp order.

    ``(counter, client_id)`` pairs compare lexicographically; mapping them
    to ``counter + (client_id + 1) / 2**20`` preserves that order exactly
    for every client id below ``2**20 - 1`` (client ids are small
    non-negative ints, ``-1`` only in the zero timestamp), so the checks
    below can expose real timestamps through ``ConformanceCheck``'s float
    observed/bound fields without losing the comparison.
    """
    return float(timestamp.counter) + (float(timestamp.client_id) + 1.0) / float(1 << 20)


def recovery_conformance(
    result: object,
    *,
    server_id,
    recovered_timestamp,
    post_result: object | None = None,
) -> ConformanceReport:
    """Check that a restarted replica recovered everything it had acked.

    ``result`` is the :class:`~repro.service.harness.ServiceRunResult`
    (duck-typed) recorded *before* (or spanning) the crash; ``server_id``
    the restarted replica's universe element; ``recovered_timestamp`` the
    timestamp the replica answered with after recovery (from its ``STATUS``
    frame, as a :class:`~repro.simulation.messages.Timestamp` or a raw
    ``[counter, client_id]`` pair).

    * **recovered-timestamp** — the recovered timestamp must be ``>=`` the
      highest timestamp of any successful write whose quorum contained the
      replica: every such write was acked by it, and an acked write must
      survive the crash (the journal-before-ack contract of
      :mod:`repro.storage`).  Exact, no slack.
    * with ``post_result`` (a run driven *after* the restart): the Lemma 3.6
      zero bounds must still hold — zero fabricated and zero stale reads
      across the restart, **without** any client-side ``initial_pair``
      chaining having been needed.
    """
    for attribute in ("records", "b"):
        if not hasattr(result, attribute):
            raise InvalidParameterError(
                "recovery_conformance takes a ServiceRunResult-shaped object; "
                f"{type(result).__name__} has no {attribute!r}"
            )
    recovered = (
        recovered_timestamp
        if isinstance(recovered_timestamp, Timestamp)
        else Timestamp(counter=int(recovered_timestamp[0]), client_id=int(recovered_timestamp[1]))
    )
    acked = [
        record.timestamp
        for record in result.records
        if record.success
        and record.kind == "write"
        and record.timestamp is not None
        and server_id in (record.quorum or ())
    ]
    floor = max(acked, default=Timestamp.zero())
    checks = [
        ConformanceCheck(
            metric="recovered-timestamp",
            observed=_timestamp_rank(recovered),
            bound=_timestamp_rank(floor),
            direction=">=",
            detail=(
                f"replica {server_id!r} recovered ts={recovered.counter, recovered.client_id} "
                f"vs last acked write ts={floor.counter, floor.client_id} over "
                f"{len(acked)} acked writes (journal-before-ack contract)"
            ),
        )
    ]
    if post_result is not None:
        for attribute in ("check", "records"):
            if not hasattr(post_result, attribute):
                raise InvalidParameterError(
                    "recovery_conformance post_result must be ServiceRunResult-"
                    f"shaped; {type(post_result).__name__} has no {attribute!r}"
                )
        checks += _masking_checks(
            post_result.check.fabricated_reads,
            post_result.check.stale_reads,
            sum(1 for record in post_result.records if record.success and record.kind == "read"),
            (
                "Lemma 3.6 across the restart: no fabricated reads",
                "Lemma 3.6 across the restart: staleness bound holds with "
                "no client-side initial_pair chaining",
            ),
            metrics=("post-restart-fabricated", "post-restart-stale-rate"),
        )
    return ConformanceReport(checks=tuple(checks))


def availability_conformance(
    observed_failure_rate: float,
    system: QuorumSystem,
    *,
    p: float,
    trials: int,
    z: float = DEFAULT_Z,
) -> ConformanceReport:
    """Check a measured failure rate against the closed-form ``Fp``.

    ``observed_failure_rate`` is the fraction of independent fault draws
    (phases, trials) in which no quorum survived; under the Definition 3.10
    model it is a binomial proportion with mean ``Fp``, so it must sit
    inside a ``z``-sigma interval around the analytic value of
    :func:`~repro.core.analytic.analytic_failure_probability`.
    """
    fp = float(analytic_failure_probability(system, p).value)
    checks = tuple(
        ConformanceCheck(
            metric=f"failure-rate-{side}",
            observed=observed_failure_rate,
            bound=fp,
            direction=direction,
            slack=_binomial_slack(fp, trials, z),
            detail=f"closed-form Fp({p}) = {fp:.6g} over {trials} trials",
        )
        for side, direction in (("upper", "<="), ("lower", ">="))
    )
    return ConformanceReport(checks=checks)


# ----------------------------------------------------------------------
# One-call backbones for tests, CI and benchmarks.
# ----------------------------------------------------------------------
def adversarial_conformance(
    system: QuorumSystem,
    *,
    b: int,
    scenario: AdaptiveScenario,
    num_operations: int = 400,
    strategy: Strategy | str | None = None,
    seed: int = 0,
    write_fraction: float = 0.5,
    z: float = DEFAULT_Z,
) -> tuple[AdversarialResult, ConformanceReport]:
    """Run an adaptive adversary and check every applicable bound.

    The backbone call of the adversarial test suite and the CI smoke job:
    one seed-deterministic :func:`~repro.simulation.runner.run_workload` run
    under ``scenario``, followed by :func:`load_conformance` and
    :func:`masking_conformance` on its result.
    """
    result = run_workload(
        system,
        b=b,
        scenario=scenario,
        num_operations=num_operations,
        strategy=strategy,
        rng=np.random.default_rng(seed),
        write_fraction=write_fraction,
    )
    assert isinstance(result, AdversarialResult)
    checks = (
        load_conformance(result, system, b=b, z=z).checks
        + masking_conformance(result, b=b).checks
    )
    return result, ConformanceReport(checks=checks)


def reconfig_conformance(
    result: ReconfigResult,
    system: QuorumSystem,
    membership: Membership,
    *,
    z: float = DEFAULT_Z,
) -> ConformanceReport:
    """Check every epoch of a reconfiguration run against its own closed forms.

    For each epoch the quorum system is rebound to the epoch's membership
    (:meth:`~repro.core.membership.Membership.rebind`) and three families of
    checks are emitted, each tagged ``[e<index>]``:

    * **L(Q) lower bound** — the epoch's observed load must sit above the
      ``L(Q)`` of the epoch's *own* LP minus binomial slack.  Emitted only
      when the epoch's strategy ranges over the epoch system's quorums
      (policies ``initial`` / ``resolve`` / ``uniform``): a re-weighted
      strategy keeps quorums of the *previous* epoch's system, for which the
      subfamily argument behind the bound does not apply.
    * **Restricted-strategy envelope** — the observed load cannot exceed the
      restricted induced load of the epoch's actual strategy maximised over
      every crash set of size up to the epoch's own ``b``
      (:func:`worst_case_induced_load`); sound for any strategy, re-weighted
      ones included.
    * **Masking envelope** — zero fabricated and zero stale reads at ≤ b
      faults per epoch (Lemma 3.6 with the epoch's own ``b``), exact bound.
    """
    if not isinstance(result, ReconfigResult):
        raise InvalidParameterError(
            f"reconfig_conformance takes a ReconfigResult, got {type(result).__name__}"
        )
    checks: list[ConformanceCheck] = []
    for outcome in result.outcomes:
        rebound = membership.rebind(system, outcome.index)
        run = outcome.result
        tag = f"[e{outcome.index}]"
        masking_detail = f"Lemma 3.6 with the epoch's own b={outcome.b}"
        checks += _load_checks(
            run.empirical_load,
            run.operations - run.failed_operations,
            z,
            [
                (
                    f"load-lp-lower-bound{tag}",
                    ">=",
                    _lp_bound(rebound) if outcome.policy != "reweight" else None,
                    f"L(Q) of epoch {outcome.index}'s rebound system "
                    f"{outcome.system_name} (n={outcome.n})",
                ),
                (
                    f"load-envelope{tag}",
                    "<=",
                    _worst_case_bound(rebound, outcome.strategy, outcome.b),
                    "restricted induced load of the epoch's strategy over "
                    f"every crash set of size <= b={outcome.b}",
                ),
            ],
        ) + _masking_checks(
            run.consistency_violations,
            run.stale_reads,
            run.successful_reads,
            (masking_detail, masking_detail),
            metrics=(f"fabricated-reads{tag}", f"stale-read-rate{tag}"),
        )
    return ConformanceReport(checks=tuple(checks))


def percolation_conformance(
    system: QuorumSystem,
    *,
    p: float,
    phases: int = 200,
    operations_per_phase: int = 4,
    b: int | None = None,
    seed: int = 0,
    z: float = DEFAULT_Z,
) -> tuple[WorkloadResult, ConformanceReport]:
    """Run a site-percolation workload and check availability against ``Fp``.

    Builds a :func:`~repro.simulation.scenarios.percolation_scenario` with
    ``phases`` independent lattice draws at closure probability ``p``, runs
    it through the scenario engine with ``operations_per_phase`` operations
    per phase, and compares the observed failure rate to the closed-form
    ``Fp`` with a binomial envelope over ``phases`` trials (within one phase
    survival is deterministic, so the phases are the independent trials).
    """
    if operations_per_phase < 1:
        raise InvalidParameterError(
            f"operations_per_phase must be >= 1, got {operations_per_phase}"
        )
    masking = b if b is not None else system.masking_bound()
    rng = np.random.default_rng(seed)
    scenario = percolation_scenario(
        system.universe, p_closed=p, rng=rng, phases=phases
    )
    result = run_workload(
        system,
        b=masking,
        num_operations=phases * operations_per_phase,
        scenario=scenario,
        rng=rng,
    )
    observed_failure = result.failed_operations / result.operations
    report = availability_conformance(
        observed_failure, system, p=p, trials=phases, z=z
    )
    return result, report
