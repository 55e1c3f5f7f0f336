"""Membership-reconfiguration workloads: epochs driven through both engines.

A :class:`MembershipTimeline` pairs a :class:`~repro.core.membership.Membership`
(the epoch sequence of join/sever events) with the fraction of the workload
spent in each epoch and the strategy re-optimisation policy — the membership
analogue of :class:`~repro.simulation.events.TimingScenario`, whose
transitions only toggle responsiveness of a fixed universe.  Both entry
points of :mod:`repro.simulation.runner` accept a timeline as their
scenario and follow the one per-epoch plan of this module:
``run_workload`` drives the vectorised engine through the epochs and
``run_event_workload`` drives the event-driven protocol stack, stitching
the per-epoch histories into one timeline checked as the history of
**one** register (:func:`~repro.simulation.history.check_register_history`;
``epochs=`` adds the membership rule).

Semantics
---------
* The register is **handed over at each reconfiguration**: once an epoch
  has drained, the pair that ``min(b_old, b_new) + 1`` members of one
  old-epoch quorum vouch for
  (:func:`~repro.simulation.client.vouched_pair`, the rule a read uses) is
  installed on every member of the new epoch before it serves anything.
  The hand-over is not a workload operation and leaves no record in the
  history; an unvouched hand-over is a :class:`SimulationError`.  The event
  engine restores the new epoch's replicas to the pair; the vectorised
  engine, which keeps no per-replica state, is told the register is
  installed, so an epoch after the first may open with a read and that read
  is vouched by every correct member of its quorum.
* The quorum system is **rebound per epoch**
  (:func:`~repro.core.membership.rebind_system` via ``Membership.rebind``):
  construction parameters are recomputed as a pure function of the epoch's
  size, and the masking parameter is clamped to the epoch's own bound.
* The access strategy is **re-optimised per epoch** under one of three
  policies: ``"reweight"`` renormalises the previous epoch's strategy over
  its surviving quorums and falls back to a full re-solve when nothing
  survives, ``"resolve"`` always re-solves the load LP (or re-samples, for
  implicit systems), and ``"uniform"`` rebuilds the uniform strategy.
* All epochs consume **one continuing rng stream**, so a run is a
  deterministic function of the seed and — because each epoch slice is a
  plain :func:`~repro.simulation.engine.run_batch` call — the vectorised
  and sequential modes stay bit-for-bit identical.

``docs/membership.md`` documents the epoch model and the checker's
membership rule.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.membership import Epoch, Membership
from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.engine import WorkloadResult, resolve_strategy
from repro.simulation.history import EpochWindow, HistoryCheck

__all__ = [
    "REOPTIMISE_POLICIES",
    "EpochOutcome",
    "MembershipTimeline",
    "ReconfigResult",
    "reoptimise_strategy",
]

#: Strategy re-optimisation policies applied on epoch change.
REOPTIMISE_POLICIES = ("reweight", "resolve", "uniform")


def _check_policy(policy: str) -> None:
    if policy not in REOPTIMISE_POLICIES:
        raise SimulationError(
            f"unknown re-optimisation policy {policy!r}; "
            f"choose one of {REOPTIMISE_POLICIES}"
        )


@dataclass(frozen=True)
class MembershipTimeline:
    """A membership epoch sequence spread over a workload.

    Attributes
    ----------
    membership:
        The epoch sequence (initial universe plus join/sever events).
    fractions:
        Fraction of the workload's operations spent in each epoch; must be
        positive and sum to 1 (equal split when omitted).
    policy:
        Strategy re-optimisation policy applied on epoch change, one of
        :data:`REOPTIMISE_POLICIES` (see :func:`reoptimise_strategy`).
    """

    membership: Membership
    fractions: tuple[float, ...] = ()
    policy: str = "reweight"

    def __post_init__(self) -> None:
        _check_policy(self.policy)
        fractions = self.fractions
        if not fractions:
            count = self.membership.num_epochs
            fractions = tuple(1.0 / count for _ in range(count))
            object.__setattr__(self, "fractions", fractions)
        if len(fractions) != self.membership.num_epochs:
            raise SimulationError(
                f"{self.membership.num_epochs} epochs but {len(fractions)} fractions"
            )
        if not all(0.0 < fraction < math.inf for fraction in fractions):
            raise SimulationError("epoch fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise SimulationError(
                f"epoch fractions sum to {sum(fractions)}, expected 1"
            )

    @property
    def num_epochs(self) -> int:
        return self.membership.num_epochs

    def operations_per_epoch(self, num_operations: int) -> tuple[int, ...]:
        """Split an operation budget over the epochs (each gets at least one).

        Boundaries are the cumulative fractions rounded down, bumped so every
        epoch runs at least one operation; the final epoch absorbs the
        remainder — the same convention as
        :meth:`~repro.simulation.scenarios.WorkloadScenario.phase_of_operations`.
        """
        count = self.num_epochs
        if num_operations < count:
            raise SimulationError(
                f"need at least one operation per epoch: {num_operations} "
                f"operations over {count} epochs"
            )
        boundaries = np.floor(
            np.cumsum(self.fractions) * num_operations
        ).astype(np.int64)
        # Boundaries must be strictly increasing (one operation per epoch
        # minimum) and leave room for every epoch still to come.
        previous = 0
        for position in range(count):
            ceiling = num_operations - (count - 1 - position)
            previous = int(min(max(boundaries[position], previous + 1), ceiling))
            boundaries[position] = previous
        boundaries[-1] = num_operations
        counts = np.diff(boundaries, prepend=0)
        return tuple(int(value) for value in counts)


@dataclass(frozen=True)
class EpochOutcome:
    """One epoch's slice of a reconfiguration workload.

    ``policy`` records the re-optimisation that actually happened for the
    epoch's strategy: ``"initial"`` for epoch 0, else ``"reweight"``,
    ``"resolve"`` or ``"uniform"`` (a requested re-weight that found no
    surviving quorum is reported as the ``"resolve"`` it fell back to).
    """

    index: int
    n: int
    b: int
    system_name: str
    policy: str
    support_size: int
    result: WorkloadResult
    strategy: Strategy | None = None

    def to_dict(self) -> dict:
        return {
            "epoch": self.index,
            "n": self.n,
            "b": self.b,
            "system": self.system_name,
            "policy": self.policy,
            "support_size": self.support_size,
            "operations": self.result.operations,
            "availability": self.result.availability,
            "empirical_load": self.result.empirical_load,
            "consistency_violations": self.result.consistency_violations,
            "stale_reads": self.result.stale_reads,
        }


@dataclass(frozen=True)
class ReconfigResult:
    """Outcome of a reconfiguration workload, on either engine.

    ``whole`` is the :meth:`~repro.simulation.engine.WorkloadResult.fold` of
    the epochs' results (an
    :class:`~repro.simulation.runner.EventWorkloadResult`, clock included, on
    the event engine).  The event engine also records the stitched,
    time-shifted ``history``, the epoch ``windows`` it was checked against
    and the register checker's verdict ``check`` over that one history; on
    the vectorised engine those three are empty and the verdict is the
    engine's own violation count.
    """

    outcomes: tuple[EpochOutcome, ...]
    whole: WorkloadResult
    windows: tuple[EpochWindow, ...] = ()
    check: HistoryCheck | None = None
    history: tuple = ()

    @property
    def num_epochs(self) -> int:
        return len(self.outcomes)

    @property
    def is_consistent(self) -> bool:
        return self.check.ok if self.check is not None else self.whole.is_consistent

    def to_dict(self) -> dict:
        return {
            "num_epochs": self.num_epochs,
            "operations": self.whole.operations,
            "availability": self.whole.availability,
            "consistency_violations": self.whole.consistency_violations,
            "stale_reads": self.whole.stale_reads,
            "epochs": [outcome.to_dict() for outcome in self.outcomes],
        }


def _full_resolve(rebound: QuorumSystem) -> Strategy:
    """Full per-epoch re-solve: the load LP, or re-sampling when implicit."""
    if getattr(rebound, "is_implicit", False):
        return rebound.sampled_optimal_strategy()
    return resolve_strategy(rebound, "optimal")


def reoptimise_strategy(
    system: QuorumSystem,
    membership: Membership,
    epoch_index: int,
    *,
    previous: Strategy | None = None,
    policy: str = "reweight",
) -> tuple[Strategy, str]:
    """Produce the access strategy for an epoch under the given policy.

    Returns ``(strategy, applied)`` where ``applied`` names the policy that
    actually produced the strategy: a ``"reweight"`` whose surviving support
    is empty falls back to — and is reported as — ``"resolve"``.  This is
    the unit the membership benchmark times (incremental re-weight vs. full
    LP re-solve).
    """
    _check_policy(policy)
    rebound = membership.rebind(system, epoch_index)
    if policy == "uniform":
        return resolve_strategy(rebound, None), "uniform"
    if policy == "reweight" and previous is not None:
        restricted = previous.restricted_to(rebound.universe.elements)
        if restricted is not None:
            return restricted, "reweight"
    return _full_resolve(rebound), "resolve"


def _run_epochs(
    system: QuorumSystem,
    timeline: MembershipTimeline,
    b: int | None,
    strategy: Strategy | str | None,
    run_epoch: Callable[
        [Epoch, QuorumSystem, int, Strategy, EpochOutcome | None], WorkloadResult
    ],
) -> tuple[EpochOutcome, ...]:
    """The per-epoch plan both engines follow.

    Each epoch rebinds the system to its membership, takes the initial
    strategy (epoch 0) or re-optimises the previous epoch's under the
    timeline's policy, clamps ``b`` to what the rebound system can mask, and hands
    ``(epoch, rebound system, epoch b, strategy, previous outcome)`` to
    ``run_epoch`` — the only engine-specific step.  The previous outcome
    (``None`` in epoch 0) is the drained epoch whose register the new one
    takes over.
    """
    membership = timeline.membership
    if membership.initial != system.universe:
        raise SimulationError(
            "the timeline's initial universe must match the deployed system's "
            f"universe (epoch 0 has n={membership.initial.size}, "
            f"system has n={system.universe.size})"
        )
    outcomes: list[EpochOutcome] = []
    current: Strategy | None = None
    for epoch in membership:
        rebound = membership.rebind(system, epoch.index)
        if epoch.index == 0:
            current, applied = resolve_strategy(rebound, strategy), "initial"
        else:
            current, applied = reoptimise_strategy(
                system, membership, epoch.index, previous=current, policy=timeline.policy
            )
        bound = rebound.masking_bound()
        epoch_b = bound if b is None else min(b, bound)
        outcomes.append(
            EpochOutcome(
                index=epoch.index,
                n=epoch.n,
                b=epoch_b,
                system_name=rebound.name,
                policy=applied,
                support_size=len(current),
                result=run_epoch(
                    epoch, rebound, epoch_b, current, outcomes[-1] if outcomes else None
                ),
                strategy=current,
            )
        )
    return tuple(outcomes)
