"""Adaptive adversaries: fault placement chosen *online* from observed load.

The paper's guarantees are worst-case claims: the load bound ``L(Q)``
(Definition 3.8) and the masking property (Lemma 3.6) must hold however the
``b`` faulty servers are chosen — including by an adversary that watches the
running system and corrupts exactly the servers that hurt most.  The static
scenarios of :mod:`repro.simulation.scenarios` fix the fault set up front;
this module closes the gap with *adaptive* policies that re-choose the
corruption set between rounds of a workload, based on the per-server access
counts observed so far:

* :class:`GreedyLoadAdversary` crashes the ``b`` busiest servers — silence
  is within a Byzantine server's power — forcing the steering retry to pile
  the traffic onto the survivors.  This is the load attack the renormalised
  restricted strategy bounds (checked by
  :func:`repro.analysis.conformance.load_conformance`).
* :class:`StaleReadAdversary` turns the ``b`` busiest servers Byzantine
  with the ``"fabricate"`` vouching model — hot servers sit in the most
  quorum intersections, so corrupting them maximises the forged votes a
  read can collect.  Within ``b`` liars the masking rule must still yield
  zero fabricated or stale reads (Lemma 3.6); the conformance layer asserts
  exactly that.

An :class:`AdaptiveScenario` (policy, round count, vouching model) is one
of the scenario kinds :func:`repro.simulation.runner.run_workload` accepts:
it drives the round loop over the vectorised scenario engine, and the whole
run is a deterministic function of the ``rng`` state (policies are
deterministic given the observations, ties broken by universe order), so
adversarial runs replay exactly under a fixed seed.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.core.strategy import Strategy
from repro.core.universe import Universe
from repro.exceptions import SimulationError
from repro.simulation.engine import WorkloadResult
from repro.simulation.faults import FaultScenario
from repro.simulation.scenarios import BYZANTINE_MODELS

__all__ = [
    "AdaptiveScenario",
    "AdversarialRound",
    "AdversarialResult",
    "AdversaryPolicy",
    "GreedyLoadAdversary",
    "StaleReadAdversary",
]


@dataclass(frozen=True)
class AdversaryPolicy:
    """Base class for adaptive fault-placement policies.

    A policy is a pure function of the observations: given the universe, the
    corruption budget and the per-server successful-access counts accumulated
    over previous rounds, it returns the :class:`FaultScenario` for the next
    round.  Policies hold no mutable state, so replaying a run replays its
    corruption trajectory.

    Attributes
    ----------
    corruptions:
        How many servers to corrupt per round; ``None`` means the protocol's
        masking parameter ``b``.  Values above ``b`` model an over-strong
        adversary (negative tests; combine with ``allow_overload`` for
        Byzantine policies).
    """

    corruptions: int | None = None

    def budget(self, b: int, universe: Universe) -> int:
        """The number of servers this policy corrupts each round."""
        count = self.corruptions if self.corruptions is not None else b
        return max(0, min(count, universe.size))

    def hottest(
        self, universe: Universe, counts: dict[Hashable, int], budget: int
    ) -> frozenset:
        """The ``budget`` servers with the highest observed access counts.

        Ties (including the all-zero cold start of round 0) are broken by
        universe position, so the choice is deterministic.
        """
        if budget <= 0:
            return frozenset()
        ranked = sorted(
            universe.elements,
            key=lambda server: (-counts.get(server, 0), universe.index_of(server)),
        )
        return frozenset(ranked[:budget])

    def choose(
        self, universe: Universe, b: int, counts: dict[Hashable, int]
    ) -> FaultScenario:
        raise NotImplementedError


@dataclass(frozen=True)
class GreedyLoadAdversary(AdversaryPolicy):
    """Crash the busiest servers to concentrate load on the survivors."""

    def choose(
        self, universe: Universe, b: int, counts: dict[Hashable, int]
    ) -> FaultScenario:
        return FaultScenario(crashed=self.hottest(universe, counts, self.budget(b, universe)))


@dataclass(frozen=True)
class StaleReadAdversary(AdversaryPolicy):
    """Corrupt the busiest servers into colluding liars.

    The busiest servers appear in the most quorum intersections, so turning
    them Byzantine maximises the forged votes present in any read quorum —
    the strongest permitted attempt at a fabricated or stale read.
    """

    def choose(
        self, universe: Universe, b: int, counts: dict[Hashable, int]
    ) -> FaultScenario:
        return FaultScenario(byzantine=self.hottest(universe, counts, self.budget(b, universe)))


@dataclass(frozen=True)
class AdaptiveScenario:
    """Declarative description of an adaptive-adversary run.

    The analogue of a :class:`~repro.simulation.scenarios.WorkloadScenario`
    for adversarial workloads: a policy, a round count and the Byzantine
    vouching model.  :func:`repro.simulation.runner.run_workload` splits its
    operations into :meth:`round_sizes`; before each round the policy
    inspects the per-server successful-access counts accumulated so far and
    picks the round's fault set.
    """

    name: str
    policy: AdversaryPolicy
    rounds: int = 8
    byzantine_model: str = "fabricate"

    def __post_init__(self):
        if not isinstance(self.policy, AdversaryPolicy):
            raise SimulationError(
                f"policy must be an AdversaryPolicy, got {type(self.policy).__name__}"
            )
        if self.rounds < 1:
            raise SimulationError(f"rounds must be >= 1, got {self.rounds}")
        if self.byzantine_model not in BYZANTINE_MODELS:
            raise SimulationError(
                f"unknown Byzantine model {self.byzantine_model!r}; "
                f"choose one of {sorted(BYZANTINE_MODELS)}"
            )

    def round_sizes(self, num_operations: int) -> list[int]:
        """Split ``num_operations`` into near-equal chunks, one per round.

        Every round must observe something, so at least one operation per
        round is required.
        """
        if num_operations < self.rounds:
            raise SimulationError(
                f"need at least one operation per round: {num_operations} operations "
                f"over {self.rounds} rounds"
            )
        boundaries = [(i * num_operations) // self.rounds for i in range(self.rounds + 1)]
        return [end - start for start, end in zip(boundaries, boundaries[1:])]


@dataclass(frozen=True)
class AdversarialRound:
    """One round of an adversarial run: the fault set chosen and its outcome."""

    index: int
    fault: FaultScenario
    result: WorkloadResult


@dataclass
class AdversarialResult(WorkloadResult):
    """Aggregate of an adversarial run, with the per-round trajectory.

    The inherited fields follow the engine's accounting summed over rounds
    (``per_server_load`` normalised by total successful operations, so it
    remains a genuine access frequency); ``rounds`` keeps each round's fault
    set and :class:`WorkloadResult` so the conformance layer can rebuild the
    exact worst-case envelope the adversary realised, and ``strategy`` is
    the resolved access strategy the clients actually used.
    """

    rounds: tuple = ()
    strategy: Strategy | None = None

    @property
    def corruption_trajectory(self) -> tuple[frozenset, ...]:
        """The corrupted (Byzantine ∪ crashed) set of every round, in order."""
        return tuple(
            round_.fault.byzantine | round_.fault.crashed for round_ in self.rounds
        )
