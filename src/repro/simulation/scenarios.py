"""Parameterised workload scenarios for the vectorised simulation engine.

A :class:`WorkloadScenario` is a *phased* fault schedule: a sequence of
:class:`~repro.simulation.faults.FaultScenario` states, each active for a
fraction of the workload, plus the lie the Byzantine servers tell
(``"fabricate"`` — all colluders vouch for one forged pair — or
``"equivocate"`` — they split into two camps vouching for conflicting pairs).
A single static :class:`FaultScenario` is the one-phase special case.

The factory functions below build the scenario classes the evaluation cares
about:

* :func:`crash_scenario` / :func:`random_crash_scenario` — static crashes,
  chosen explicitly or by the independent-crash model of Definition 3.10;
* :func:`byzantine_scenario` — up to ``b`` (or more, for negative tests)
  lying servers;
* :func:`correlated_failure_scenario` — whole failure domains (racks) crash
  together;
* :func:`partition_scenario` — the client side of a network partition only
  reaches one block of servers, the rest look crashed;
* :func:`churn_scenario` — time-varying crashes: a different crash set per
  phase;
* :func:`scenario_suite` — one representative instance of each, used by the
  example and the scenario benchmarks.

The event engine's counterpart is the *timed*
:class:`~repro.simulation.events.TimingScenario` (re-exported here); the
factories :func:`slow_server_scenario`, :func:`flaky_links_scenario`,
:func:`crash_recover_scenario` and :func:`timing_scenario_suite` build it.

See ``docs/simulation.md`` for how the engines execute these schedules.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from math import isqrt

import numpy as np

from repro.core.universe import Universe
from repro.exceptions import SimulationError
from repro.percolation.lattice import TriangularGrid
from repro.percolation.site import sample_open_vertices
from repro.simulation.events import LatencyModel, LinkFaults, TimingScenario
from repro.simulation.faults import FaultInjector, FaultScenario

__all__ = [
    "BYZANTINE_MODELS",
    "TimingScenario",
    "WorkloadScenario",
    "blast_radius_scenario",
    "byzantine_scenario",
    "churn_scenario",
    "correlated_failure_scenario",
    "crash_recover_scenario",
    "crash_scenario",
    "fault_free_scenario",
    "flaky_links_scenario",
    "lattice_embedding",
    "partition_scenario",
    "percolation_scenario",
    "random_crash_scenario",
    "scenario_suite",
    "slow_server_scenario",
    "timing_scenario_suite",
]

#: Byzantine vouching models understood by the scenario engine.
BYZANTINE_MODELS = frozenset({"fabricate", "equivocate"})


@dataclass(frozen=True)
class WorkloadScenario:
    """A phased fault schedule plus the Byzantine vouching model.

    Attributes
    ----------
    name:
        Human-readable label used in tables and reports.
    phases:
        The fault state active during each phase, in order.
    phase_fractions:
        Fraction of the workload's operations spent in each phase; must be
        positive and sum to 1.
    byzantine_model:
        ``"fabricate"`` (all Byzantine servers vouch for one forged pair) or
        ``"equivocate"`` (they split into two camps with conflicting forged
        pairs).  Irrelevant when no phase has Byzantine servers.
    """

    name: str
    phases: tuple[FaultScenario, ...]
    phase_fractions: tuple[float, ...] = ()
    byzantine_model: str = "fabricate"

    def __post_init__(self):
        if not self.phases:
            raise SimulationError("a workload scenario needs at least one phase")
        fractions = self.phase_fractions
        if not fractions:
            fractions = tuple(1.0 / len(self.phases) for _ in self.phases)
            object.__setattr__(self, "phase_fractions", fractions)
        if len(fractions) != len(self.phases):
            raise SimulationError(
                f"{len(self.phases)} phases but {len(fractions)} phase fractions"
            )
        if any(fraction <= 0.0 for fraction in fractions):
            raise SimulationError("phase fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise SimulationError(f"phase fractions sum to {sum(fractions)}, expected 1")
        if self.byzantine_model not in BYZANTINE_MODELS:
            raise SimulationError(
                f"unknown Byzantine model {self.byzantine_model!r}; "
                f"choose one of {sorted(BYZANTINE_MODELS)}"
            )

    @classmethod
    def from_fault_scenario(
        cls,
        scenario: FaultScenario,
        *,
        name: str = "static",
        byzantine_model: str = "fabricate",
    ) -> "WorkloadScenario":
        """Wrap a static :class:`FaultScenario` as a one-phase schedule."""
        return cls(
            name=name,
            phases=(scenario,),
            phase_fractions=(1.0,),
            byzantine_model=byzantine_model,
        )

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def max_byzantine(self) -> int:
        """The largest Byzantine count over all phases (checked against ``b``)."""
        return max(phase.num_byzantine for phase in self.phases)

    def validate_against(self, universe: Universe) -> None:
        """Check that every phase only mentions servers of ``universe``."""
        universe_set = universe.as_frozenset()
        for index, phase in enumerate(self.phases):
            unknown = (phase.byzantine | phase.crashed) - universe_set
            if unknown:
                raise SimulationError(
                    f"phase {index} of scenario {self.name!r} mentions servers "
                    f"outside the universe: {sorted(unknown, key=repr)[:4]}"
                )

    def phase_of_operations(self, num_operations: int) -> np.ndarray:
        """Map operation indices ``0..num_operations-1`` to phase indices.

        Phase boundaries are the cumulative phase fractions rounded down to
        operation counts; every phase is guaranteed at least the operations
        its fraction rounds to, and the final phase absorbs the remainder.
        """
        if num_operations <= 0:
            raise SimulationError(
                f"num_operations must be positive, got {num_operations}"
            )
        boundaries = np.floor(
            np.cumsum(self.phase_fractions) * num_operations
        ).astype(np.int64)
        boundaries[-1] = num_operations
        return np.searchsorted(boundaries, np.arange(num_operations), side="right")

    def __repr__(self) -> str:
        return (
            f"WorkloadScenario(name={self.name!r}, phases={self.num_phases}, "
            f"byzantine_model={self.byzantine_model!r})"
        )


def fault_free_scenario() -> WorkloadScenario:
    """The scenario with no faults at all."""
    return WorkloadScenario.from_fault_scenario(
        FaultScenario.fault_free(), name="fault-free"
    )


def crash_scenario(
    universe: Universe, crashed: Iterable[Hashable], *, name: str = "crash"
) -> WorkloadScenario:
    """A static scenario in which the given servers are crashed throughout."""
    crashed_set = universe.subset(crashed)
    return WorkloadScenario.from_fault_scenario(
        FaultScenario(crashed=crashed_set), name=name
    )


def random_crash_scenario(
    universe: Universe,
    p: float,
    rng: np.random.Generator,
    *,
    byzantine: Iterable[Hashable] = (),
    name: str = "iid-crash",
) -> WorkloadScenario:
    """Each server crashed independently with probability ``p`` (Definition 3.10)."""
    injector = FaultInjector(universe, rng)
    return WorkloadScenario.from_fault_scenario(
        injector.independent_crashes(p, byzantine=byzantine), name=name
    )


def byzantine_scenario(
    universe: Universe,
    byzantine: Iterable[Hashable],
    *,
    model: str = "fabricate",
    crashed: Iterable[Hashable] = (),
    name: str | None = None,
) -> WorkloadScenario:
    """A static scenario with lying servers (and optionally some crashed ones)."""
    byzantine_set = universe.subset(byzantine)
    crashed_set = universe.subset(crashed)
    return WorkloadScenario.from_fault_scenario(
        FaultScenario(byzantine=byzantine_set, crashed=crashed_set),
        name=name if name is not None else f"byzantine-{model}",
        byzantine_model=model,
    )


def correlated_failure_scenario(
    universe: Universe,
    groups: Sequence[Iterable[Hashable]],
    failed_groups: Iterable[int],
    *,
    name: str = "correlated",
) -> WorkloadScenario:
    """Whole failure domains crash together.

    Parameters
    ----------
    groups:
        A partition (or any covering) of the universe into failure domains —
        racks, availability zones, switches.
    failed_groups:
        Indices into ``groups``; every server of each selected group crashes.
    """
    failed = set()
    group_list = [universe.subset(group) for group in groups]
    for index in failed_groups:
        if not 0 <= index < len(group_list):
            raise SimulationError(
                f"failed group index {index} out of range for {len(group_list)} groups"
            )
        failed |= group_list[index]
    return WorkloadScenario.from_fault_scenario(
        FaultScenario(crashed=frozenset(failed)), name=name
    )


def partition_scenario(
    universe: Universe, reachable: Iterable[Hashable], *, name: str = "partition"
) -> WorkloadScenario:
    """Clients can only reach one side of a network partition.

    Servers outside ``reachable`` are unreachable from the clients'
    partition, which the untimed engine cannot distinguish from a crash;
    quorums fully inside the reachable block keep the service alive.
    """
    reachable_set = universe.subset(reachable)
    if not reachable_set:
        raise SimulationError("the clients' partition must reach at least one server")
    unreachable = universe.as_frozenset() - reachable_set
    return WorkloadScenario.from_fault_scenario(
        FaultScenario(crashed=unreachable), name=name
    )


def churn_scenario(
    universe: Universe,
    crash_sets: Sequence[Iterable[Hashable]],
    *,
    phase_fractions: Sequence[float] | None = None,
    byzantine: Iterable[Hashable] = (),
    name: str = "churn",
) -> WorkloadScenario:
    """Time-varying crashes: a different crash set in each phase.

    This toggles *responsiveness* of a fixed universe only: the membership
    never changes, crashed servers remain members (rolling restarts,
    flapping links) and may answer again in a later phase, while an optional
    fixed Byzantine set keeps lying throughout.  Actual membership change —
    servers joining or being severed mid-run, with quorum thresholds
    recomputed per epoch — is the job of the ``reconfig-*`` scenarios built
    on :class:`repro.simulation.reconfig.MembershipTimeline`; see
    ``docs/membership.md``.
    """
    if not crash_sets:
        raise SimulationError("churn needs at least one phase of crashes")
    byzantine_set = universe.subset(byzantine)
    phases = tuple(
        FaultScenario(byzantine=byzantine_set, crashed=universe.subset(crashed))
        for crashed in crash_sets
    )
    fractions = tuple(phase_fractions) if phase_fractions is not None else ()
    return WorkloadScenario(name=name, phases=phases, phase_fractions=fractions)


def lattice_embedding(universe: Universe) -> tuple[TriangularGrid, dict]:
    """Embed a square universe into the triangulated lattice of Section 7.

    Returns a :class:`~repro.percolation.lattice.TriangularGrid` of side
    ``sqrt(n)`` and a map from lattice vertices to universe elements, pairing
    both in enumeration order.  The six-neighbour adjacency of the lattice
    becomes a physical-locality model for the deployment — nearby servers
    share racks, switches and power — which is what lets site-percolation
    draws act as correlated fault scenarios on any square universe (the
    M-Path universe *is* the lattice, so there the embedding is the
    identity).
    """
    side = isqrt(universe.size)
    if side * side != universe.size or side < 2:
        raise SimulationError(
            "percolation fault models need a square universe of side >= 2, "
            f"got n={universe.size}"
        )
    grid = TriangularGrid(side)
    return grid, dict(zip(grid.vertices(), universe.elements))


def percolation_scenario(
    universe: Universe,
    *,
    p_closed: float,
    rng: np.random.Generator,
    phases: int = 8,
    name: str = "percolation",
) -> WorkloadScenario:
    """Correlated-failure phases drawn from site percolation on the lattice.

    Each phase is one independent site-percolation sample at closure
    probability ``p_closed``: closed vertices crash for the phase, open ones
    stay up.  Because sites close independently, each phase is exactly one
    trial of the Definition 3.10 crash model — the fraction of phases in
    which no quorum survives is a Monte-Carlo estimate of ``Fp``, which is
    what :func:`repro.analysis.conformance.availability_conformance` checks
    against the closed forms of :mod:`repro.core.analytic`.
    """
    if phases < 1:
        raise SimulationError(f"phases must be >= 1, got {phases}")
    grid, vertex_to_server = lattice_embedding(universe)
    states = []
    for _ in range(phases):
        open_vertices = sample_open_vertices(grid, p_closed, rng)
        crashed = frozenset(
            server
            for vertex, server in vertex_to_server.items()
            if vertex not in open_vertices
        )
        states.append(FaultScenario(crashed=crashed))
    return WorkloadScenario(name=name, phases=tuple(states))


def _lattice_ball(grid: TriangularGrid, centre, radius: int) -> set:
    """All vertices within ``radius`` lattice hops of ``centre``."""
    ball = {centre}
    frontier = {centre}
    for _ in range(radius):
        frontier = {
            neighbour
            for vertex in frontier
            for neighbour in grid.neighbours(vertex)
        } - ball
        ball |= frontier
    return ball


def blast_radius_scenario(
    universe: Universe,
    *,
    rng: np.random.Generator,
    radius: int = 1,
    blasts: int = 1,
    phases: int = 6,
    name: str = "blast-radius",
) -> WorkloadScenario:
    """Rack/zone blast radius: whole lattice neighbourhoods down per phase.

    Each phase picks ``blasts`` random epicentres on the lattice embedding
    and crashes every server within ``radius`` hops — the failure geometry
    of a dead rack or switch, where the damage is spatially contiguous
    rather than independent.  The counterpart of
    :func:`correlated_failure_scenario` with lattice locality instead of
    explicit domain lists.
    """
    if radius < 0:
        raise SimulationError(f"radius must be >= 0, got {radius}")
    if blasts < 1:
        raise SimulationError(f"blasts must be >= 1, got {blasts}")
    if phases < 1:
        raise SimulationError(f"phases must be >= 1, got {phases}")
    grid, vertex_to_server = lattice_embedding(universe)
    vertices = list(grid.vertices())
    if blasts > len(vertices):
        raise SimulationError(
            f"cannot place {blasts} blasts on {len(vertices)} vertices"
        )
    states = []
    for _ in range(phases):
        epicentres = rng.choice(len(vertices), size=blasts, replace=False)
        crashed: set = set()
        for index in epicentres:
            for vertex in _lattice_ball(grid, vertices[int(index)], radius):
                crashed.add(vertex_to_server[vertex])
        states.append(FaultScenario(crashed=frozenset(crashed)))
    return WorkloadScenario(name=name, phases=tuple(states))


def slow_server_scenario(
    universe: Universe,
    slow: dict,
    *,
    latency: LatencyModel | None = None,
    byzantine: Iterable[Hashable] = (),
    name: str = "slow-servers",
) -> TimingScenario:
    """Slow-but-correct servers: service times stretched by per-server factors.

    Slow servers answer honestly but late; clients with tight request
    timeouts suspect them and steer away, trading their capacity for
    latency — a timing fault no untimed layer can express.
    """
    unknown = frozenset(slow) - universe.as_frozenset()
    if unknown:
        raise SimulationError(
            f"slow servers outside the universe: {sorted(unknown, key=repr)[:4]}"
        )
    state = FaultScenario(byzantine=universe.subset(byzantine), slow=dict(slow))
    return TimingScenario.static(
        state,
        name=name,
        latency=latency if latency is not None else LatencyModel.uniform(1.0, 0.5),
    )


def flaky_links_scenario(
    *,
    loss: float = 0.05,
    duplication: float = 0.02,
    latency: LatencyModel | None = None,
    byzantine: Iterable[Hashable] = (),
    universe: Universe | None = None,
    name: str = "flaky-links",
) -> TimingScenario:
    """Lossy, duplicating, reordering links between correct servers.

    Lost requests are indistinguishable from crashes (the timeout fires);
    lost replies waste server work; duplicated requests exercise handler
    idempotence; jittered latencies reorder messages in flight.
    """
    byzantine_set = (
        universe.subset(byzantine) if universe is not None else frozenset(byzantine)
    )
    return TimingScenario.static(
        FaultScenario(byzantine=byzantine_set),
        name=name,
        latency=latency if latency is not None else LatencyModel.uniform(1.0, 1.0),
        link_faults=LinkFaults(loss=loss, duplication=duplication),
    )


def crash_recover_scenario(
    universe: Universe,
    crashed: Iterable[Hashable],
    *,
    down_at: float,
    up_at: float,
    latency: LatencyModel | None = None,
    byzantine: Iterable[Hashable] = (),
    name: str = "crash-recover",
) -> TimingScenario:
    """Servers crash at ``down_at`` and recover at ``up_at`` — mid-operation.

    Requests already in flight when the crash lands find the server dead on
    arrival; operations spanning the recovery see it come back.  This is the
    timed counterpart of :func:`churn_scenario`.
    """
    if not 0.0 <= down_at < up_at:
        raise SimulationError(
            f"need 0 <= down_at < up_at, got down_at={down_at}, up_at={up_at}"
        )
    byzantine_set = universe.subset(byzantine)
    crashed_set = universe.subset(crashed)
    healthy = FaultScenario(byzantine=byzantine_set)
    degraded = FaultScenario(byzantine=byzantine_set, crashed=crashed_set)
    return TimingScenario(
        name=name,
        transitions=((0.0, healthy), (down_at, degraded), (up_at, healthy)),
        latency=latency if latency is not None else LatencyModel.uniform(1.0, 0.5),
    )


def timing_scenario_suite(
    universe: Universe,
    *,
    b: int,
    rng: np.random.Generator,
    latency: LatencyModel | None = None,
) -> list[TimingScenario]:
    """One representative instance of each timing-fault class.

    Mirrors :func:`scenario_suite` for the event-driven layer: slow servers,
    flaky links, a mid-run crash/recover window, and (when ``b > 0``) slow
    servers combined with ``b`` Byzantine ones — the hybrid the paper's
    asynchronous-but-responsive model actually allows.
    """
    latency = latency if latency is not None else LatencyModel.uniform(1.0, 0.5)
    injector = FaultInjector(universe, rng)
    elements = universe.elements
    slow_count = max(1, universe.size // 10)
    slow_map = {server_id: 4.0 for server_id in elements[:slow_count]}

    suite = [
        TimingScenario.static(
            FaultScenario.fault_free(), name="timed-fault-free", latency=latency
        ),
        slow_server_scenario(universe, slow_map, latency=latency),
        flaky_links_scenario(latency=latency),
        crash_recover_scenario(
            universe, elements[: max(1, universe.size // 4)], down_at=10.0, up_at=40.0,
            latency=latency,
        ),
    ]
    if b > 0:
        byz = injector.exact(num_byzantine=b).byzantine
        suite.append(
            slow_server_scenario(
                universe, slow_map, byzantine=byz, latency=latency,
                name="slow-plus-byzantine",
            )
        )
    return suite


def _failure_domains(universe: Universe) -> list[tuple[Hashable, ...]]:
    """Group the universe into failure domains for the default suite.

    Grid-style universes of ``(row, column)`` tuples are grouped by row;
    anything else is chopped into ``~sqrt(n)`` contiguous chunks in universe
    order.
    """
    elements = universe.elements
    if all(isinstance(element, tuple) and len(element) == 2 for element in elements):
        rows: dict[Hashable, list[Hashable]] = {}
        for element in elements:
            rows.setdefault(element[0], []).append(element)
        return [tuple(group) for group in rows.values()]
    chunk = max(1, int(round(len(elements) ** 0.5)))
    return [tuple(elements[start : start + chunk]) for start in range(0, len(elements), chunk)]


def scenario_suite(
    universe: Universe,
    *,
    b: int,
    rng: np.random.Generator,
    crash_probability: float = 0.1,
) -> list[WorkloadScenario]:
    """One representative instance of every scenario class.

    Parameters
    ----------
    universe:
        The servers of the deployment.
    b:
        The masking parameter; Byzantine scenarios use exactly ``b`` liars so
        the suite stays within the deployment's masking bound.
    rng:
        Randomness for the crash draws and fault placements.
    crash_probability:
        Per-server crash probability of the iid-crash scenario.
    """
    injector = FaultInjector(universe, rng)
    elements = universe.elements
    n = universe.size
    domains = _failure_domains(universe)

    suite = [fault_free_scenario()]
    suite.append(
        WorkloadScenario.from_fault_scenario(
            injector.independent_crashes(crash_probability), name="iid-crash"
        )
    )
    if b > 0:
        byz = injector.exact(num_byzantine=b).byzantine
        suite.append(byzantine_scenario(universe, byz, model="fabricate"))
        suite.append(byzantine_scenario(universe, byz, model="equivocate"))
    suite.append(
        correlated_failure_scenario(universe, domains, [0], name="rack-failure")
    )
    suite.append(
        partition_scenario(universe, elements[: max(1, (3 * n) // 4)], name="partition")
    )
    third = max(1, n // 3)
    suite.append(
        churn_scenario(
            universe,
            [elements[:third], elements[third : 2 * third], elements[2 * third : 2 * third + third]],
            name="churn",
        )
    )
    return suite
