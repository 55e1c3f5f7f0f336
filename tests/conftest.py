"""Shared fixtures for the test-suite.

Fixtures build small, fully enumerable instances of every construction so
that analytic values can be cross-checked against exhaustive computation, and
a deterministic random generator so that Monte-Carlo assertions are stable.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import (
    BoostedFPP,
    ExplicitQuorumSystem,
    FiniteProjectivePlane,
    MGrid,
    MPath,
    MaskingGrid,
    RecursiveThreshold,
    RegularGrid,
    ThresholdQuorumSystem,
    majority,
    masking_threshold,
)
from repro.simulation import FaultScenario, TimingScenario
from repro.simulation.runner import EventStack


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator shared by stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def python_calls():
    """``python_calls(fn)`` runs ``fn()`` and returns ``(calls, result)``.

    ``calls`` counts Python-level function calls (``sys.setprofile``'s
    ``"call"`` events; C functions are not counted): an integer cost that
    does not depend on how busy the machine is.
    """

    def run(fn):
        calls = 0

        def count(_frame, event, _arg) -> None:
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = fn()
        finally:
            sys.setprofile(previous)
        return calls, result

    return run


@pytest.fixture
def event_register():
    """``event_register(system, scenario, b=..., rng=..., **options)`` builds
    the zero-latency event stack (replicas, network, ``num_clients`` clients)
    the protocol-step tests drive; ``behaviour`` names the Byzantine lie."""

    def build(
        system,
        scenario=None,
        *,
        b,
        rng,
        behaviour="fabricate-timestamp",
        num_clients=1,
        max_attempts=10,
        initial_pair=None,
        allow_overload=False,
    ):
        return EventStack(
            system,
            TimingScenario.static(
                scenario if scenario is not None else FaultScenario.fault_free(),
                byzantine_behaviour=behaviour,
            ),
            b=b,
            num_clients=num_clients,
            max_attempts=max_attempts,
            request_timeout=None,
            strategy=None,
            initial_pair=initial_pair,
            rng=rng,
            allow_overload=allow_overload,
        )

    return build


@pytest.fixture
def complete():
    """``complete(client.write, value)`` / ``complete(client.read)`` runs one
    operation of an event-driven client to its result.

    The client's scheduler is run to quiescence, so at zero latency each
    operation finishes before the next one starts: a blocking register.
    """

    def run(start, *args):
        results = []
        start(*args, results.append)
        start.__self__.network.scheduler.run()
        (result,) = results
        return result

    return run


@pytest.fixture
def simple_system() -> ExplicitQuorumSystem:
    """A tiny hand-written quorum system used by the core-model tests.

    Universe {0..4}; quorums are the three 3-subsets {0,1,2}, {1,2,3},
    {2,3,4} — every pair intersects (element 2 is in all of them).
    """
    return ExplicitQuorumSystem(
        range(5),
        [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}],
        name="simple",
    )


@pytest.fixture
def singleton_system() -> ExplicitQuorumSystem:
    """The degenerate system with a single one-element quorum."""
    return ExplicitQuorumSystem([0, 1], [{0}], name="singleton")


@pytest.fixture
def majority_5() -> ThresholdQuorumSystem:
    """Majority over five servers (3-of-5)."""
    return majority(5)


@pytest.fixture
def threshold_9_7() -> ThresholdQuorumSystem:
    """The 7-of-9 threshold system (a 2-masking threshold)."""
    return ThresholdQuorumSystem(9, 7)


@pytest.fixture
def mr98_threshold() -> ThresholdQuorumSystem:
    """The [MR98a] Threshold baseline over 13 servers masking b = 3."""
    return masking_threshold(13, 3)


@pytest.fixture
def mgrid_7_3() -> MGrid:
    """The Figure 1 instance: M-Grid over a 7x7 grid masking b = 3."""
    return MGrid(7, 3)


@pytest.fixture
def masking_grid_9_2() -> MaskingGrid:
    """The [MR98a] Grid baseline over a 9x9 grid masking b = 2."""
    return MaskingGrid(9, 2)


@pytest.fixture
def regular_grid_4() -> RegularGrid:
    """The Maekawa grid over a 4x4 universe."""
    return RegularGrid(4)


@pytest.fixture
def rt_4_3_depth2() -> RecursiveThreshold:
    """The Figure 2 instance: RT(4,3) of depth 2 (16 servers)."""
    return RecursiveThreshold(4, 3, 2)


@pytest.fixture
def fpp_order2() -> FiniteProjectivePlane:
    """The Fano plane (PG(2,2)) as a quorum system."""
    return FiniteProjectivePlane(2)


@pytest.fixture
def fpp_order3() -> FiniteProjectivePlane:
    """PG(2,3) as a quorum system (13 points)."""
    return FiniteProjectivePlane(3)


@pytest.fixture
def boost_fpp_small() -> BoostedFPP:
    """boostFPP(q=2, b=1): the Fano plane over 4-of-5 threshold blocks (35 servers)."""
    return BoostedFPP(2, 1)


@pytest.fixture
def snake_40() -> set:
    """Open vertices of a 40 x 40 lattice whose only LR crossing visits all 820 of them.

    Odd columns are fully open, even columns open at alternating ends, so the
    crossing is longer than the interpreter's recursion limit; 20 disjoint TB
    crossings (the odd columns) exist.
    """
    side = 40
    open_vertices = {(i, j) for i in range(1, side + 1, 2) for j in range(1, side + 1)}
    open_vertices |= {(i, side if (i // 2) % 2 else 1) for i in range(2, side + 1, 2)}
    return open_vertices


@pytest.fixture
def mpath_5_2() -> MPath:
    """M-Path over a 5x5 triangulated grid masking b = 2."""
    return MPath(5, 2)


@pytest.fixture
def mpath_9_4() -> MPath:
    """The Figure 3 instance: M-Path over a 9x9 grid masking b = 4."""
    return MPath(9, 4)
