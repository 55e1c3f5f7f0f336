"""Unit tests for the load measure (Definition 3.8, Proposition 3.9)."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro import (
    ComputationError,
    CrumblingWall,
    ExplicitQuorumSystem,
    Strategy,
    exact_load,
    fair_load,
    load_of_strategy,
)
from repro.api import build, measure

#: The enumerable systems of the bench's measure sweep (M-Path refuses).
SWEEP_FAMILIES = (
    ("mgrid", {"n": 49, "b": 3}),
    ("mgrid", {"n": 16, "b": 1}),
    ("grid", {"n": 49}),
    ("threshold", {"n": 13, "b": 3}),
    ("fpp", {"q": 3}),
    ("boostfpp", {"q": 3, "b": 1}),
    ("rt", {"k": 4, "l": 3, "depth": 2}),
    ("majority", {"n": 11}),
)


def _non_fair_systems():
    return [CrumblingWall([1, 3, 5, 7]), build("tree", depth=3), build("wheel", n=13)]


def _reference_lp_load(system) -> float:
    """The load LP solved from the frozenset quorum list, independently."""
    quorums = system.quorums()
    incidence = np.zeros((len(quorums), system.n))
    for row, quorum in enumerate(quorums):
        for element in quorum:
            incidence[row, system.universe.index_of(element)] = 1.0
    m, n = incidence.shape
    result = optimize.linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=np.hstack([incidence.T, -np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.r_[np.ones(m), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(0.0, 1.0)],
        method="highs",
    )
    assert result.success
    return float(result.x[-1])


def _dual_bound(system, element_weights) -> float:
    """``min_Q y(Q)``: the lower bound the element weights certify."""
    incidence = system.bitset_engine().incidence_matrix()
    return float((incidence @ np.asarray(element_weights)).min())


@st.composite
def small_families(draw):
    """Small intersecting families: cyclic shifts of one set (fair) or any
    list of majority-sized sets (usually not fair)."""
    n = draw(st.integers(3, 7))
    size = st.integers(n // 2 + 1, n)
    if draw(st.booleans()):
        base = draw(st.sets(st.integers(0, n - 1), min_size=n // 2 + 1))
        quorums = [{(element + shift) % n for element in base} for shift in range(n)]
    else:
        subsets = size.flatmap(
            lambda k: st.sampled_from(list(itertools.combinations(range(n), k)))
        )
        quorums = draw(st.lists(subsets, min_size=1, max_size=8))
    return ExplicitQuorumSystem(range(n), quorums)


class TestExactLoadLP:
    def test_majority_load(self, majority_5):
        # Fair system: L = c/n = 3/5.
        result = exact_load(majority_5)
        assert result.load == pytest.approx(0.6, abs=1e-6)
        assert result.method == "fair"

    def test_singleton_load_is_one(self, singleton_system):
        assert exact_load(singleton_system).load == pytest.approx(1.0)

    def test_simple_system_load(self, simple_system):
        # The middle element 2 is in every quorum, so its load is 1 under any
        # strategy; the LP cannot do better.
        assert exact_load(simple_system).load == pytest.approx(1.0)

    def test_lp_strategy_achieves_reported_load(self, majority_5):
        result = exact_load(majority_5)
        induced = load_of_strategy(majority_5, result.strategy)
        assert induced == pytest.approx(result.load, abs=1e-6)

    def test_lp_matches_fair_formula_on_fair_systems(self, threshold_9_7, fpp_order2):
        for system in (threshold_9_7, fpp_order2):
            lp_value = exact_load(system).load
            assert lp_value == pytest.approx(system.min_quorum_size() / system.n, abs=1e-6)

    def test_grid_load_lp(self, regular_grid_4):
        # Maekawa grid is fair: L = (2*4 - 1)/16.
        assert exact_load(regular_grid_4).load == pytest.approx(7 / 16, abs=1e-6)

    def test_non_fair_system_can_beat_uniform(self):
        # Wheel-like system: quorums {0, i} for spokes plus the rim {1, 2, 3}.
        system = ExplicitQuorumSystem(
            range(4), [{0, 1}, {0, 2}, {0, 3}, {1, 2, 3}], name="wheel"
        )
        uniform = Strategy.uniform_over_system(system)
        lp = exact_load(system)
        assert lp.load < uniform.induced_system_load(system.universe)
        # Optimal split: 0.6 total weight on the spokes, 0.4 on the rim.
        assert lp.load == pytest.approx(0.6, abs=1e-6)


class TestCertificate:
    """``exact_load`` answers with a primal-dual pair that meets."""

    @pytest.mark.parametrize(
        "construction, params", SWEEP_FAMILIES, ids=[f"{c}{tuple(p.values())}" for c, p in SWEEP_FAMILIES]
    )
    def test_fair_families_close_without_a_solver(self, monkeypatch, construction, params):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called on a fair family")

        monkeypatch.setattr(optimize, "linprog", refuse)
        system = build(construction, **params)
        result = exact_load(system)
        assert result.method == "fair"
        assert result.load == system.min_quorum_size() / system.n
        assert result.element_weights == (1.0 / system.n,) * system.n
        assert load_of_strategy(system, result.strategy) == pytest.approx(result.load, abs=1e-12)

    @pytest.mark.parametrize("system", _non_fair_systems(), ids=lambda s: s.name)
    def test_non_fair_families_are_solved_and_checked_against_the_dual(
        self, monkeypatch, system
    ):
        calls = []
        real_linprog = optimize.linprog

        def spy(*args, **kwargs):
            calls.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", spy)
        result = exact_load(system)
        assert calls == [1]
        assert result.method == "lp"
        assert sum(result.element_weights) == pytest.approx(1.0, abs=1e-12)
        assert min(result.element_weights) >= 0.0
        assert _dual_bound(system, result.element_weights) == pytest.approx(result.load, abs=1e-9)
        assert load_of_strategy(system, result.strategy) == pytest.approx(result.load, abs=1e-9)

    @given(system=small_families())
    @settings(max_examples=60, deadline=None)
    def test_certificate_matches_an_independent_solve(self, system):
        result = exact_load(system)
        assert result.load == pytest.approx(_reference_lp_load(system), abs=1e-9)
        assert load_of_strategy(system, result.strategy) == pytest.approx(result.load, abs=1e-12)
        assert _dual_bound(system, result.element_weights) == pytest.approx(result.load, abs=1e-9)
        assert (result.method == "fair") == (system.fairness() is not None)

    def test_construction_fairness_override_is_never_consulted(self, majority_5):
        def boom():
            raise AssertionError("exact_load consulted fairness()")

        majority_5.fairness = boom
        result = exact_load(majority_5)
        assert (result.load, result.method) == (0.6, "fair")

    def test_a_dual_that_does_not_meet_the_optimum_is_refused(self, monkeypatch):
        real_linprog = optimize.linprog

        def uniform_duals(*args, **kwargs):
            result = real_linprog(*args, **kwargs)
            marginals = np.full_like(result.ineqlin.marginals, -1.0)
            result.ineqlin = SimpleNamespace(marginals=marginals)
            return result

        monkeypatch.setattr(optimize, "linprog", uniform_duals)
        # The wheel is not fair: uniform element weights bound L below by
        # 2/13, far under its optimum 12/23.
        with pytest.raises(ComputationError, match="not certified"):
            exact_load(build("wheel", n=13))


class TestFairLoad:
    def test_fair_load_on_fair_system(self, threshold_9_7):
        result = fair_load(threshold_9_7)
        assert result.load == pytest.approx(7 / 9)
        assert result.method == "fair"

    def test_fair_load_rejects_unfair_system(self, simple_system):
        with pytest.raises(ComputationError):
            fair_load(simple_system)

    def test_fair_load_strategy_is_uniform(self, majority_5):
        result = fair_load(majority_5)
        probabilities = {p for _, p in result.strategy.items()}
        assert len(probabilities) == 1


class TestBestKnownLoad:
    """The load ladder lives in ``api.measure``."""

    def test_prefers_analytic_closed_form(self, mgrid_7_3):
        result = measure(mgrid_7_3, "load")
        assert result.method_used == "analytic"
        assert result.value == pytest.approx(mgrid_7_3.load())

    def test_falls_back_to_fair_formula(self, simple_system, majority_5):
        assert measure(majority_5.to_explicit(), "load").method_used == "fair"
        assert measure(simple_system, "load").method_used == "lp"

    def test_analytic_load_agrees_with_lp_for_mgrid(self, mgrid_7_3):
        lp_value = exact_load(mgrid_7_3).load
        assert lp_value == pytest.approx(mgrid_7_3.load(), abs=1e-6)


class TestLoadOfStrategy:
    def test_matches_induced_system_load(self, majority_5):
        strategy = Strategy.uniform_over_system(majority_5)
        assert load_of_strategy(majority_5, strategy) == pytest.approx(0.6)

    def test_skewed_strategy_overloads_some_server(self, majority_5):
        favourite = majority_5.quorums()[0]
        strategy = Strategy({favourite: 1.0})
        assert load_of_strategy(majority_5, strategy) == pytest.approx(1.0)
