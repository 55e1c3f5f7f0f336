"""Property-based tests (hypothesis) for the core invariants of the paper.

These tests generate random instances — threshold systems, compositions,
random explicit quorum systems, finite fields — and check the structural
theorems on every one of them: Definition 3.1, Lemma 3.6 / Corollary 3.7,
Theorem 4.1, Theorem 4.7, Propositions 4.3-4.5, and the algebraic axioms of
the substrates.
"""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    ExplicitQuorumSystem,
    Strategy,
    ThresholdQuorumSystem,
    compose,
    exact_failure_probability,
    exact_load,
    load_lower_bound,
    masking_report,
)
from repro.core.bitset import mask_to_frozenset
from repro.core.transversal import (
    is_transversal,
    minimal_transversal,
    minimal_transversal_mask,
)
from repro.gf import GaloisField
from repro.simulation import Timestamp

# ----------------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------------

#: (n, k) pairs describing valid threshold quorum systems of modest size.
threshold_parameters = st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=n // 2 + 1, max_value=n))
)


@st.composite
def explicit_quorum_systems(draw):
    """Generate a random quorum system: random sets forced to share a core element.

    Every generated set is augmented with a randomly chosen *core* element so
    that pairwise intersection (Definition 3.1) always holds; beyond that the
    sets are arbitrary, which exercises unfair, irregular systems.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    core = draw(st.integers(min_value=0, max_value=n - 1))
    num_quorums = draw(st.integers(min_value=1, max_value=5))
    quorums = []
    for _ in range(num_quorums):
        members = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        )
        quorums.append(frozenset(members | {core}))
    return ExplicitQuorumSystem(range(n), quorums, name="random")


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
small_probabilities = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


# ----------------------------------------------------------------------------
# Quorum-system invariants.
# ----------------------------------------------------------------------------


class TestThresholdInvariants:
    @given(threshold_parameters)
    @settings(max_examples=30, deadline=None)
    def test_analytic_measures_match_enumeration(self, parameters):
        n, k = parameters
        system = ThresholdQuorumSystem(n, k)
        explicit = system.to_explicit()
        assert explicit.min_quorum_size() == system.min_quorum_size()
        assert explicit.min_intersection_size() == system.min_intersection_size()
        assert explicit.min_transversal_size() == system.min_transversal_size()
        assert explicit.num_quorums() == system.num_quorums()

    @given(threshold_parameters, probabilities)
    @settings(max_examples=30, deadline=None)
    def test_crash_probability_matches_enumeration(self, parameters, p):
        n, k = parameters
        system = ThresholdQuorumSystem(n, k)
        exact = exact_failure_probability(system, p).value
        assert system.crash_probability(p) == pytest.approx(exact, abs=1e-9)

    @given(threshold_parameters)
    @settings(max_examples=20, deadline=None)
    def test_theorem_4_1_load_bound(self, parameters):
        n, k = parameters
        system = ThresholdQuorumSystem(n, k)
        b = system.masking_bound()
        assert system.load() >= load_lower_bound(n, b, quorum_size=k) - 1e-9
        assert system.load() >= load_lower_bound(n, b) - 1e-9


class TestExplicitSystemInvariants:
    @given(explicit_quorum_systems())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_definition_3_1_holds_by_construction(self, system):
        system.validate()

    @given(explicit_quorum_systems())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_minimal_transversal_is_a_transversal(self, system):
        transversal = minimal_transversal(system.quorums())
        assert is_transversal(transversal, system.quorums())
        assert len(transversal) <= system.min_quorum_size()

    @given(explicit_quorum_systems())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_transversal_engines_agree(self, system):
        quorums = system.quorums()
        assert len(minimal_transversal(quorums, engine="milp")) == len(
            minimal_transversal(quorums, engine="branch-and-bound")
        )
        mask = minimal_transversal_mask(system.quorum_masks())
        assert mask.bit_count() == len(minimal_transversal(quorums))
        assert is_transversal(mask_to_frozenset(mask, system.universe), quorums)

    @given(explicit_quorum_systems())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corollary_3_7_agrees_with_literal_masking_check(self, system):
        bound = system.masking_bound()
        assert masking_report(system, bound).is_masking
        assert not masking_report(system, bound + 1).is_masking

    @given(explicit_quorum_systems())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_lp_load_between_bounds(self, system):
        result = exact_load(system)
        # Theorem 4.1 (with b = masking bound) and the trivial upper bound.
        b = system.masking_bound()
        assert result.load <= 1.0 + 1e-9
        assert result.load >= load_lower_bound(system.n, b, system.min_quorum_size()) - 1e-6
        # The optimal strategy achieves the reported load.
        assert result.strategy.induced_system_load(system.universe) == pytest.approx(
            result.load, abs=1e-6
        )

    @given(explicit_quorum_systems(), small_probabilities)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_proposition_4_3_availability_bound(self, system, p):
        failure = exact_failure_probability(system, p).value
        assert failure >= p ** system.min_transversal_size() - 1e-9

    @given(explicit_quorum_systems(), small_probabilities, small_probabilities)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fp_is_monotone_in_p(self, system, p_low, p_high):
        low, high = sorted((p_low, p_high))
        assert (
            exact_failure_probability(system, low).value
            <= exact_failure_probability(system, high).value + 1e-9
        )


class TestCompositionProperties:
    @given(threshold_parameters, threshold_parameters)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_theorem_4_7_parameters(self, outer_parameters, inner_parameters):
        outer = ThresholdQuorumSystem(*outer_parameters)
        inner = ThresholdQuorumSystem(*inner_parameters)
        assume(outer.num_quorums() * inner.num_quorums() ** outer.min_quorum_size() <= 3000)
        composed = compose(outer, inner)
        explicit = composed.to_explicit()
        assert explicit.min_quorum_size() == outer.min_quorum_size() * inner.min_quorum_size()
        assert explicit.min_intersection_size() == (
            outer.min_intersection_size() * inner.min_intersection_size()
        )
        assert explicit.min_transversal_size() == (
            outer.min_transversal_size() * inner.min_transversal_size()
        )

    @given(threshold_parameters, threshold_parameters, small_probabilities)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_theorem_4_7_crash_probability(self, outer_parameters, inner_parameters, p):
        outer = ThresholdQuorumSystem(*outer_parameters)
        inner = ThresholdQuorumSystem(*inner_parameters)
        composed = compose(outer, inner)
        expected = outer.crash_probability(inner.crash_probability(p))
        assert composed.crash_probability(p) == pytest.approx(expected, abs=1e-9)

    @given(threshold_parameters, threshold_parameters)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_theorem_4_7_load(self, outer_parameters, inner_parameters):
        outer = ThresholdQuorumSystem(*outer_parameters)
        inner = ThresholdQuorumSystem(*inner_parameters)
        composed = compose(outer, inner)
        assert composed.load() == pytest.approx(outer.load() * inner.load())


class TestStrategyProperties:
    @given(threshold_parameters)
    @settings(max_examples=20, deadline=None)
    def test_total_induced_load_is_expected_quorum_size(self, parameters):
        n, k = parameters
        system = ThresholdQuorumSystem(n, k)
        strategy = Strategy.uniform_over_system(system)
        loads = strategy.induced_loads(system.universe)
        assert sum(loads.values()) == pytest.approx(k)

    @given(threshold_parameters)
    @settings(max_examples=20, deadline=None)
    def test_any_strategy_load_dominates_lp_load(self, parameters):
        n, k = parameters
        system = ThresholdQuorumSystem(n, k)
        uniform_load = Strategy.uniform_over_system(system).induced_system_load(system.universe)
        assert uniform_load >= exact_load(system).load - 1e-9


# ----------------------------------------------------------------------------
# Substrate invariants.
# ----------------------------------------------------------------------------


class TestFieldProperties:
    @given(
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, order, a, b, c):
        field = GaloisField(order)
        a, b, c = a % order, b % order, c % order
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))

    @given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, order, value):
        field = GaloisField(order)
        value = value % order
        assume(value != 0)
        assert field.mul(value, field.inverse(value)) == 1
        assert field.div(value, value) == 1


class TestTimestampProperties:
    @given(st.integers(0, 10**6), st.integers(0, 100), st.integers(0, 10**6), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_total_order_is_antisymmetric(self, c1, i1, c2, i2):
        first, second = Timestamp(c1, i1), Timestamp(c2, i2)
        assert (first < second) + (second < first) + (first == second) == 1

    @given(st.integers(0, 10**6), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_next_for_is_strictly_increasing(self, counter, owner, successor_owner):
        current = Timestamp(counter, owner)
        assert current.next_for(successor_owner) > current
