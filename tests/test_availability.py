"""Unit tests for the crash probability Fp (Definition 3.10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ComputationError,
    ExplicitQuorumSystem,
    MGrid,
    RecursiveThreshold,
    exact_failure_probability,
    masking_threshold,
    monte_carlo_failure_probability,
)
from repro.api import build, measure
from repro.core import availability
from repro.core.availability import (
    inclusion_exclusion_failure_probability,
    is_condorcet_sequence,
)


class TestExactEnumeration:
    def test_singleton(self, singleton_system):
        # The single quorum {0} dies exactly when server 0 dies.
        assert exact_failure_probability(singleton_system, 0.3).value == pytest.approx(0.3)

    def test_two_disjoint_singletons(self):
        system = ExplicitQuorumSystem(range(2), [{0, 1}], name="pair")
        # Quorum {0,1} dies when either server dies: 1 - (1-p)^2.
        value = exact_failure_probability(system, 0.2).value
        assert value == pytest.approx(1 - 0.8 ** 2)

    def test_majority_matches_binomial_tail(self, majority_5):
        p = 0.2
        value = exact_failure_probability(majority_5.to_explicit(), p).value
        assert value == pytest.approx(majority_5.crash_probability(p), abs=1e-12)

    def test_boundary_probabilities(self, majority_5):
        explicit = majority_5.to_explicit()
        assert exact_failure_probability(explicit, 0.0).value == pytest.approx(0.0)
        assert exact_failure_probability(explicit, 1.0).value == pytest.approx(1.0)

    def test_rejects_invalid_probability(self, majority_5):
        with pytest.raises(ComputationError):
            exact_failure_probability(majority_5.to_explicit(), 1.5)

    def test_refuses_large_universe(self, mgrid_7_3):
        with pytest.raises(ComputationError):
            exact_failure_probability(mgrid_7_3.to_explicit(), 0.1)


class TestInclusionExclusion:
    def test_agrees_with_enumeration(self, simple_system, fpp_order2):
        for system in (simple_system, fpp_order2):
            for p in (0.1, 0.4, 0.75):
                by_configs = exact_failure_probability(system, p).value
                by_quorums = inclusion_exclusion_failure_probability(system, p).value
                assert by_quorums == pytest.approx(by_configs, abs=1e-9)

    def test_refuses_many_quorums(self, threshold_9_7):
        with pytest.raises(ComputationError):
            inclusion_exclusion_failure_probability(threshold_9_7, 0.1)


class TestMonteCarlo:
    def test_close_to_exact(self, majority_5, rng):
        p = 0.3
        exact_value = majority_5.crash_probability(p)
        estimate = monte_carlo_failure_probability(
            majority_5, p, trials=20_000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= exact_value <= high

    def test_zero_probability_never_fails(self, majority_5, rng):
        estimate = monte_carlo_failure_probability(majority_5, 0.0, trials=500, rng=rng)
        assert estimate.value == 0.0

    def test_invalid_trials_rejected(self, majority_5, rng):
        with pytest.raises(ComputationError):
            monte_carlo_failure_probability(majority_5, 0.1, trials=0, rng=rng)

    def test_estimate_does_not_depend_on_the_batch_split(self, fpp_order2, monkeypatch):
        # The draw fills row-major, so 143 batches of 7 trials (with a ragged
        # last one), 1-trial batches and one batch of 1000 read the same stream.
        estimates = []
        for elements in (7 * fpp_order2.n, 1, 1 << 22):
            monkeypatch.setattr(availability, "_BATCH_ELEMENTS", elements)
            estimates.append(
                monte_carlo_failure_probability(
                    fpp_order2, 0.3, trials=1000, rng=np.random.default_rng(11)
                )
            )
        assert estimates[0] == estimates[1] == estimates[2]
        assert 0.0 < estimates[0].value < 1.0


class TestDispatch:
    """The Fp ladder lives in ``api.measure``."""

    def test_auto_uses_analytic_when_available(self, majority_5):
        result = measure(majority_5, "fp", p=0.2)
        assert result.method_used == "analytic"
        assert result.value == pytest.approx(majority_5.crash_probability(0.2))

    def test_auto_uses_exact_for_small_explicit_systems(self, simple_system):
        result = measure(simple_system, "fp", p=0.2)
        assert result.method_used == "enumeration"
        assert result.error_bound == 0.0
        assert result.value == exact_failure_probability(simple_system, 0.2).value

    def test_explicit_method_selection(self, simple_system):
        assert measure(simple_system, "fp", p=0.2, method="exact").method_used == "enumeration"
        assert measure(simple_system, "fp", p=0.2, method="sampled").method_used == "monte-carlo"

    def test_analytic_method_requires_closed_form(self):
        # Tree(depth=4): 31 servers, no closed form, too big for the generic
        # exact fallbacks — the forced closed-form path must refuse.
        with pytest.raises(ComputationError):
            measure(build("tree", depth=4), "fp", p=0.2, method="analytic")

    def test_unknown_method_rejected(self, simple_system):
        with pytest.raises(ComputationError):
            measure(simple_system, "fp", p=0.2, method="magic")


class TestMonotonicityAndCondorcet:
    def test_fp_monotone_in_p(self, majority_5):
        values = [majority_5.crash_probability(p) for p in (0.05, 0.1, 0.2, 0.4, 0.6)]
        assert values == sorted(values)

    def test_condorcet_trend_for_majorities(self):
        from repro import majority

        values = [majority(n).crash_probability(0.2) for n in (3, 7, 11, 15, 19)]
        assert is_condorcet_sequence(values)

    def test_anti_condorcet_trend_detected(self):
        assert not is_condorcet_sequence([0.1, 0.2, 0.4, 0.8])

    def test_condorcet_needs_two_points(self):
        with pytest.raises(ComputationError):
            is_condorcet_sequence([0.5])

    def test_masking_threshold_families_are_condorcet(self):
        """Fp -> 0 for p < 1/2 and -> 1 for p > 1/2 as the universe grows."""
        sizes = (9, 25, 49, 81, 121)
        below = [masking_threshold(n, 1).crash_probability(0.35) for n in sizes]
        above = [masking_threshold(n, 1).crash_probability(0.65) for n in sizes]
        assert below == sorted(below, reverse=True)
        assert below[-1] < 0.05
        assert above == sorted(above)
        assert above[-1] > 0.95


def test_monte_carlo_agrees_with_exact_enumeration_on_small_systems():
    """Ablation: the Monte-Carlo Fp brackets the exact value within 4 sigma."""
    rng = np.random.default_rng(20240614)
    systems = (masking_threshold(13, 3), RecursiveThreshold(4, 3, 2), MGrid(4, 1).to_explicit())
    for system in systems:
        estimate = monte_carlo_failure_probability(system, 0.2, trials=20_000, rng=rng)
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= exact_failure_probability(system, 0.2).value <= high, system.name
