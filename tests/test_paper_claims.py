"""Integration tests pinning the paper's concrete numerical claims.

Each test quotes a specific statement from the paper (a table entry, a
worked example, a figure or an in-text calculation) and checks the library
reproduces it: Figures 1-3, the Section 8 worked example and its
``f <= n L(Q)`` trade-off.  Table 2 and the decade sweeps of Sections 4-5 are
regenerated in ``test_analysis.py``; the per-construction sweeps behind
Propositions 4.x-7.x sit beside each construction's own tests
(``test_mgrid.py``, ``test_recursive_threshold.py``, ``test_boost_fpp.py``,
``test_mpath.py``, ``test_composition.py``, ``test_bounds.py``).
Monte-Carlo columns draw from ``np.random.default_rng(20240614)``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BoostedFPP,
    MGrid,
    MPath,
    RecursiveThreshold,
    load_lower_bound,
    masking_threshold,
)
from repro.analysis import section8_comparison, tradeoff_point, verify_tradeoff
from repro.constructions.grid import MaskingGrid, render_grid_quorum

SEED = 20240614


class TestFigures:
    """Figures 1-3: the construction instances the paper draws, one quorum shaded."""

    def test_figure1_mgrid(self):
        # M-Grid on a 7x7 grid with b = 3: one quorum = 2 rows + 2 columns.
        system = MGrid(7, 3)
        quorum = system.sample_quorum(np.random.default_rng(SEED))
        assert system.n == 49
        assert system.k == 2  # sqrt(b+1) rows and columns
        assert system.masking_bound() == 3
        assert len(quorum) == system.min_quorum_size() == 24
        assert render_grid_quorum(7, frozenset(quorum)).count("#") == 24

    def test_figure2_rt43(self):
        # RT(4, 3) of depth 2: one quorum = 3-of-4 applied twice.
        system = RecursiveThreshold(4, 3, 2)
        quorum = system.sample_quorum(np.random.default_rng(SEED))
        assert system.n == 16
        assert system.min_quorum_size() == 9  # 3-of-4 recursively: 3^2 leaves
        assert system.num_quorums() == 256
        assert len(quorum) == 9
        # 3 of the 4 groups of 4 leaves hold 3 chosen leaves each.
        per_group = sorted(
            sum(leaf in quorum for leaf in range(4 * group, 4 * group + 4))
            for group in range(4)
        )
        assert per_group == [0, 3, 3, 3]

    def test_figure3_mpath(self):
        # M-Path on a 9x9 triangulated grid with b = 4: 3 LR + 3 TB paths.
        system = MPath(9, 4)
        quorum = system.sample_quorum(np.random.default_rng(SEED))
        assert system.n == 81
        assert system.k == 3  # sqrt(2b+1) paths per direction
        assert system.masking_bound() == 4
        assert system.min_intersection_size() >= 2 * 4 + 1
        # Lattice coordinates (1-based (i, j)) onto the row-major picture.
        zero_based = frozenset((j - 1, i - 1) for (i, j) in quorum)
        assert render_grid_quorum(9, zero_based).count("#") == len(quorum)


class TestSection5Claims:
    def test_mgrid_masks_up_to_half_sqrt_n(self):
        # Proposition 5.1: b <= (sqrt(n)-1)/2; at n = 49 that is b = 3.
        MGrid(7, 3)
        with pytest.raises(Exception):
            MGrid(7, 4)

    def test_mgrid_load_within_sqrt2_of_optimal(self):
        # Remark after Proposition 5.2, evaluated at b ~ sqrt(n)/2 where the
        # construction is pushed hardest (integrality makes it slightly
        # worse than the asymptotic sqrt(2) factor on small grids).
        system = MGrid(16, 7)
        ratio = system.load() / load_lower_bound(system.n, 7)
        assert ratio <= 1.5

    def test_rt43_combinatorics_from_the_text(self):
        # "for the whole system we get c = n^0.79, IS = MT = sqrt(n)".
        for depth in (2, 3, 4):
            system = RecursiveThreshold(4, 3, depth)
            n = system.n
            assert system.min_quorum_size() == pytest.approx(n ** math.log(3, 4), rel=1e-9)
            assert system.min_intersection_size() == int(math.isqrt(n))
            assert system.min_transversal_size() == int(math.isqrt(n))

    def test_rt43_masks_half_sqrt_n(self):
        # b = (sqrt(n) - 1)/2 for RT(4,3).
        system = RecursiveThreshold(4, 3, 4)
        assert system.masking_bound() == (math.isqrt(system.n) - 1) // 2

    def test_rt43_block_polynomial_and_critical_point(self):
        # "a direct calculation shows that g(p) = 6p^2 - 8p^3 + 3p^4 and
        # pc = 0.2324".
        system = RecursiveThreshold(4, 3, 5)
        assert system.block_crash_function(0.3) == pytest.approx(
            6 * 0.09 - 8 * 0.027 + 3 * 0.0081, abs=1e-12
        )
        assert system.critical_probability() == pytest.approx(0.2324, abs=5e-4)

    def test_rt43_fast_decay_below_one_sixth(self):
        # "when p < 1/6 ... Fp(RT(4,3)) < (6p)^sqrt(n)".
        p = 0.1
        for depth in (2, 3, 4, 5):
            system = RecursiveThreshold(4, 3, depth)
            assert system.crash_probability(p) < (6 * p) ** math.isqrt(system.n)


class TestSection6Claims:
    def test_proposition_6_1_parameters(self):
        # n = (4b+1)(q^2+q+1), c = (3b+1)(q+1), IS = 2b+1, MT = (b+1)(q+1).
        for q, b in [(2, 1), (3, 4), (4, 3)]:
            system = BoostedFPP(q, b)
            assert system.n == (4 * b + 1) * (q * q + q + 1)
            assert system.min_quorum_size() == (3 * b + 1) * (q + 1)
            assert system.min_intersection_size() == 2 * b + 1
            assert system.min_transversal_size() == (b + 1) * (q + 1)
            assert system.masking_bound() == b

    def test_proposition_6_2_load_about_3_over_4q(self):
        for q in (3, 5, 7):
            system = BoostedFPP(q, 5)
            assert system.load() == pytest.approx(3 / (4 * q), rel=0.2)

    def test_scaling_policy_1_masks_more_at_constant_load(self):
        # Section 6, policy 1: "Fix q and increase b; then the system can
        # mask more failures when new servers are added, however the load on
        # the servers does not decrease."  The masking exponent
        # log_n(b) climbs towards the a/(a+2) -> 1 regime the paper derives.
        systems = [BoostedFPP(3, b) for b in (3, 27, 243)]
        masking = [system.masking_bound() for system in systems]
        loads = [system.load() for system in systems]
        exponents = [
            math.log(system.masking_bound()) / math.log(system.n) for system in systems
        ]
        assert masking == sorted(masking)
        assert max(loads) - min(loads) < 0.03
        assert exponents == sorted(exponents)


class TestSection8WorkedExample:
    """The n ~ 1024, L ~ 1/4, p = 1/8 comparison at the end of the paper."""

    P = 0.125

    def test_mgrid_row(self):
        # "an M-Grid system can tolerate b = 15 Byzantine failures and up to
        # f = 28 benign failures, but has a failure probability Fp >= 0.638".
        system = MGrid(32, 15)
        assert system.n == 1024
        assert system.masking_bound() >= 15
        assert system.min_transversal_size() - 1 == 28
        assert system.load() == pytest.approx(0.25, abs=0.02)
        assert system.crash_probability_lower_bound(self.P) == pytest.approx(0.638, abs=0.01)

    def test_boostfpp_row(self):
        # "a boostFPP system (n = 1001, q = 3) can tolerate b = 19, up to
        # f = 79 benign failures ... Fp <= 0.372".
        system = BoostedFPP(3, 19)
        assert system.n == 1001
        assert system.masking_bound() == 19
        assert system.min_transversal_size() - 1 == 79
        assert system.load() == pytest.approx(0.25, abs=0.02)
        assert system.crash_probability_chernoff_bound(self.P) == pytest.approx(0.372, abs=0.003)
        # The tighter composed estimate is consistent with (well below) it.
        assert system.crash_probability(self.P) <= 0.372

    def test_mpath_row(self):
        # "The M-Path construction, with 4 LR and 4 TB paths per quorum, has
        # b = 7 here, and can tolerate up to f ~ 29 benign failures, but has
        # a good crash probability: Fp <= 0.001".
        system = MPath(32, 7)
        assert system.k == 4
        assert system.masking_bound() >= 7
        # Integrality conventions put f at 28 (the paper rounds to 29).
        assert system.min_transversal_size() - 1 in (28, 29)
        assert system.load() == pytest.approx(0.25, abs=0.02)
        assert system.crash_probability_upper_bound(self.P, p_prime=1 / 7) <= 0.001
        assert system.crash_probability_upper_bound(self.P) <= 0.001

    def test_rt_row(self):
        # "the RT(4,3) construction, with depth h = 5, is the best, with
        # b = 15, f = 31 and an excellent failure probability Fp <= 0.0001".
        system = RecursiveThreshold(4, 3, 5)
        assert system.n == 1024
        assert system.masking_bound() == 15
        assert system.min_transversal_size() - 1 == 31
        assert system.load() == pytest.approx(0.24, abs=0.02)
        assert system.crash_probability(self.P) <= 0.0001

    def test_threshold_cannot_reach_load_one_quarter(self):
        # Section 8: "Threshold suffers in load" — its load never drops
        # below 1/2 no matter the masking level.
        for b in (1, 15, 100):
            assert masking_threshold(1024, b).load() >= 0.5


    def test_section8_comparison_regenerates_the_example(self):
        """``section8_comparison`` rebuilds the four instances with their columns."""
        profiles = section8_comparison(n=1024, p=self.P, rng=np.random.default_rng(SEED))
        by_family = {profile.name.split("(")[0]: profile for profile in profiles}
        mgrid, boost = by_family["M-Grid"], by_family["boostFPP"]
        mpath, rt = by_family["M-Path"], by_family["RT"]
        assert mgrid.b == 15 and mgrid.f == 28
        assert boost.b == 19 and boost.f == 79 and boost.n == 1001
        assert mpath.b == 7 and mpath.f in (28, 29)
        assert rt.b == 15 and rt.f == 31
        for profile in (mgrid, boost, mpath, rt):
            assert profile.load == pytest.approx(0.25, abs=0.03)
        assert mgrid.crash_probability == pytest.approx(0.638, abs=0.01)
        assert boost.crash_probability == pytest.approx(0.372, abs=0.005)
        assert mpath.crash_probability <= 0.001
        assert rt.crash_probability <= 0.0001
        assert (
            rt.crash_probability
            < mpath.crash_probability
            < boost.crash_probability
            < mgrid.crash_probability
        )

    def test_cheap_servers_above_one_quarter(self):
        """At p = 0.3 boostFPP collapses and RT, above its 0.2324, degrades."""
        profiles = section8_comparison(n=1024, p=0.3, rng=np.random.default_rng(SEED))
        by_family = {profile.name.split("(")[0]: profile for profile in profiles}
        # p > 1/4: boostFPP's Chernoff guarantee is void (the bound reports 1).
        assert by_family["boostFPP"].crash_probability == pytest.approx(1.0)
        assert by_family["RT"].crash_probability > 0.5
        # M-Grid is, as always at this scale, effectively dead.
        assert by_family["M-Grid"].crash_probability > 0.9


class TestTradeoffClaim:
    def test_f_at_most_n_times_load(self):
        # "Since necessarily f <= c(Q), Theorem 4.1 implies that f <= n L(Q)".
        systems = [
            MGrid(32, 15),
            BoostedFPP(3, 19),
            MPath(32, 7),
            RecursiveThreshold(4, 3, 5),
            masking_threshold(1024, 255),
        ]
        for system in systems:
            resilience = system.min_transversal_size() - 1
            assert resilience <= system.n * system.load() + 1e-9

    def test_no_system_sits_on_both_frontiers(self):
        """Threshold sits at the resilience frontier, the load-optimal systems give it up."""
        systems = [
            masking_threshold(256, 63),
            MaskingGrid(16, 5),
            MGrid(16, 7),
            RecursiveThreshold(4, 3, 4),
            BoostedFPP(3, 4),
            MPath(16, 7),
        ]
        points = [tradeoff_point(system) for system in systems]
        for system, point in zip(systems, points):
            assert verify_tradeoff(system)
            assert point.slack >= -1e-9
        threshold_point, mpath_point = points[0], points[-1]
        assert threshold_point.resilience > 3 * mpath_point.resilience
        assert mpath_point.load < 0.7 * threshold_point.load
