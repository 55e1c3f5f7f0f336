"""Agreement tests: the bitmask engine against the frozenset reference paths.

The :mod:`repro.core.bitset` engine is the representation the hot paths run
on; its contract is that every measure it powers — load, failure probability,
masking verification, transversals, and the combinatorial parameters they
build on — is *identical* to what the plain frozenset enumeration would
produce.  These tests re-implement the pre-engine reference computations in
terms of frozensets and ``itertools`` and assert exact agreement on small
instances of all eight quorum-enumerating constructions, plus random explicit
systems via hypothesis.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BoostedFPP,
    CrumblingWall,
    ExplicitQuorumSystem,
    FiniteProjectivePlane,
    MGrid,
    MPath,
    MaskingGrid,
    RecursiveThreshold,
    RegularGrid,
    Strategy,
    exact_failure_probability,
    exact_load,
    masking_report,
    masking_threshold,
)
from repro.core import bitset
from repro.core.availability import _BATCH_ELEMENTS
from repro.core.transversal import (
    is_transversal,
    minimal_transversal,
    minimal_transversal_mask,
)
from repro.core.universe import Universe
from repro.exceptions import ComputationError


def _small_systems():
    """One small, fully enumerable instance of every construction.

    M-Path only enumerates its straight-line sub-family, so its explicit
    snapshot is used wherever a full quorum list is required; the raw object
    is still exercised by the mask-generator test below.
    """
    return [
        masking_threshold(9, 1),
        MaskingGrid(4, 1),
        MGrid(4, 1),
        MPath(3, 1).straight_line_subsystem(),
        RecursiveThreshold(3, 2, 2),
        CrumblingWall([1, 2, 3]),
        BoostedFPP(2, 1),
        FiniteProjectivePlane(2),
    ]


SYSTEM_IDS = [
    "threshold",
    "grid",
    "mgrid",
    "mpath",
    "recursive-threshold",
    "crumbling-wall",
    "boost-fpp",
    "fpp",
]


@pytest.fixture(params=range(len(SYSTEM_IDS)), ids=SYSTEM_IDS)
def system(request):
    return _small_systems()[request.param]


# ----------------------------------------------------------------------------
# Reference (frozenset) implementations of the measures the engine replaced.
# ----------------------------------------------------------------------------

def reference_incidence(system) -> np.ndarray:
    quorum_list = system.quorums()
    matrix = np.zeros((len(quorum_list), system.n), dtype=bool)
    for row, quorum in enumerate(quorum_list):
        for element in quorum:
            matrix[row, system.universe.index_of(element)] = True
    return matrix


def reference_min_intersection(system) -> int:
    quorum_list = system.quorums()
    if len(quorum_list) == 1:
        return len(quorum_list[0])
    return min(
        len(first & second)
        for first, second in itertools.combinations(quorum_list, 2)
    )


def reference_degrees(system) -> dict:
    counts = {element: 0 for element in system.universe}
    for quorum in system.quorums():
        for element in quorum:
            counts[element] += 1
    return counts


def reference_exact_failure_probability(system, p: float) -> float:
    """The seed implementation: a Python loop over all 2^n alive-sets."""
    n = system.n
    universe_order = {element: i for i, element in enumerate(system.universe)}
    quorum_masks = []
    for quorum in system.quorums():
        mask = 0
        for element in quorum:
            mask |= 1 << universe_order[element]
        quorum_masks.append(mask)
    survive = 0.0
    for alive_mask in range(1 << n):
        if any(mask & alive_mask == mask for mask in quorum_masks):
            alive_count = alive_mask.bit_count()
            survive += (1.0 - p) ** alive_count * p ** (n - alive_count)
    return 1.0 - survive


def reference_consistency_holds(system, b: int) -> bool:
    required = 2 * b + 1
    quorum_list = system.quorums()
    if len(quorum_list) == 1:
        return len(quorum_list[0]) >= required
    return all(
        len(first & second) >= required
        for first, second in itertools.combinations(quorum_list, 2)
    )


# ----------------------------------------------------------------------------
# Mask generators and cached array views.
# ----------------------------------------------------------------------------

class TestMaskGeneration:
    def test_masks_align_with_frozensets(self, system):
        universe = system.universe
        masks = list(system.iter_quorum_masks())
        quorums = list(system.iter_quorums())
        assert len(masks) == len(quorums)
        for mask, quorum in zip(masks, quorums):
            assert bitset.mask_to_frozenset(mask, universe) == quorum
            assert bitset.mask_of(quorum, universe) == mask

    @pytest.mark.parametrize("mask", [-1, 1 << 5, (1 << 6) - 1])
    def test_a_mask_off_the_universe_is_refused(self, mask):
        with pytest.raises(ComputationError, match="5-element universe"):
            bitset.mask_to_frozenset(mask, Universe.of_size(5))

    def test_mpath_raw_masks_align(self):
        # The raw M-Path object cannot materialise quorums(), but its mask
        # and frozenset generators must still describe the same sub-family.
        mpath = MPath(3, 1)
        for mask, quorum in zip(mpath.iter_quorum_masks(), mpath.iter_quorums()):
            assert bitset.mask_to_frozenset(mask, mpath.universe) == quorum

    @given(
        st.integers(min_value=1, max_value=130).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12),
            )
        ),
        st.sampled_from(["int", "tuple", "str"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_frozensets_equal_the_per_mask_walk(self, n_and_masks, labels):
        # Same frozensets, built in the same insertion order, so even their
        # iteration order matches the reference walk.
        n, masks = n_and_masks
        elements = {
            "int": list(range(n)),
            "tuple": [(i // 7, i % 7) for i in range(n)],
            "str": [f"s{i}" for i in range(n)],
        }[labels]
        universe = Universe(elements)
        bulk = bitset.frozensets_of(masks, universe)
        walk = [bitset.mask_to_frozenset(mask, universe) for mask in masks]
        assert bulk == walk
        assert [list(q) for q in bulk] == [list(q) for q in walk]
        words = -(-n // 64)
        reference = [[(mask >> (64 * w)) & ((1 << 64) - 1) for w in range(words)] for mask in masks]
        np.testing.assert_array_equal(
            bitset.pack_masks(masks, n),
            np.array(reference, dtype=np.uint64).reshape(len(masks), words),
        )

    def test_uniform_strategy_support_is_the_walked_quorum_list(self, system):
        support = Strategy.uniform_over_system(system).support
        walk = tuple(
            bitset.mask_to_frozenset(mask, system.universe) for mask in system.quorum_masks()
        )
        assert support == walk
        assert [list(q) for q in support] == [list(q) for q in walk]

    def test_incidence_matrix_matches_reference(self, system):
        engine = system.bitset_engine()
        np.testing.assert_array_equal(
            engine.incidence_matrix(), reference_incidence(system)
        )

    def test_quorum_sizes_match(self, system):
        engine = system.bitset_engine()
        expected = [len(quorum) for quorum in system.quorums()]
        assert engine.quorum_sizes().tolist() == expected


# ----------------------------------------------------------------------------
# Combinatorial measures.
# ----------------------------------------------------------------------------

class TestMeasures:
    def test_min_intersection_matches_reference(self, system):
        assert system.min_intersection_size() == reference_min_intersection(system)

    def test_degrees_match_reference(self, system):
        assert system.degrees() == reference_degrees(system)

    def test_masking_reports_match_reference(self, system):
        for b in range(0, system.masking_bound() + 2):
            report = masking_report(system, b)
            assert report.consistent == reference_consistency_holds(system, b)
            assert report.is_masking == (
                report.consistent and report.resilient
            )
            assert masking_report(system, b).is_masking == system.is_b_masking(b)


# ----------------------------------------------------------------------------
# Load, availability, transversals.
# ----------------------------------------------------------------------------

class TestLoadAndAvailability:
    def test_exact_load_matches_reference_incidence(self, system):
        # A fair family (equal quorum sizes, equal degrees on the frozenset
        # incidence) is closed at c/n by the uniform primal-dual pair, so its
        # value *is* c/n, and HiGHS on the reference matrix agrees to the last
        # few ulps.  Any other family goes to the LP, which must see exactly
        # the matrix the frozenset path would have assembled; with identical
        # inputs HiGHS is deterministic, so the optimum is the same number.
        from scipy import optimize

        incidence = reference_incidence(system).astype(float)
        num_quorums, num_elements = incidence.shape
        objective = np.zeros(num_quorums + 1)
        objective[-1] = 1.0
        upper_matrix = np.hstack([incidence.T, -np.ones((num_elements, 1))])
        equality_matrix = np.zeros((1, num_quorums + 1))
        equality_matrix[0, :num_quorums] = 1.0
        result = optimize.linprog(
            objective,
            A_ub=upper_matrix,
            b_ub=np.zeros(num_elements),
            A_eq=equality_matrix,
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * num_quorums + [(0.0, 1.0)],
            method="highs",
        )
        assert result.success
        sizes = incidence.sum(axis=1).astype(int)
        degrees = incidence.sum(axis=0).astype(int)
        fair = int(degrees.max()) * num_elements == int(sizes.min()) * num_quorums
        assert fair == (not isinstance(system, CrumblingWall))
        load = exact_load(system).load
        if fair:
            assert load == int(sizes.min()) / num_elements
            assert load == pytest.approx(float(result.x[-1]), abs=1e-12)
        else:
            assert load == float(result.x[-1])

    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_exact_failure_probability_matches_reference(self, system, p):
        if system.n > 16 or system.num_quorums() > 20:
            pytest.skip("reference enumeration too slow for this instance")
        engine_value = exact_failure_probability(system, p).value
        assert engine_value == reference_exact_failure_probability(system, p)

    def test_transversal_engines_agree(self, system):
        quorums = system.quorums()
        milp = minimal_transversal(quorums, engine="milp")
        assert is_transversal(milp, quorums)
        assert len(milp) == system.to_explicit().min_transversal_size()
        if len(quorums) <= 100:
            bnb = minimal_transversal(quorums, engine="branch-and-bound")
            assert len(milp) == len(bnb)
        mask = minimal_transversal_mask(system.quorum_masks())
        assert mask.bit_count() == len(milp)
        assert is_transversal(bitset.mask_to_frozenset(mask, system.universe), quorums)


@st.composite
def survival_cases(draw):
    """An explicit system with quorums of unequal sizes, and a crash batch."""
    n = draw(st.sampled_from([1, 63, 64, 65, 129]))
    trials = draw(st.sampled_from([0, 1, 7, 8, 63, 64, 65, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = draw(st.integers(0, n - 1))
    sizes = draw(st.lists(st.integers(min(2, n), n), min_size=1, max_size=5))
    # The singleton core quorum is the shortest column of the member table.
    quorums = [frozenset({core})] + [
        frozenset(rng.choice(n, size, replace=False).tolist()) | {core} for size in sizes
    ]
    # Per-trial crash rates skewed towards zero, so big quorums survive too.
    crashed = rng.random((trials, n)) < rng.random((trials, 1)) ** 4
    return ExplicitQuorumSystem(range(n), quorums, name="survival"), crashed


class TestSurvivalChecks:
    @pytest.mark.parametrize(
        "system", [BoostedFPP(3, 1), RegularGrid(17)], ids=["boostfpp-n65-m8125", "grid-n289"]
    )
    def test_quorums_alive_is_the_mask_subset_test(self, system):
        # The bit-sliced kernel must answer exactly what the integer masks do
        # with n above one 64-bit word: it counts nothing, so no hit count
        # can wrap (a uint8 one would at 256) or round (a float32 one past
        # 2**24); each trial's survival is one bit ORed over member rows.
        engine = system.bitset_engine()
        rng = np.random.default_rng(5)
        crashed = rng.random((24, system.n)) < rng.random((24, 1)) * 0.2
        crashed[0], crashed[1] = False, True
        alive = engine.quorums_alive(crashed)
        assert alive.shape == (24, engine.num_quorums)
        for row, flags in zip(crashed, alive):
            crashed_mask = sum(1 << int(index) for index in np.flatnonzero(row))
            assert flags.tolist() == [not mask & crashed_mask for mask in engine.masks]
        assert alive[0].all() and not alive[1].any()
        assert 0 < alive[2:].sum() < alive[2:].size
        assert engine.alive_quorum_exists(crashed).tolist() == alive.any(axis=1).tolist()
        assert engine.quorums_alive(crashed[3]).tolist() == alive[3:4].tolist()

    @given(survival_cases())
    @settings(max_examples=60, deadline=None)
    def test_bit_sliced_kernel_is_the_mask_subset_test(self, case):
        # Quorums of unequal sizes pad the member table with the sentinel
        # row; trial counts off a multiple of 64 pad the last trial word.
        system, crashed = case
        engine = system.bitset_engine()
        alive = engine.quorums_alive(crashed)
        assert alive.dtype == bool and alive.flags.c_contiguous
        assert alive.shape == (len(crashed), engine.num_quorums)
        for row, flags in zip(crashed, alive):
            crashed_mask = sum(1 << int(index) for index in np.flatnonzero(row))
            assert flags.tolist() == [not mask & crashed_mask for mask in engine.masks]
        exists = engine.alive_quorum_exists(crashed)
        assert exists.dtype == bool and exists.tolist() == alive.any(axis=1).tolist()
        if len(crashed):
            single = engine.quorums_alive(crashed[-1])
            assert single.dtype == bool and single.flags.c_contiguous
            assert single.tolist() == alive[-1:].tolist()

    def test_survival_check_python_calls_do_not_grow_with_the_batch(self, python_calls):
        """No Python call per member-table row or per trial word.

        7 calls on CPython 3.11 / numpy 2.4 at every size below: one trial,
        the 400 of a ``measure_sweep`` call, and one full Monte-Carlo batch
        (9 510 trials on M-Grid(7, 3)'s 441 quorums of 24, 516 on
        boostFPP(3, 1)'s 8 125 quorums of 16).
        """
        rng = np.random.default_rng(11)
        counts = []
        for system in (MGrid(7, 3), BoostedFPP(3, 1)):
            engine = system.bitset_engine()
            engine.alive_quorum_exists(np.zeros((1, system.n), dtype=bool))  # member table
            batch = _BATCH_ELEMENTS // max(engine.num_quorums, system.n)
            for trials in (1, 400, batch):
                crashed = rng.random((trials, system.n)) < 0.2
                calls, _ = python_calls(lambda: engine.alive_quorum_exists(crashed))
                counts.append(calls)
        assert len(set(counts)) == 1 and counts[0] <= 7 + 4, counts


# ----------------------------------------------------------------------------
# Random explicit systems.
# ----------------------------------------------------------------------------

@st.composite
def random_explicit_systems(draw):
    """Random quorum sets sharing a core element (so Definition 3.1 holds)."""
    n = draw(st.integers(min_value=2, max_value=8))
    core = draw(st.integers(min_value=0, max_value=n - 1))
    num_quorums = draw(st.integers(min_value=1, max_value=6))
    quorums = []
    for _ in range(num_quorums):
        members = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        )
        quorums.append(frozenset(members | {core}))
    return ExplicitQuorumSystem(range(n), quorums, name="random")


class TestRandomSystems:
    @given(random_explicit_systems())
    @settings(max_examples=30, deadline=None)
    def test_engine_measures_agree(self, system):
        assert system.min_intersection_size() == reference_min_intersection(system)
        assert system.degrees() == reference_degrees(system)
        engine = system.bitset_engine()
        np.testing.assert_array_equal(
            engine.incidence_matrix(), reference_incidence(system)
        )

    @given(random_explicit_systems(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_exact_failure_probability_agrees(self, system, p):
        assert (
            exact_failure_probability(system, p).value
            == reference_exact_failure_probability(system, p)
        )


class TestPaperScale:
    """The engine on the largest instances the paper's tables exercise."""

    def test_min_intersection_on_figure1_mgrid(self):
        # M-Grid(7, b=3): 441 quorums, 97k pairs, one vectorised popcount sweep.
        system = MGrid(7, 3)
        value = system.bitset_engine().min_intersection_size()
        reference = min(len(a & b) for a, b in itertools.combinations(system.quorums(), 2))
        assert value == reference == 2 * system.k * system.k

    def test_survival_table_gives_the_threshold_binomial_tail(self):
        system = masking_threshold(17, 3)  # 2^17 alive-sets, C(17, 12) quorums
        table = system.bitset_engine().subset_survival_table()
        # The all-alive set always survives; the empty set never does.
        assert bool(table[-1]) and not bool(table[0])
        exact = exact_failure_probability(system, 0.2).value
        assert abs(exact - system.crash_probability(0.2)) < 1e-12

    def test_incidence_of_the_masking_grid_baseline(self):
        system = MaskingGrid(9, 2)
        matrix = bitset.BitsetEngine(system.universe, system.quorum_masks()).incidence_matrix()
        assert matrix.shape == (system.num_quorums(), system.n)
        assert int(matrix.sum()) == sum(len(q) for q in system.quorums())
