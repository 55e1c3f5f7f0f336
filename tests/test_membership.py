"""Core membership layer: epochs, rebinding, epoch-keyed strategy caches.

The tentpole invariants these pin down:

* a :class:`~repro.core.membership.Membership` is an append-only log with
  *absolute* epoch ids — severs and joins validate against the live set and
  the member order is deterministic (survivors keep their relative order,
  joiners append);
* :func:`~repro.core.membership.rebind_system` recomputes a system as a pure
  function of the epoch's membership: registry constructions resize their
  parameters and relabel onto the live members, explicit systems restrict to
  the surviving quorums, and a re-join that restores the original universe
  returns the *original object*;
* :class:`~repro.core.membership.ReboundQuorumSystem` is a pure relabelling —
  mask-level views and closed-form measures are the resized base's;
* :meth:`~repro.core.strategy.Strategy.restricted_to` is the incremental
  re-weighting primitive, and the strategy's incidence caches are keyed by
  ``(universe, epoch)`` so distinct epochs never share a cache slot.
"""

from __future__ import annotations

import pytest

from repro import ExplicitQuorumSystem, ImplicitQuorumSystem, MGrid, majority
from repro.api import available_constructions, build, measure, spec_of
from repro.core import (
    Membership,
    MembershipEvent,
    ReboundQuorumSystem,
    Strategy,
    plan_events,
    rebind_system,
    severed_between,
    unwrap,
)
from repro.core.universe import Universe
from repro.exceptions import InvalidQuorumSystemError


def _grid_membership(side: int = 5) -> tuple[MGrid, Membership]:
    """MGrid(side, 1) with the outer ring severed then re-admitted."""
    system = MGrid(side, 1)
    ring = side * side - (side - 1) ** 2
    events = plan_events(system.universe, [("sever", ring), ("join", ring)])
    return system, Membership(system.universe, events)


class TestMembershipLog:
    def test_epoch_zero_is_initial(self):
        membership = Membership(range(5))
        assert membership.num_epochs == 1
        assert membership.epoch(0).members == (0, 1, 2, 3, 4)
        assert membership.epoch(0).joined == frozenset()
        assert membership.epoch(0).severed == frozenset()

    def test_events_produce_consecutive_epochs(self):
        membership = Membership(
            range(5), [("sever", [3, 4]), ("join", ["x", "y"])]
        )
        assert membership.num_epochs == 3
        assert membership.epoch(1).members == (0, 1, 2)
        assert membership.epoch(1).severed == frozenset({3, 4})
        assert membership.epoch(2).members == (0, 1, 2, "x", "y")
        assert membership.epoch(2).joined == frozenset({"x", "y"})
        assert [epoch.index for epoch in membership] == [0, 1, 2]

    def test_survivors_keep_relative_order(self):
        membership = Membership(range(6), [("sever", [1, 4])])
        assert membership.epoch(1).members == (0, 2, 3, 5)

    def test_sever_of_non_member_rejected(self):
        with pytest.raises(InvalidQuorumSystemError):
            Membership(range(3), [("sever", [7])])

    def test_join_of_existing_member_rejected(self):
        with pytest.raises(InvalidQuorumSystemError):
            Membership(range(3), [("join", [2])])

    def test_emptying_epoch_rejected(self):
        with pytest.raises(InvalidQuorumSystemError):
            Membership(range(2), [("sever", [0, 1])])

    def test_epoch_ids_are_absolute(self):
        membership = Membership(range(4), [("sever", [3]), ("join", [3])])
        # The evicted epoch stays addressable after the re-join.
        assert membership.epoch(1).members == (0, 1, 2)
        with pytest.raises(InvalidQuorumSystemError):
            membership.epoch(3)

    def test_ever_members_and_severed_between(self):
        membership = Membership(
            range(4), [("sever", [2, 3]), ("join", ["x"]), ("sever", ["x"])]
        )
        assert membership.ever_members() == frozenset({0, 1, 2, 3, "x"})
        assert severed_between(membership, 0, 1) == frozenset({2, 3})
        assert severed_between(membership, 3, 3) == frozenset({"x"})
        assert severed_between(membership, 0, 99) == frozenset({2, 3, "x"})


class TestPlanEvents:
    def test_sever_evicts_tail_of_current_order(self):
        events = plan_events(Universe(range(5)), [("sever", 2)])
        assert events == (MembershipEvent("sever", (3, 4)),)

    def test_join_restores_severed_block_in_order(self):
        universe = Universe(range(6))
        events = plan_events(universe, [("sever", 3), ("join", 3)])
        assert events[1] == MembershipEvent("join", (3, 4, 5))
        membership = Membership(universe, events)
        # The round trip restores the universe exactly (order included).
        assert membership.epoch(2).universe == universe

    def test_join_mints_fresh_ids_when_pool_exhausted(self):
        events = plan_events(Universe(range(4)), [("sever", 1), ("join", 3)])
        assert events[1].servers == (3, "j2.0", "j2.1")

    def test_sever_to_empty_rejected(self):
        with pytest.raises(InvalidQuorumSystemError):
            plan_events(Universe(range(3)), [("sever", 3)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidQuorumSystemError):
            plan_events(Universe(range(3)), [("shrink", 1)])


class TestRebind:
    def test_same_universe_returns_same_object(self):
        system, membership = _grid_membership()
        assert membership.rebind(system, 0) is system
        # The re-join restores the initial configuration exactly.
        assert membership.rebind(system, 2) is system

    def test_registry_construction_resizes_and_relabels(self):
        system, membership = _grid_membership(5)
        rebound = membership.rebind(system, 1)
        assert isinstance(rebound, ReboundQuorumSystem)
        assert rebound.n == 16
        assert rebound.universe == membership.epoch(1).universe
        reference = MGrid(4, 1)
        assert rebound.num_quorums() == reference.num_quorums()
        assert rebound.min_intersection_size() == reference.min_intersection_size()
        assert rebound.masking_bound() == reference.masking_bound()
        # Quorums translate onto the surviving members only.
        member_set = membership.epoch(1).member_set()
        for quorum in rebound.iter_quorums():
            assert quorum <= member_set

    @pytest.mark.parametrize("name,p", [("fp", 0.1), ("load", None), ("masking", None)])
    def test_measures_are_label_independent(self, name, p):
        # Regression: `measure` peeled implicit views but not rebound ones, so
        # a relabelled mgrid(6, 1) answered Fp by Monte-Carlo (0.13285 +- 0.0047)
        # where the identical unrelabelled system took the closed form.
        base = build("mgrid", side=6, b=1)
        rebound = ReboundQuorumSystem(
            base, Universe(f"s{i}" for i in range(36)), epoch_index=1
        )
        relabelled, plain = measure(rebound, name, p=p), measure(base, name, p=p)
        assert relabelled.value == plain.value
        assert relabelled.method_used == plain.method_used
        assert relabelled.error_bound == 0.0
        assert relabelled.system == rebound.name

    def test_unwrap_peels_nested_views(self):
        base = MGrid(4, 1)
        rebound = ReboundQuorumSystem(base, Universe(range(100, 116)), epoch_index=3)
        assert unwrap(base) is base
        assert unwrap(ImplicitQuorumSystem(rebound, num_samples=4, seed=0)) is base

    def test_rebind_is_cached_per_epoch(self):
        system, membership = _grid_membership()
        assert membership.rebind(system, 1) is membership.rebind(system, 1)

    def test_threshold_rebinds_to_epoch_size(self):
        system = majority(7)
        membership = Membership(
            system.universe, plan_events(system.universe, [("join", 4)])
        )
        rebound = membership.rebind(system, 1)
        assert rebound.n == 11
        assert rebound.universe == membership.epoch(1).universe

    def test_grid_rejects_non_square_epoch(self):
        system = MGrid(4, 1)
        membership = Membership(
            system.universe, plan_events(system.universe, [("sever", 2)])
        )
        with pytest.raises(InvalidQuorumSystemError):
            membership.rebind(system, 1)

    def test_explicit_system_restricts_to_surviving_quorums(self):
        system = ExplicitQuorumSystem(
            range(5),
            [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}],
            name="simple",
        )
        membership = Membership(range(5), [("sever", [4])])
        rebound = rebind_system(system, membership.epoch(1))
        assert set(rebound.quorums()) == {
            frozenset({0, 1, 2}),
            frozenset({1, 2, 3}),
        }
        assert rebound.universe == membership.epoch(1).universe

    def test_explicit_system_with_no_survivor_rejected(self):
        system = ExplicitQuorumSystem(range(3), [{0, 1, 2}], name="all")
        membership = Membership(range(3), [("sever", [2])])
        with pytest.raises(InvalidQuorumSystemError):
            rebind_system(system, membership.epoch(1))


#: (construction, parameters, the family's next natural size, a size the
#: family does not contain — ``None`` where it contains every size).
FAMILY_SIZES = [
    ("threshold", {"n": 9, "b": 2}, 13, 8),
    ("majority", {"n": 5}, 8, None),
    ("wheel", {"n": 6}, 9, 2),
    ("grid", {"side": 3}, 16, 10),
    ("masking-grid", {"side": 4, "b": 1}, 25, 20),
    ("mgrid", {"side": 4, "b": 1}, 25, 14),
    ("mpath", {"side": 4, "b": 1}, 25, 20),
    ("rt", {"k": 4, "l": 3, "depth": 2}, 64, 32),
    ("tree", {"depth": 2}, 15, 9),
    ("fpp", {"q": 2}, 13, 8),
    ("boostfpp", {"q": 2, "b": 1}, 63, 7),
    ("crumbling-wall", {"rows": (3, 4, 5)}, 14, None),
]


def _resized(system, size: int):
    """``system`` rebound to ``size`` servers by one join or sever event."""
    kind = "join" if size > system.n else "sever"
    events = plan_events(system.universe, [(kind, abs(size - system.n))])
    return Membership(system.universe, events).rebind(system, 1)


class TestRebindEveryFamily:
    """Each registry construction rebinds along its own family's sizes."""

    def test_the_matrix_covers_the_registry(self):
        assert sorted(row[0] for row in FAMILY_SIZES) == list(available_constructions())

    @pytest.mark.parametrize(
        "construction,params,larger", [row[:3] for row in FAMILY_SIZES]
    )
    def test_grows_to_the_next_natural_size_and_back(self, construction, params, larger):
        # Regression: any spec with a `q` was sized as a projective plane, so
        # boostfpp(q=2, b=1) (n = 35) could not grow to boostfpp(q=2, b=2)
        # (n = 63) and "shrank" to 7 servers by keeping its 35-server shape.
        system = build(construction, **params)
        grown = _resized(system, larger)
        assert grown.n == larger
        grown_spec = spec_of(unwrap(grown))
        assert grown_spec.construction == spec_of(system).construction

        shrunk = _resized(build(grown_spec), system.n)
        assert shrunk.n == system.n
        assert spec_of(unwrap(shrunk)) == spec_of(system)

    @pytest.mark.parametrize(
        "construction,params,off_family",
        [(row[0], row[1], row[3]) for row in FAMILY_SIZES if row[3] is not None],
    )
    def test_rejects_a_size_outside_the_family(self, construction, params, off_family):
        with pytest.raises(InvalidQuorumSystemError):
            _resized(build(construction, **params), off_family)


class TestStrategyEpochs:
    def test_restricted_to_keeps_surviving_quorums(self):
        strategy = Strategy(
            {
                frozenset({0, 1}): 0.5,
                frozenset({1, 2}): 0.25,
                frozenset({2, 3}): 0.25,
            }
        )
        restricted = strategy.restricted_to({0, 1, 2})
        assert restricted is not None
        assert set(restricted.support) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
        }
        # Weights renormalise over the survivors.
        assert restricted.probability(frozenset({0, 1})) == pytest.approx(2 / 3)
        assert restricted.probability(frozenset({1, 2})) == pytest.approx(1 / 3)

    def test_restricted_to_empty_support_returns_none(self):
        strategy = Strategy({frozenset({0, 1}): 1.0})
        assert strategy.restricted_to({2, 3}) is None
