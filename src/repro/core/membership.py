"""Epoch-based dynamic membership: the universe as a reconfigurable object.

The paper states its load and availability results for a *fixed* universe of
``n`` servers; a production deployment reconfigures.  This module makes the
member set a first-class object:

* a :class:`Membership` records **join/sever events** with absolute epoch
  ids: epoch 0 is the initial member set, and every event produces the next
  epoch.  Epochs are immutable — history is never rewritten, so an epoch id
  names one member set forever (the ``QuorumBase.join``/``sever`` shape of
  the related work's quorum managers);
* :func:`rebind_system` recomputes a quorum system **as a pure function of
  the current membership** (the indy-plenum ``Quorums(n)`` shape): registry
  constructions are rebuilt with their parameters resized to the epoch's
  ``n`` and relabelled onto the live members, explicit systems are
  restricted to the quorums their surviving members can still form;
* :class:`ReboundQuorumSystem` is the relabelling wrapper that makes the
  rebuild cheap: quorum *bitmasks* are label-independent (bit ``i`` is
  position ``i`` of the universe order), so the wrapper delegates every
  mask-level view and combinatorial parameter to the freshly built construction
  and only the base class's frozenset views translate.  The PR-1 incidence caches
  (``quorum_masks``/``bitset_engine``) live per rebound instance, so they
  are invalidated per *epoch*, not per call.

Strategy re-optimisation on epoch change lives next door: incremental
re-weighting is :meth:`repro.core.strategy.Strategy.restricted_to` (keep the
surviving quorums, renormalise), the full LP re-solve is
:func:`repro.core.load.exact_load` on the rebound system; the workload-level
wiring is :mod:`repro.simulation.reconfig`.  See ``docs/membership.md``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core import bitset
from repro.core.quorum_system import (
    ExplicitQuorumSystem,
    ImplicitQuorumSystem,
    QuorumSystem,
    QuorumSystemView,
)
from repro.core.universe import Universe
from repro.exceptions import (
    ConstructionError,
    InvalidParameterError,
    InvalidQuorumSystemError,
)

if TYPE_CHECKING:  # circular at runtime: these import core modules
    from repro.core.strategy import Strategy

__all__ = [
    "Epoch",
    "Membership",
    "MembershipEvent",
    "ReboundQuorumSystem",
    "plan_events",
    "rebind_system",
    "severed_between",
]

#: The two reconfiguration event kinds.
EVENT_KINDS = ("join", "sever")


@dataclass(frozen=True)
class MembershipEvent:
    """One reconfiguration step: servers joining or severing together.

    Attributes
    ----------
    kind:
        ``"join"`` (the servers are admitted) or ``"sever"`` (they are
        evicted).  One event reconfigures atomically: all its servers change
        state in the same epoch transition.
    servers:
        The affected servers, in a deterministic order (joins append to the
        member order in this order).
    """

    kind: str
    servers: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise InvalidQuorumSystemError(
                f"membership event kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if not self.servers:
            raise InvalidQuorumSystemError(
                f"a {self.kind} event must name at least one server"
            )
        if len(set(self.servers)) != len(self.servers):
            raise InvalidQuorumSystemError(
                f"a {self.kind} event names a server twice: {self.servers!r}"
            )


@dataclass(frozen=True)
class Epoch:
    """One immutable configuration of the membership.

    Attributes
    ----------
    index:
        The absolute epoch id: 0 for the initial configuration, incremented
        by every event.  Ids are never reused; an evicted epoch stays
        addressable (the history checker needs to say "this value was
        written in epoch 1").
    universe:
        The live members as an ordered :class:`~repro.core.universe.Universe`
        (survivors keep their relative order; joiners append).
    joined / severed:
        The delta against the previous epoch (both empty for epoch 0).
    """

    index: int
    universe: Universe
    joined: frozenset
    severed: frozenset

    @property
    def members(self) -> tuple[Hashable, ...]:
        """The live servers, in universe order."""
        return self.universe.elements

    @property
    def n(self) -> int:
        """The epoch's universe size."""
        return self.universe.size

    def member_set(self) -> frozenset:
        """The live servers as a frozenset."""
        return self.universe.as_frozenset()


class Membership:
    """An append-only log of join/sever events with absolute epoch ids.

    Parameters
    ----------
    initial:
        The epoch-0 member set (a :class:`~repro.core.universe.Universe` or
        any ordered iterable of hashable server ids).
    events:
        Reconfiguration steps, each a :class:`MembershipEvent` or a
        ``(kind, servers)`` pair.  Event ``k`` produces epoch ``k + 1``.
        Severs must name current members, joins must name fresh servers,
        and no epoch may become empty.

    Examples
    --------
    >>> m = Membership(range(5), [("sever", [3, 4]), ("join", ["x"])])
    >>> m.num_epochs
    3
    >>> m.epoch(1).members
    (0, 1, 2)
    >>> m.epoch(2).members
    (0, 1, 2, 'x')
    """

    def __init__(
        self,
        initial: Universe | Iterable[Hashable],
        events: Iterable[MembershipEvent | tuple[str, Iterable[Hashable]]] = (),
    ):
        if not isinstance(initial, Universe):
            initial = Universe(initial)
        normalised: list[MembershipEvent] = []
        for event in events:
            if not isinstance(event, MembershipEvent):
                kind, servers = event
                event = MembershipEvent(kind=kind, servers=tuple(servers))
            normalised.append(event)
        self._events = tuple(normalised)

        epochs: list[Epoch] = [
            Epoch(index=0, universe=initial, joined=frozenset(), severed=frozenset())
        ]
        members = list(initial.elements)
        member_set = set(members)
        for event in self._events:
            if event.kind == "sever":
                missing = [s for s in event.servers if s not in member_set]
                if missing:
                    raise InvalidQuorumSystemError(
                        f"sever event for epoch {len(epochs)} names servers that "
                        f"are not members: {missing!r}"
                    )
                severed = frozenset(event.servers)
                members = [s for s in members if s not in severed]
                member_set -= severed
                joined: frozenset = frozenset()
            else:
                present = [s for s in event.servers if s in member_set]
                if present:
                    raise InvalidQuorumSystemError(
                        f"join event for epoch {len(epochs)} names servers that "
                        f"are already members: {present!r}"
                    )
                joined = frozenset(event.servers)
                members = members + list(event.servers)
                member_set |= joined
                severed = frozenset()
            if not members:
                raise InvalidQuorumSystemError(
                    f"epoch {len(epochs)} would have no members"
                )
            epochs.append(
                Epoch(
                    index=len(epochs),
                    universe=Universe(members),
                    joined=joined,
                    severed=severed,
                )
            )
        self._epochs = tuple(epochs)
        #: Per-(system, epoch) rebind cache: the whole point of absolute
        #: epoch ids is that a rebound system — and its PR-1 incidence
        #: caches — can be reused for as long as the epoch lasts and is
        #: dropped exactly when the epoch changes.
        self._rebind_cache: dict[tuple[int, int], QuorumSystem] = {}

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[MembershipEvent, ...]:
        """The reconfiguration events, in application order."""
        return self._events

    @property
    def epochs(self) -> tuple[Epoch, ...]:
        """Every epoch, index 0 first."""
        return self._epochs

    @property
    def num_epochs(self) -> int:
        """The number of epochs (events + 1)."""
        return len(self._epochs)

    @property
    def initial(self) -> Universe:
        """The epoch-0 universe."""
        return self._epochs[0].universe

    def epoch(self, index: int) -> Epoch:
        """Return the epoch with the given absolute id."""
        if not 0 <= index < len(self._epochs):
            raise InvalidQuorumSystemError(
                f"epoch id {index} out of range [0, {len(self._epochs) - 1}]"
            )
        return self._epochs[index]

    def ever_members(self) -> frozenset:
        """Every server that was a member in at least one epoch."""
        combined: set[Hashable] = set()
        for epoch in self._epochs:
            combined |= epoch.member_set()
        return frozenset(combined)

    # ------------------------------------------------------------------
    # Rebinding (cached per epoch).
    # ------------------------------------------------------------------
    def rebind(self, system: QuorumSystem, epoch_index: int) -> QuorumSystem:
        """Return ``system`` recomputed for the given epoch (cached per epoch).

        The cache key is ``(id(system), epoch_index)``: the same deployment
        rebound to the same epoch returns the same object, so the
        incidence/bitset caches hanging off it are shared across every
        operation of the epoch and invalidated only when the epoch changes.
        """
        epoch = self.epoch(epoch_index)
        key = (id(system), epoch_index)
        cached = self._rebind_cache.get(key)
        if cached is None:
            cached = rebind_system(system, epoch)
            self._rebind_cache[key] = cached
        return cached

    def __len__(self) -> int:
        return len(self._epochs)

    def __iter__(self) -> Iterator[Epoch]:
        return iter(self._epochs)

    def __repr__(self) -> str:
        sizes = ", ".join(str(epoch.n) for epoch in self._epochs)
        return f"Membership(epochs={self.num_epochs}, sizes=[{sizes}])"


class ReboundQuorumSystem(QuorumSystemView):
    """A construction recomputed for an epoch, relabelled onto its members.

    Quorum bitmasks are label-independent — bit ``i`` means "position ``i``
    of the universe order" — so rebinding a construction of the right size
    onto the live member set is a pure relabelling: every mask-level view
    (:meth:`iter_quorum_masks`, :meth:`sample_quorum_mask`) and every
    combinatorial parameter delegates to the rebuilt construction unchanged
    (:class:`~repro.core.quorum_system.QuorumSystemView`), and the base
    class's frozenset views translate through the epoch's universe.

    Parameters
    ----------
    base:
        A construction whose universe has exactly the epoch's size, built
        with parameters recomputed for that size (see :func:`rebind_system`).
    universe:
        The epoch's member universe the base is relabelled onto.
    epoch_index:
        The absolute epoch id (kept for cache keys and reporting).
    """

    def __init__(self, base: QuorumSystem, universe: Universe, *, epoch_index: int):
        if base.universe.size != universe.size:
            raise InvalidQuorumSystemError(
                f"cannot relabel a {base.universe.size}-server construction "
                f"onto {universe.size} members"
            )
        self.base = base
        self._universe = universe
        self.epoch_index = int(epoch_index)
        self.name = f"{base.name}@e{epoch_index}"
        self.enumerates_all_quorums = base.enumerates_all_quorums

    @property
    def universe(self) -> Universe:
        return self._universe

    def iter_quorum_masks(self) -> Iterator[int]:
        return self.base.iter_quorum_masks()

    def __repr__(self) -> str:
        return (
            f"<ReboundQuorumSystem base={self.base.name!r} "
            f"epoch={self.epoch_index} n={self.n}>"
        )


def _registry_rebind(system: QuorumSystem, epoch: Epoch) -> QuorumSystem | None:
    """Rebuild a registered construction at the epoch's size, or ``None``.

    The registry is the component that knows each construction's parameters
    and its family's shape at a given size
    (:func:`repro.api.registry.shape_at`); it is imported lazily because the
    facade imports core at module load (this function only runs long after
    both packages exist).  A family with no member of exactly the epoch's
    size is rejected: either its constructor refuses the nearest shape, or
    the size guard of :class:`ReboundQuorumSystem` refuses the relabelling.
    """
    from repro.api import registry as registry_mod  # local: api imports core

    try:
        spec = registry_mod.spec_of(system)
    except InvalidParameterError:  # not a registered construction
        return None
    params = registry_mod.shape_at(spec.construction, spec.params, epoch.n)
    try:
        rebuilt = registry_mod.build(spec.construction, **params)
    except ConstructionError as exc:
        raise InvalidQuorumSystemError(
            f"{spec.construction} has no configuration of n={epoch.n} servers: {exc}"
        ) from exc
    if rebuilt.universe == epoch.universe:
        return rebuilt
    return ReboundQuorumSystem(rebuilt, epoch.universe, epoch_index=epoch.index)


def rebind_system(
    system: QuorumSystem,
    epoch: Epoch,
    *,
    resize: Callable[[int], QuorumSystem] | None = None,
) -> QuorumSystem:
    """Recompute ``system`` as a pure function of the epoch's membership.

    Dispatch, in order:

    1. the epoch's universe equals the system's — return it unchanged (the
       common epoch-0 case, and any re-join that restores a configuration);
    2. an :class:`~repro.core.quorum_system.ImplicitQuorumSystem` rebinds
       its base construction and re-wraps with the same sample budget and
       seed (the sample itself is epoch-fresh: it is drawn from the rebound
       base);
    3. a ``resize`` callback, when given, builds the same family at the
       epoch's size over any universe; the result is relabelled onto the
       members;
    4. a registry construction is rebuilt at its family's shape for the
       epoch's ``n`` (:func:`repro.api.registry.shape_at`) and relabelled;
    5. anything else (explicit/composed systems) keeps its quorum family
       restricted to the quorums its surviving members can still form —
       joins extend the universe with idle spares, severs drop every quorum
       that lost a member.

    Raises
    ------
    InvalidQuorumSystemError
        When the family has no configuration of the epoch's size (e.g. a
        grid asked for a non-square ``n``), or when a sever leaves an
        explicit system with no quorum at all.
    """
    if epoch.universe == system.universe:
        return system
    if isinstance(system, ImplicitQuorumSystem):
        rebased = rebind_system(system.base, epoch, resize=resize)
        return ImplicitQuorumSystem(
            rebased, num_samples=system.num_samples, seed=system.seed
        )
    if resize is not None:
        rebuilt = resize(epoch.n)
        if rebuilt.universe == epoch.universe:
            return rebuilt
        return ReboundQuorumSystem(rebuilt, epoch.universe, epoch_index=epoch.index)
    rebound = _registry_rebind(system, epoch)
    if rebound is not None:
        return rebound
    return _restrict_explicit(system, epoch)


def _restrict_explicit(system: QuorumSystem, epoch: Epoch) -> ExplicitQuorumSystem:
    """Fallback rebind for unregistered systems: keep the surviving quorums."""
    old = system.universe
    members = bitset.mask_of(epoch.member_set() & old.as_frozenset(), old)
    # Only the survivors are converted: their labels re-enter through the
    # constructor, which re-encodes them over the epoch's universe.
    survivors = [
        bitset.mask_to_frozenset(mask, old)
        for mask in system.quorum_masks()
        if mask & members == mask
    ]
    if not survivors:
        raise InvalidQuorumSystemError(
            f"severing {sorted(epoch.severed, key=repr)} leaves {system.name} "
            f"with no quorum in epoch {epoch.index}"
        )
    return ExplicitQuorumSystem(
        epoch.universe,
        survivors,
        name=f"{system.name}@e{epoch.index}",
        validate=False,
    )


def severed_between(
    membership: Membership, start: int, end: int
) -> frozenset:
    """Servers severed anywhere in the epoch range ``[start, end]``.

    Used by the epoch-boundary history rules: a quorum acknowledged by a
    server severed in a covering epoch is evidence of a stale configuration.
    """
    combined: set[Hashable] = set()
    for index in range(max(0, start), min(end, membership.num_epochs - 1) + 1):
        combined |= membership.epoch(index).severed
    return frozenset(combined)


def plan_events(
    universe: Universe, steps: Sequence[tuple[str, int]]
) -> tuple[MembershipEvent, ...]:
    """Expand count-based reconfiguration steps into explicit events.

    Each step is ``(kind, count)``: ``"sever"`` evicts the last ``count``
    members of the *current* order (deterministic, no RNG), ``"join"``
    re-admits the most recently severed block — in its original relative
    order, so a sever/re-join round trip restores the universe exactly —
    and then mints fresh ids ``"j<epoch>.<i>"`` once the severed pool is
    exhausted.  This is the JSON-stable shape
    :class:`repro.api.membership.MembershipSpec` builds from.
    """
    members = list(universe.elements)
    severed_stack: list[Hashable] = []
    events: list[MembershipEvent] = []
    for step_index, (kind, count) in enumerate(steps):
        count = int(count)
        if count < 1:
            raise InvalidQuorumSystemError(
                f"step {step_index}: count must be >= 1, got {count}"
            )
        if kind == "sever":
            if count >= len(members):
                raise InvalidQuorumSystemError(
                    f"step {step_index}: severing {count} of {len(members)} "
                    "members would empty the universe"
                )
            victims = tuple(members[-count:])
            members = members[:-count]
            severed_stack.extend(victims)
            events.append(MembershipEvent(kind="sever", servers=victims))
        elif kind == "join":
            take = min(count, len(severed_stack))
            # Re-admit the most recently severed block, keeping its original
            # relative order so a sever/re-join round trip restores the
            # universe (and rebinding recognises the restored configuration).
            joiners: list[Hashable] = list(severed_stack[len(severed_stack) - take:])
            del severed_stack[len(severed_stack) - take:]
            fresh = 0
            while len(joiners) < count:
                joiners.append(f"j{step_index + 1}.{fresh}")
                fresh += 1
            members.extend(joiners)
            events.append(MembershipEvent(kind="join", servers=tuple(joiners)))
        else:
            raise InvalidQuorumSystemError(
                f"step {step_index}: kind must be one of {EVENT_KINDS}, got {kind!r}"
            )
    return tuple(events)
