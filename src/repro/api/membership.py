"""Declarative membership specs: JSON-stable reconfiguration timelines.

:class:`MembershipSpec` is to :class:`~repro.core.membership.Membership` what
:class:`~repro.api.registry.SystemSpec` is to a quorum system: a JSON-stable,
round-trippable description.  Events are *count-based* — ``("sever", k)``
evicts the last ``k`` servers of the current member order and ``("join", k)``
re-admits the most recently severed block first (minting fresh ids once the
severed pool is empty) — so a spec serialises without naming servers and
expands deterministically over any universe via
:func:`~repro.core.membership.plan_events`.

:class:`ReconfigScenario` wraps a spec under a catalogue name so the facade
(:func:`repro.api.workloads.run`) and the CLI can run reconfiguration
workloads like any other scenario; see ``docs/membership.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.membership import EVENT_KINDS, Membership, plan_events
from repro.core.universe import Universe
from repro.exceptions import InvalidParameterError
from repro.simulation.reconfig import REOPTIMISE_POLICIES, MembershipTimeline

__all__ = ["MembershipSpec", "ReconfigScenario"]


@dataclass(frozen=True)
class MembershipSpec:
    """A JSON-stable description of a membership timeline.

    Attributes
    ----------
    events:
        ``(kind, count)`` steps, in order; each step opens a new epoch.
        ``kind`` is ``"sever"`` or ``"join"``, ``count`` the number of
        servers the step removes or admits.
    fractions:
        Optional per-epoch workload fractions (``len(events) + 1`` values,
        positive, summing to 1); equal split when omitted.
    policy:
        Strategy re-optimisation policy applied on epoch change
        (:data:`~repro.simulation.reconfig.REOPTIMISE_POLICIES`).
    """

    events: tuple = ()
    fractions: tuple = ()
    policy: str = "reweight"

    def __post_init__(self):
        events = tuple((str(kind), int(count)) for kind, count in self.events)
        if not events:
            raise InvalidParameterError(
                "a membership spec needs at least one join/sever event"
            )
        for kind, count in events:
            if kind not in EVENT_KINDS:
                raise InvalidParameterError(
                    f"unknown membership event kind {kind!r}; "
                    f"choose one of {EVENT_KINDS}"
                )
            if count < 1:
                raise InvalidParameterError(
                    f"membership event counts must be >= 1, got {count}"
                )
        object.__setattr__(self, "events", events)
        fractions = tuple(float(value) for value in self.fractions)
        if fractions and len(fractions) != len(events) + 1:
            raise InvalidParameterError(
                f"{len(events) + 1} epochs but {len(fractions)} fractions"
            )
        object.__setattr__(self, "fractions", fractions)
        if self.policy not in REOPTIMISE_POLICIES:
            raise InvalidParameterError(
                f"unknown re-optimisation policy {self.policy!r}; "
                f"choose one of {REOPTIMISE_POLICIES}"
            )

    @property
    def num_epochs(self) -> int:
        return len(self.events) + 1

    def to_dict(self) -> dict:
        """The JSON-stable form (round-trips through :meth:`from_dict`)."""
        return {
            "events": [
                {"kind": kind, "count": count} for kind, count in self.events
            ],
            "fractions": list(self.fractions) if self.fractions else None,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MembershipSpec":
        if not isinstance(payload, dict) or "events" not in payload:
            raise InvalidParameterError(
                "a membership spec dict needs an 'events' list"
            )
        events = []
        for entry in payload["events"]:
            if isinstance(entry, dict):
                events.append((entry.get("kind"), entry.get("count")))
            else:
                kind, count = entry
                events.append((kind, count))
        fractions = payload.get("fractions") or ()
        policy = payload.get("policy", "reweight")
        return cls(events=tuple(events), fractions=tuple(fractions), policy=policy)

    def build(self, universe: Universe) -> MembershipTimeline:
        """Expand the spec over a concrete universe into a runnable timeline."""
        membership = Membership(universe, plan_events(universe, self.events))
        return MembershipTimeline(
            membership=membership, fractions=self.fractions, policy=self.policy
        )


@dataclass(frozen=True)
class ReconfigScenario:
    """A named reconfiguration scenario: a membership spec under a label.

    The facade builds the spec over the deployed universe into a
    :class:`~repro.simulation.reconfig.MembershipTimeline`, the scenario both
    engines' entry points accept.
    """

    name: str
    membership: MembershipSpec = field(
        default_factory=lambda: MembershipSpec(events=(("sever", 1), ("join", 1)))
    )
