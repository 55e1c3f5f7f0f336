"""Fault models for the replicated-register simulation.

The paper's hybrid fault model distinguishes *Byzantine* servers (up to
``b``, arbitrary behaviour) from *crashed* servers (possibly many more,
simply unresponsive).  A :class:`FaultScenario` fixes which servers are in
which state for the duration of an experiment; :class:`FaultInjector`
produces scenarios either with exact counts (``b`` Byzantine, ``f`` crashed)
or with the independent-crash model of Definition 3.10 (each server crashed
with probability ``p``).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.rng import ensure_rng
from repro.core.universe import Universe
from repro.exceptions import SimulationError

__all__ = ["FaultScenario", "FaultInjector", "check_byzantine_budget"]


@dataclass(frozen=True)
class FaultScenario:
    """An assignment of fault states to servers.

    Attributes
    ----------
    byzantine:
        Servers that behave arbitrarily (they respond, but may lie).
    crashed:
        Servers that never respond.  A server cannot be both Byzantine and
        crashed; crashing a Byzantine server would only weaken it.
    slow:
        *Timing* faults: ``(server_id, factor)`` pairs for servers that are
        correct but slow — their service time is stretched by ``factor`` > 1.
        Only the event-driven layer (:mod:`repro.simulation.events`) gives
        slowness meaning; the vectorised engine, which has no notion of
        time, ignores it.  A crashed server cannot also be slow.
    """

    byzantine: frozenset = field(default_factory=frozenset)
    crashed: frozenset = field(default_factory=frozenset)
    slow: tuple = ()

    def __post_init__(self):
        overlap = self.byzantine & self.crashed
        if overlap:
            raise SimulationError(
                f"servers {sorted(overlap, key=repr)[:4]} are marked both Byzantine and crashed"
            )
        if isinstance(self.slow, dict):
            object.__setattr__(
                self,
                "slow",
                tuple(sorted(self.slow.items(), key=lambda item: repr(item[0]))),
            )
        for server_id, factor in self.slow:
            if not 1.0 <= factor < math.inf:
                raise SimulationError(
                    f"slow factor for server {server_id!r} must be finite and >= 1, "
                    f"got {factor}"
                )
            if server_id in self.crashed:
                raise SimulationError(
                    f"server {server_id!r} is marked both crashed and slow"
                )

    @property
    def num_byzantine(self) -> int:
        """The number of Byzantine servers."""
        return len(self.byzantine)

    @property
    def num_crashed(self) -> int:
        """The number of crashed servers."""
        return len(self.crashed)

    def is_correct(self, server_id: Hashable) -> bool:
        """Return ``True`` when the server is neither Byzantine nor crashed."""
        return server_id not in self.byzantine and server_id not in self.crashed

    def is_responsive(self, server_id: Hashable) -> bool:
        """Return ``True`` when the server replies to messages (possibly with lies)."""
        return server_id not in self.crashed

    @cached_property
    def _slow_factors(self) -> dict[Hashable, float]:
        """``slow`` as a map, computed once; the first entry of a repeated id wins."""
        return dict(reversed(self.slow))

    def slow_factor(self, server_id: Hashable) -> float:
        """Service-time multiplier of a server (1.0 unless marked slow)."""
        return self._slow_factors.get(server_id, 1.0)

    @staticmethod
    def fault_free() -> "FaultScenario":
        """The scenario with no faults at all."""
        return FaultScenario()


def check_byzantine_budget(num_byzantine: int, b: int, *, allow_overload: bool) -> None:
    """Refuse a negative ``b``, and more than ``b`` Byzantine servers unless
    ``allow_overload`` (negative tests run beyond the masking bound)."""
    if b < 0:
        raise SimulationError(f"masking parameter must be >= 0, got {b}")
    if not allow_overload and num_byzantine > b:
        raise SimulationError(
            f"scenario has {num_byzantine} Byzantine servers but the "
            f"deployment only masks b={b}; pass allow_overload=True to force it"
        )


class FaultInjector:
    """Produces fault scenarios over a fixed universe of servers.

    Parameters
    ----------
    universe:
        The servers of the replicated service.
    rng:
        Source of randomness; a fresh default generator when omitted.
    """

    def __init__(self, universe: Universe, rng: np.random.Generator | None = None):
        self.universe = universe
        self.rng = ensure_rng(rng)

    def _sample_servers(self, count: int, excluded: frozenset = frozenset()) -> frozenset:
        available = [element for element in self.universe if element not in excluded]
        if count > len(available):
            raise SimulationError(
                f"cannot pick {count} servers from {len(available)} available ones"
            )
        if count == 0:
            return frozenset()
        indices = self.rng.choice(len(available), size=count, replace=False)
        return frozenset(available[int(index)] for index in indices)

    def exact(self, num_byzantine: int, num_crashed: int = 0) -> FaultScenario:
        """Return a scenario with exactly the given fault counts, chosen uniformly."""
        if num_byzantine < 0 or num_crashed < 0:
            raise SimulationError("fault counts must be non-negative")
        byzantine = self._sample_servers(num_byzantine)
        crashed = self._sample_servers(num_crashed, excluded=byzantine)
        return FaultScenario(byzantine=byzantine, crashed=crashed)

    def independent_crashes(self, p: float, *, byzantine: Iterable[Hashable] = ()) -> FaultScenario:
        """Return a scenario where each non-Byzantine server crashes with probability ``p``.

        This is the probabilistic model behind the crash probability
        ``Fp`` (Definition 3.10); the optional fixed Byzantine set lets
        experiments combine both fault types.
        """
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"crash probability must lie in [0, 1], got {p}")
        byzantine_set = frozenset(byzantine)
        crashed = frozenset(
            element
            for element in self.universe
            if element not in byzantine_set and self.rng.random() < p
        )
        return FaultScenario(byzantine=byzantine_set, crashed=crashed)

    def targeted(
        self,
        byzantine: Iterable[Hashable],
        crashed: Iterable[Hashable] = (),
        *,
        slow: dict | None = None,
    ) -> FaultScenario:
        """Return a scenario with explicitly chosen fault sets (validated against the universe)."""
        byzantine_set = self.universe.subset(byzantine)
        crashed_set = self.universe.subset(crashed)
        slow_map = dict(slow) if slow else {}
        unknown = frozenset(slow_map) - self.universe.as_frozenset()
        if unknown:
            raise SimulationError(
                f"slow servers outside the universe: {sorted(unknown, key=repr)[:4]}"
            )
        return FaultScenario(byzantine=byzantine_set, crashed=crashed_set, slow=slow_map)

    def slow(self, count: int, factor: float, *, byzantine: Iterable[Hashable] = ()) -> FaultScenario:
        """Return a scenario with ``count`` uniformly chosen slow-but-correct servers."""
        byzantine_set = self.universe.subset(byzantine)
        chosen = self._sample_servers(count, excluded=byzantine_set)
        return FaultScenario(
            byzantine=byzantine_set, slow={server_id: factor for server_id in chosen}
        )
