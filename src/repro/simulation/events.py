"""Discrete-event core of the message-level simulator.

The original message layer was strictly synchronous: a client called
``network.send`` and got the reply in the same Python call, so only one
client could be "on the wire" at a time and nothing timing-dependent —
concurrent readers and writers, slow-but-correct servers, messages lost or
reordered in flight — could be exercised.  This module replaces that with a
discrete-event simulation:

* :class:`EventScheduler` — a heap-based event loop with deterministic
  ``(time, sequence)`` ordering and lazy cancellation; ``schedule(delay,
  callback, *args)`` carries the callback's arguments with the event, as
  asyncio's ``call_later`` does;
* :class:`LatencyModel` — per-link message delays (constant + uniform jitter
  + exponential tail), with per-server multipliers for asymmetric links;
* :class:`LinkFaults` — message loss and duplication probabilities
  (reordering falls out of random per-message latencies);
* :class:`TimingScenario` — the one timed fault schedule: a time-indexed
  sequence of :class:`~repro.simulation.faults.FaultScenario` states (so
  servers can crash and recover *mid-operation*), the link models and the
  Byzantine replicas' lie;
* :class:`EventNetwork` — the asynchronous message layer: ``send`` schedules
  a delivery and returns immediately; replies come back through callbacks at
  a later simulated time.

A blocking, one-client-at-a-time register is the **zero-latency special
case**: with ``LatencyModel.zero()`` and clean links no network randomness is
drawn, and running the scheduler to quiescence after each operation makes
every operation complete before the next starts
(:func:`repro.analysis.empirical.driver_agreement` holds the asyncio service
driver to that reference operation for operation).  Which handler answers a
request is not the network's business: a delivered request goes to :meth:`ReplicaServer.handle
<repro.simulation.server.ReplicaServer.handle>`, the same entry point the TCP
service calls.

The message is the unit of cost.  Each one is a heap entry — a plain
``(time, sequence, handle)`` tuple, compared in C — whose handle holds a
bound method and its arguments, not a closure; the timing and fault models
are frozen, so their zero/clean flags and per-server factor maps are
computed once.  Every jitter, loss, duplication and tail uniform a network
uses comes from one stream, refilled from its generator 64 draws at a time
and only when the last draw is used: the same values, in the same order, as
one scalar ``rng.random()`` per draw, at C cost per message.  A delivery
looks up the fault state in force and, only when that is a different state
object, rebuilds its crashed set and service-delay table.  None of this
changes which events fire, in which order, or which random numbers are
drawn.

Accounting (aligned with the vectorised engine's Definition 3.8 fix): the
network keeps **attempted** deliveries (every send, crashed/lost included)
separate from **delivered** requests (actually handled by a responsive
server); load normalisation by successful operations lives one level up, in
the clients (see :mod:`repro.simulation.client`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from repro.core import floats
from repro.core.rng import ensure_rng
from repro.core.universe import Universe
from repro.exceptions import SimulationError
from repro.simulation.faults import FaultScenario
from repro.simulation.server import BYZANTINE_BEHAVIOURS, ReplicaServer

__all__ = [
    "EventNetwork",
    "EventScheduler",
    "LatencyModel",
    "LinkFaults",
    "ScheduledEvent",
    "TimingScenario",
]


# ----------------------------------------------------------------------
# The event loop.
# ----------------------------------------------------------------------
def _cancelled_callback() -> None:
    """What a cancelled handle holds instead of its callback (never fired)."""


class ScheduledEvent:
    """Handle of a callback scheduled on an :class:`EventScheduler`.

    The scheduler orders its heap by ``(time, sequence)`` tuples — the
    sequence number breaks ties in scheduling order, which keeps runs
    deterministic for a fixed seed, and is unique, so a handle is never
    compared.  The handle holds only what firing needs, ``callback(*args)``,
    and the cancellation flag.  Cancellation is lazy: the scheduler skips
    cancelled events when it pops them.
    """

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Callable[..., object], args: tuple) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Like asyncio's ``Handle.cancel``, this also drops the callback and
        its arguments, so a callback that holds its own handle (a timeout
        that cancels itself) is not left in a reference cycle.
        """
        self.cancelled = True
        self.callback = _cancelled_callback
        self.args = ()


class EventScheduler:
    """A heap-based discrete-event loop.

    ``schedule`` inserts a callback at ``now + delay`` and returns a handle
    that can be cancelled; ``run`` pops events in time order, advancing
    :attr:`now` to each event's time before firing it.  Callbacks may
    schedule further events (that is how protocol state machines resume
    themselves).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        #: Number of events fired (cancelled events excluded).
        self.events_processed = 0

    def schedule(
        self, delay: float, callback: Callable[..., object], *args: object
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        As with asyncio's ``call_later``, the arguments travel with the
        event, so a caller passes a bound method and its arguments instead of
        building a closure per message.  ``delay`` must be finite and
        non-negative.
        """
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"cannot schedule an event {delay} from now: "
                "a delay must be finite and non-negative"
            )
        event = ScheduledEvent(callback, args)
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), event))
        return event

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        """Fire events in time order; return how many fired.

        Stops when the heap is empty, when the next event lies beyond
        ``until``, or after ``max_events`` events (a guard against runaway
        protocol loops).  Events exactly at ``until`` still fire.  The clock
        then advances to ``until`` only if no pending event precedes it, so
        a run cut short by ``max_events`` never moves time past an event it
        has not fired.
        """
        if until is not None and not -math.inf < until < math.inf:
            raise SimulationError(f"cannot run until {until}: the bound must be finite")
        heap = self._heap
        fired = 0
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                if until is not None and heap[0][0] > until:
                    break
                time, _, event = heapq.heappop(heap)
                if event.cancelled:
                    continue
                # Every pending time is >= now: delays are non-negative and
                # the clock only moves to a popped time or to an ``until`` no
                # pending event precedes.
                self.now = time
                event.callback(*event.args)
                fired += 1
        finally:
            self.events_processed += fired
        if until is not None:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if not heap or heap[0][0] > until:
                self.now = max(self.now, until)
        return fired


# ----------------------------------------------------------------------
# Timing knobs.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyModel:
    """Per-link one-way message delay.

    A delay sample is ``(base + U[0, jitter) + Exp(tail_mean)) * factor``,
    where ``factor`` is the per-server multiplier (defaults to 1).  Its
    randomness is read from an iterator of ``U[0, 1)`` floats (an
    :class:`EventNetwork`'s stream): one uniform scaled by ``jitter``, then
    one for the tail, which is drawn by inversion, ``-tail_mean * log(1 -
    U)``.  With all three parameters zero the model draws **no randomness at
    all**, which is what makes a zero-latency client consume the same rng
    stream as any other driver of the protocol core given the same answers.

    Parameters
    ----------
    base:
        Deterministic delay component applied to every message.
    jitter:
        Width of the uniform random component; any positive jitter makes
        messages overtake each other (reordering).
    tail_mean:
        Mean of an exponential component modelling congestion tails.
    server_factors:
        Per-server multiplier on *link* delays to/from that server, as a
        tuple of ``(server_id, factor)`` pairs — asymmetric links (a distant
        rack, a congested uplink).  Slow-but-correct *servers* are a fault
        state, not a link property: use ``FaultScenario.slow``, which
        stretches service time at the replica.
    """

    base: float = 0.0
    jitter: float = 0.0
    tail_mean: float = 0.0
    server_factors: tuple = ()

    def __post_init__(self):
        if not all(
            0.0 <= component < math.inf
            for component in (self.base, self.jitter, self.tail_mean)
        ):
            raise SimulationError("latency components must be finite and non-negative")
        for server_id, factor in self.server_factors:
            if not 0.0 < factor < math.inf:
                raise SimulationError(
                    f"latency factor for server {server_id!r} must be positive "
                    f"and finite, got {factor}"
                )

    @staticmethod
    def zero() -> "LatencyModel":
        """The degenerate model: every message arrives instantly."""
        return LatencyModel()

    @staticmethod
    def uniform(base: float, jitter: float) -> "LatencyModel":
        """Constant floor plus uniform jitter — the workhorse LAN model."""
        return LatencyModel(base=base, jitter=jitter)

    # The model is frozen, so its derived views are computed once (on first
    # use) and read per message as plain attributes.
    @cached_property
    def is_zero(self) -> bool:
        """Whether the model is deterministic zero delay (draws no randomness)."""
        return (
            floats.is_zero(self.base)
            and floats.is_zero(self.jitter)
            and floats.is_zero(self.tail_mean)
        )

    @cached_property
    def _factors(self) -> dict[Hashable, float]:
        """``server_factors`` as a map; the first entry of a repeated id wins."""
        return dict(reversed(self.server_factors))

    def factor_for(self, server_id: Hashable) -> float:
        """The link multiplier of ``server_id`` (1.0 unless listed)."""
        return self._factors.get(server_id, 1.0)

    def sample(self, uniforms: Iterator[float], server_id: Hashable) -> float:
        """Draw one one-way delay for a message to/from ``server_id``,
        taking its jitter and tail uniforms from ``uniforms`` in that order."""
        if self.is_zero:
            return 0.0
        delay = self.base
        if self.jitter > 0.0:
            delay += self.jitter * next(uniforms)
        if self.tail_mean > 0.0:
            delay -= self.tail_mean * math.log1p(-next(uniforms))
        return delay * self._factors.get(server_id, 1.0)


@dataclass(frozen=True)
class LinkFaults:
    """Message-level link misbehaviour.

    Each direction of each request/reply is independently lost with
    probability ``loss`` and duplicated with probability ``duplication``.
    A lost *request* looks to the client exactly like a crashed server (the
    per-request timeout fires); a lost *reply* additionally means the server
    did the work without the client learning of it.  With both probabilities
    zero no randomness is drawn.
    """

    loss: float = 0.0
    duplication: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise SimulationError(f"loss probability must lie in [0, 1), got {self.loss}")
        if not 0.0 <= self.duplication <= 1.0:
            raise SimulationError(
                f"duplication probability must lie in [0, 1], got {self.duplication}"
            )

    @staticmethod
    def none() -> "LinkFaults":
        """Perfectly reliable links."""
        return LinkFaults()

    @cached_property
    def is_clean(self) -> bool:
        """Whether no message is ever lost or duplicated (computed once)."""
        return floats.is_zero(self.loss) and floats.is_zero(self.duplication)

    def copies(self, uniforms: Iterator[float]) -> int:
        """How many copies of a message actually travel (0 = lost), taking
        the loss and then the duplication uniform from ``uniforms``."""
        if self.is_clean:
            return 1
        if self.loss > 0.0 and next(uniforms) < self.loss:
            return 0
        if self.duplication > 0.0 and next(uniforms) < self.duplication:
            return 2
        return 1


@dataclass(frozen=True)
class TimingScenario:
    """A *timed* fault schedule: the event engine's one input.

    Where :class:`~repro.simulation.scenarios.WorkloadScenario` slices a
    batch of operations into fractional phases (the vectorised engine has no
    clock), a timing scenario speaks the event layer's language: fault
    states anchored at simulated *times*, the link latency/reliability
    models, and the lie Byzantine replicas tell.  A bare
    :class:`~repro.simulation.faults.FaultScenario` is the always-active
    special case (:meth:`static`, :meth:`of`).

    Attributes
    ----------
    name:
        Human-readable label used in tables and reports.
    transitions:
        ``(time, FaultScenario)`` pairs, stored in time order; the state
        whose time is the largest not exceeding the current simulated time
        is in force, so servers crash and recover *mid-operation* — the
        network consults :meth:`active` at each delivery's time.  The first
        state must start at time 0 and the times must be finite and
        distinct; all of this is checked at construction.
    latency:
        The link latency model (constant + jitter + exponential tail, with
        per-server slow factors coming from the fault states themselves).
    link_faults:
        Message loss / duplication probabilities.
    byzantine_behaviour:
        The lie Byzantine replicas tell
        (:data:`~repro.simulation.server.BYZANTINE_BEHAVIOURS`).
    """

    name: str
    transitions: tuple[tuple[float, FaultScenario], ...]
    latency: LatencyModel = LatencyModel()
    link_faults: LinkFaults = LinkFaults()
    byzantine_behaviour: str = "fabricate-timestamp"

    def __post_init__(self):
        if not self.transitions:
            raise SimulationError("a timing scenario needs at least one fault state")
        ordered = tuple(sorted(self.transitions, key=itemgetter(0)))
        times, states = zip(*ordered)
        for time in times:
            if not -math.inf < time < math.inf:
                raise SimulationError(f"transition times must be finite, got {time}")
        if times[0] > 0.0:
            raise SimulationError(
                f"the first fault state must start at time 0, got {times[0]}"
            )
        if len(set(times)) != len(times):
            raise SimulationError("transition times must be distinct")
        if self.byzantine_behaviour not in BYZANTINE_BEHAVIOURS:
            raise SimulationError(
                f"unknown Byzantine behaviour {self.byzantine_behaviour!r}; "
                f"choose one of {sorted(BYZANTINE_BEHAVIOURS)}"
            )
        object.__setattr__(self, "transitions", ordered)
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_states", states)

    @classmethod
    def static(
        cls,
        scenario: FaultScenario,
        *,
        name: str = "static",
        latency: LatencyModel | None = None,
        link_faults: LinkFaults | None = None,
        byzantine_behaviour: str = "fabricate-timestamp",
    ) -> "TimingScenario":
        """Wrap a single fault state as an always-active timing scenario."""
        return cls(
            name=name,
            transitions=((0.0, scenario),),
            latency=latency if latency is not None else LatencyModel(),
            link_faults=link_faults if link_faults is not None else LinkFaults(),
            byzantine_behaviour=byzantine_behaviour,
        )

    @classmethod
    def of(cls, scenario: "TimingScenario | FaultScenario | None") -> "TimingScenario":
        """The event engine's input coercion, in one place.

        A timing scenario passes through; a bare :class:`FaultScenario` is
        wrapped by :meth:`static` (zero latency, clean links,
        ``"fabricate-timestamp"``); ``None`` is the fault-free schedule.
        """
        if isinstance(scenario, cls):
            return scenario
        if scenario is None:
            scenario = FaultScenario.fault_free()
        if not isinstance(scenario, FaultScenario):
            raise SimulationError(
                "scenario must be a TimingScenario or FaultScenario, "
                f"got {type(scenario).__name__}"
            )
        return cls.static(scenario)

    @property
    def byzantine(self) -> frozenset:
        """Servers Byzantine in *any* state (replica behaviour is fixed per run)."""
        return frozenset().union(*[state.byzantine for state in self._states])

    @property
    def max_byzantine(self) -> int:
        """The largest simultaneous Byzantine count over all states."""
        return max(state.num_byzantine for state in self._states)

    def active(self, time: float) -> FaultScenario:
        """The fault state in force at simulated ``time``."""
        return self._states[bisect_right(self._times, time) - 1]

    def validate_against(self, universe: Universe) -> None:
        """Check that every state only mentions servers of ``universe``."""
        universe_set = universe.as_frozenset()
        for time, state in self.transitions:
            unknown = (
                state.byzantine
                | state.crashed
                | frozenset(server_id for server_id, _ in state.slow)
            ) - universe_set
            if unknown:
                raise SimulationError(
                    f"fault state at time {time} mentions servers outside the "
                    f"universe: {sorted(unknown, key=repr)[:4]}"
                )


# ----------------------------------------------------------------------
# The asynchronous message layer.
# ----------------------------------------------------------------------
#: Uniforms an :class:`EventNetwork` draws from its generator per refill.
_UNIFORM_BLOCK = 64


class EventNetwork:
    """Connects replicas through the event scheduler.

    ``send`` charges the attempted-delivery counter, samples the request's
    fate (latency, loss, duplication) and returns immediately; the reply — if
    the server is responsive at delivery time and no message is lost — comes
    back through ``on_reply(server_id, reply)`` at a strictly later scheduler
    step.  Crashed servers and lost messages produce *nothing*: detecting
    silence is the caller's job (clients run per-request timeouts).

    Parameters
    ----------
    servers:
        Replica objects keyed by server id.
    scenario:
        The timed fault schedule: fault states over time plus the link
        latency and reliability models (see :meth:`TimingScenario.of` for
        how a bare :class:`FaultScenario` is wrapped — zero latency, clean
        links, under which no network randomness is drawn).  Slow-server
        factors of the active state stretch the server's service time.
    scheduler:
        The event loop deliveries are scheduled on.
    rng:
        Randomness source for latency samples and loss/duplication draws.
        The network reads it through one stream of uniforms, drawn
        ``rng.random(64)`` at a time when the previous block is used up, so
        a run consumes the values a scalar ``rng.random()`` per draw would,
        in the same order; the generator is never advanced when both models
        are deterministic.
    """

    def __init__(
        self,
        servers: dict[Hashable, ReplicaServer],
        scenario: TimingScenario | FaultScenario,
        *,
        scheduler: EventScheduler,
        rng: np.random.Generator | None = None,
    ):
        if not servers:
            raise SimulationError("a network needs at least one replica")
        self._servers = dict(servers)
        self.scenario = TimingScenario.of(scenario)
        self.scheduler = scheduler
        self._latency = self.scenario.latency
        self._link_faults = self.scenario.link_faults
        self.rng = generator = ensure_rng(rng)
        # ``iter(f, None)`` calls ``f`` only when the chain needs its next
        # block (a list is never ``None``), so nothing is drawn ahead of use.
        self._uniforms: Iterator[float] = itertools.chain.from_iterable(
            iter(lambda: generator.random(_UNIFORM_BLOCK).tolist(), None)
        )
        # The fault state in force at the last delivery, and its views.
        self._state: FaultScenario | None = None
        self._crashed: frozenset = frozenset()
        self._service_delays: dict[Hashable, float] = {}
        #: Requests sent to each server (crashed/lost ones included: the
        #: client pays the message either way).
        self.attempted_counts: dict[Hashable, int] = {sid: 0 for sid in self._servers}
        #: Requests actually handled by a responsive server.
        self.delivered_counts: dict[Hashable, int] = {sid: 0 for sid in self._servers}

    @property
    def server_ids(self) -> frozenset:
        """The identities of all replicas on the network."""
        return frozenset(self._servers)

    def server(self, server_id: Hashable) -> ReplicaServer:
        """Return the replica object with the given id (test/inspection hook)."""
        return self._servers[server_id]

    @property
    def now(self) -> float:
        return self.scheduler.now

    def send(
        self,
        server_id: Hashable,
        request: object,
        on_reply: Callable[[Hashable, object], None],
    ) -> None:
        """Send ``request`` towards one replica; the reply arrives by callback.

        The request travels for one sampled latency, is handled (or silently
        dropped, if the server is crashed *at delivery time* or the message
        is lost), and the reply travels back for another sampled latency —
        possibly overtaking other messages.  Duplicated requests are handled
        twice; the caller sees at most one reply per handled copy and must
        de-duplicate by ``server_id`` if it cares.
        """
        self.broadcast((server_id,), request, on_reply)

    def broadcast(
        self,
        server_ids: Iterable[Hashable],
        request: object,
        on_reply: Callable[[Hashable, object], None],
    ) -> None:
        """Send ``request`` to several replicas; replies arrive individually.

        Each member is sent to as by :meth:`send`, in iteration order; the
        request is validated once for all of them.
        """
        if request is None:
            raise SimulationError("cannot deliver an empty request")
        uniforms = self._uniforms
        schedule = self.scheduler.schedule
        sample = self._latency.sample
        deliver = self._deliver
        attempted = self.attempted_counts
        link_faults = self._link_faults
        clean = link_faults.is_clean
        for server_id in server_ids:
            server = self._servers.get(server_id)
            if server is None:
                raise SimulationError(f"no replica with id {server_id!r} on this network")
            attempted[server_id] += 1
            for _ in range(1 if clean else link_faults.copies(uniforms)):
                schedule(sample(uniforms, server_id), deliver, server_id, server, request, on_reply)

    def _deliver(
        self,
        server_id: Hashable,
        server: ReplicaServer,
        request: object,
        on_reply: Callable[[Hashable, object], None],
    ) -> None:
        state = self.scenario.active(self.scheduler.now)
        # A timeline holds each fault state as one frozen object, so identity
        # says whether the views still hold; comparing states by value would
        # cost more than it saves.
        if state is not self._state:
            self._enter(state)
        if server_id in self._crashed:
            return  # dead on arrival: the client's timeout is the only signal
        self.delivered_counts[server_id] += 1
        reply = server.handle(request)
        service_delay = self._service_delays.get(server_id, 0.0)
        uniforms = self._uniforms
        link_faults = self._link_faults
        for _ in range(1 if link_faults.is_clean else link_faults.copies(uniforms)):
            self.scheduler.schedule(
                service_delay + self._latency.sample(uniforms, server_id),
                on_reply,
                server_id,
                reply,
            )

    def _enter(self, state: FaultScenario) -> None:
        """Make ``state`` the fault state in force: its crashed set and the
        service delay of each of its slow servers."""
        self._state = state
        self._crashed = state.crashed
        # A slow server stretches its service time by (factor - 1) mean link
        # latencies; with a zero-latency model there is no timescale to
        # stretch, so slowness degenerates to zero delay.
        latency = self._latency
        mean_latency = latency.base + 0.5 * latency.jitter + latency.tail_mean
        self._service_delays = {}
        for server_id, _ in state.slow:
            slow = state.slow_factor(server_id)
            if slow > 1.0 and not latency.is_zero:
                self._service_delays[server_id] = (slow - 1.0) * mean_latency

    def empirical_message_rates(
        self, total_operations: int, *, which: str = "attempted"
    ) -> dict[Hashable, float]:
        """Per-server messages per client operation (a cost diagnostic).

        ``which="attempted"`` counts every send (retries, both write phases
        and probes to crashed servers included), ``which="delivered"`` only
        requests a responsive server handled.  Either is a *message* rate,
        **not** the empirical load of Definition 3.8: the load
        (successful-operation access frequency, never above 1) is accounted
        at the client layer; see
        :func:`~repro.simulation.client.access_frequencies`.
        """
        if total_operations <= 0:
            raise SimulationError(
                f"total_operations must be positive, got {total_operations}"
            )
        if which not in ("attempted", "delivered"):
            raise SimulationError(
                f"which must be 'attempted' or 'delivered', got {which!r}"
            )
        counts = self.attempted_counts if which == "attempted" else self.delivered_counts
        return {
            server_id: count / total_operations for server_id, count in counts.items()
        }
