"""The masking-quorum client protocol of [MR98a]: one core, two drivers.

A client performs each operation at a single quorum of replicas:

* **write(v)** — query a quorum for timestamps, pick a timestamp strictly
  larger than every answer, then send ``(v, ts)`` to every member of a
  quorum and wait for their acknowledgements.
* **read()** — query a quorum for ``(value, timestamp)`` pairs, keep only the
  pairs returned by at least ``b + 1`` replicas (so that at least one honest
  replica vouches for each surviving pair), and return the value with the
  highest surviving timestamp.

Consistency relies exactly on the ``2b + 1`` intersection of masking quorum
systems: the read quorum shares at least ``2b + 1`` replicas with the last
complete write's quorum, of which at least ``b + 1`` are honest and report
the written pair, while any value fabricated by the at most ``b`` Byzantine
replicas is reported at most ``b`` times and filtered out.

**One core.**  :class:`ProtocolCore` is that protocol written once, with no
transport in it: ``read_operation()`` / ``write_operation(value)`` return
generators that *yield* broadcasts — ``(quorum, request)`` pairs — and are
*resumed* with ``{server_id: reply}`` for the members that answered.  A
member missing from that dict was silent: silence suspects it (the next
quorum steers around it), an answer exonerates it.  Every protocol decision
lives there — quorum choice, the probe budget, the fresh-timestamp rule, the
write-phase retry, the ``b + 1`` vouch rule (:func:`vouched_pair`),
``retry_unvouched_reads`` — as do the accounting, the history record and the
:class:`OperationResult` the generator returns.  ``attempts`` is the *real*
number of quorum probes (write-phase retries included), and
``successful_access_counts`` / ``attempted_access_counts`` mirror the
vectorised engine's ``per_server_load`` / ``per_server_attempted`` split, so
every path measures the same Definition 3.8 quantity
(:func:`access_frequencies` normalises them over a pool of clients).

**Two drivers**, one per clock, only move broadcasts (:func:`advance` steps
the generator) and supply the time.  They consume the client rng identically
for identical answers, which :func:`repro.analysis.empirical.driver_agreement`
checks operation for operation:

* :class:`AsyncQuorumClient` — over the event-driven network: replies resume
  the operation through callbacks, silence is one scheduler timeout per
  broadcast, the clock is ``scheduler.now``.  Many such clients interleave
  within one scheduler run, which is what makes concurrent histories (and
  their checking — see :mod:`repro.simulation.history`) possible.
* :class:`repro.service.client.ServiceQuorumClient` — over asyncio TCP
  connections to live replicas; silence is any transport failure within
  ``request_timeout`` real seconds, the clock is ``time.monotonic``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Collection, Generator, Hashable, Iterable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.masking import vouch_threshold
from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.events import EventNetwork
from repro.simulation.messages import (
    ReadRequest,
    Timestamp,
    TimestampRequest,
    ValueTimestampPair,
    WriteRequest,
)

if TYPE_CHECKING:  # circular at runtime: history records client results
    from repro.simulation.history import HistoryRecorder

__all__ = [
    "AsyncQuorumClient",
    "Operation",
    "OperationResult",
    "ProtocolCore",
    "RetryPolicy",
    "access_frequencies",
    "advance",
    "vouched_pair",
]

#: What an operation generator yields: send ``request`` to every member.
Broadcast = tuple[frozenset, object]
#: What it is resumed with: the replies of the members that answered.
Replies = dict[Hashable, Any]


@dataclass(frozen=True)
class OperationResult:
    """Outcome of a single client operation.

    Attributes
    ----------
    success:
        Whether a fully responsive quorum was found and the protocol
        completed.
    value:
        For reads, the returned value (``None`` on failure or when no
        sufficiently vouched pair exists).
    timestamp:
        For reads, the timestamp of the returned value; for writes, the
        timestamp that was installed.
    quorum:
        The quorum used by the successful attempt (``None`` on failure).
    attempts:
        How many quorum probes the operation actually made: the
        timestamp/read phase's probes, plus write-phase retry probes when
        the first write broadcast lost a quorum member.
    latency:
        Time from invocation to completion on the driver's clock: simulated
        time for event-driven clients, real seconds for the service client.
    """

    success: bool
    value: object = None
    timestamp: Timestamp | None = None
    quorum: frozenset | None = None
    attempts: int = 0
    latency: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client waits and retries (one policy for every driver).

    Attributes
    ----------
    max_attempts:
        Quorum probes per probing phase before the operation is declared
        failed (unavailability); the vectorised engine charges the same
        budget to an operation that finds no responsive quorum.
    request_timeout:
        Simulated time a probe waits for the slowest quorum member before
        declaring the silent members suspected and moving to another quorum.
    retry_unvouched_reads:
        When a read finds no pair vouched by ``b + 1`` replicas (possible
        under concurrency with an interleaved write), retry the read phase
        at a fresh quorum instead of reporting an unsuccessful read.  Off by
        default: an unvouched read is then reported as an unsuccessful
        operation (never with an unvouched value).
    """

    max_attempts: int = 10
    request_timeout: float = 1.0
    retry_unvouched_reads: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 < self.request_timeout < math.inf:
            raise SimulationError(
                f"request_timeout must be positive and finite, got {self.request_timeout}"
            )


#: A protocol operation in flight (see :class:`ProtocolCore`).
Operation = Generator[Broadcast, Replies, OperationResult]
#: An operation's protocol steps: the pair it tried to install, its outcome.
_Body = Generator[Broadcast, Replies, tuple[ValueTimestampPair | None, OperationResult]]


def vouched_pair(
    pairs: Iterable[ValueTimestampPair], b: int
) -> ValueTimestampPair | None:
    """The highest-timestamp pair reported at least
    :func:`~repro.core.masking.vouch_threshold` times.

    The masking rule of the read protocol: a forged pair never reaches the
    threshold and is discarded.  ``None`` when no pair reaches it.
    """
    votes = Counter(pairs)
    threshold = vouch_threshold(b)
    vouched = [pair for pair, count in votes.items() if count >= threshold]
    return max(vouched, key=lambda pair: pair.timestamp, default=None)


def advance(
    operation: Operation, answered: Replies | None = None
) -> Broadcast | OperationResult:
    """Take one step of a protocol operation.

    Starts the generator (``answered=None``) or resumes it with the replies
    to its last broadcast; returns the next broadcast it asks for, or the
    :class:`OperationResult` once it has finished.
    """
    try:
        return next(operation) if answered is None else operation.send(answered)
    except StopIteration as finished:
        result: OperationResult = finished.value
        return result


class ProtocolCore:
    """The transport-free client protocol (see the module docstring).

    Parameters
    ----------
    client_id:
        Unique integer identity, embedded in timestamps for uniqueness.
    system:
        The quorum system governing which replica sets constitute a quorum.
    b:
        The number of Byzantine failures the deployment is meant to mask;
        reads require each accepted pair to be vouched by ``b + 1`` replicas.
    policy:
        Probe budget and unvouched-read behaviour (``request_timeout`` is the
        driver's business: the core never waits).
    rng:
        Randomness source for quorum sampling.
    strategy:
        Optional access strategy (Definition 3.8) to sample quorums from —
        e.g. the load-optimal strategy of :func:`~repro.core.load.exact_load`,
        so clients access the system at its actual ``L(Q)`` instead of the
        construction's default sampling.  When omitted, quorums come from
        ``system.sample_quorum``.
    history:
        Optional :class:`~repro.simulation.history.HistoryRecorder`; every
        completed operation is recorded with its invocation/response times
        for the concurrent-history consistency checker.
    clock:
        The driver's notion of "now", read at invocation and at response.
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        *,
        b: int,
        policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        strategy: Strategy | None = None,
        history: "HistoryRecorder | None" = None,
        clock: Callable[[], float],
    ) -> None:
        if b < 0:
            raise SimulationError(f"masking parameter must be >= 0, got {b}")
        self.client_id = client_id
        self.system = system
        self.b = b
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = ensure_rng(rng)
        self.strategy = strategy
        self.history = history
        self.clock = clock
        #: The largest timestamp this client has observed or produced.
        self.last_timestamp = Timestamp.zero()
        #: Servers observed to be unresponsive; used as a simple failure
        #: detector so that retries steer towards live quorums (this is what
        #: makes the client achieve the system's resilience ``f`` instead of
        #: blindly resampling quorums that contain known-dead servers).
        self.suspected: set = set()
        #: Per-server quorum accesses of *successful* operations (the
        #: empirical-load numerator of Definition 3.8) and of *every* probe.
        self.successful_access_counts: Counter = Counter()
        self.attempted_access_counts: Counter = Counter()
        #: Operations completed successfully / started, for normalisation.
        self.successful_operations = 0
        self.operations_started = 0
        #: Broadcasts that some quorum member left unanswered (diagnostic).
        self.timeouts = 0
        self._busy = False

    # ------------------------------------------------------------------
    # Quorum selection.
    # ------------------------------------------------------------------
    def _choose_quorum(self) -> frozenset:
        """Sample a quorum, preferring one that avoids all suspected servers."""
        if self.strategy is not None:
            return self._choose_from_strategy(self.strategy)
        if not self.suspected:
            return self.system.sample_quorum(self.rng)
        return self.system.sample_quorum_avoiding(self.rng, frozenset(self.suspected))

    def _choose_from_strategy(self, strategy: Strategy, *, attempts: int = 50) -> frozenset:
        """Sample the access strategy, steering away from suspected servers.

        Mirrors ``QuorumSystem.sample_quorum_avoiding``: resample the strategy
        until a quorum avoids every suspected server, falling back to the last
        sample when avoidance keeps failing.
        """
        quorum = strategy.sample(self.rng)
        for _ in range(attempts):
            if not quorum & self.suspected:
                break
            quorum = strategy.sample(self.rng)
        return quorum

    # ------------------------------------------------------------------
    # Probing.
    # ------------------------------------------------------------------
    def _collect(
        self, quorum: frozenset, request: object
    ) -> Generator[Broadcast, Replies, Replies | None]:
        """Broadcast to a fixed quorum once; full reply set or ``None``.

        An answer exonerates — suspicion from lost messages or a crash window
        that has since ended must not permanently remove a correct server
        from quorum selection — and silence suspects.
        """
        replies = yield quorum, request
        self.suspected.difference_update(replies)
        silent = quorum - replies.keys()
        if silent:
            self.timeouts += 1
            self.suspected |= silent
            return None
        return replies

    def _probe(
        self, request: object
    ) -> Generator[Broadcast, Replies, tuple[frozenset | None, Replies, int]]:
        """Try up to ``max_attempts`` quorums; stop at the first responsive one.

        Returns ``(quorum, replies, attempts)`` with the real probe count, or
        ``(None, {}, max_attempts)`` when the budget is exhausted.
        """
        for attempt in range(1, self.policy.max_attempts + 1):
            quorum = self._choose_quorum()
            self.attempted_access_counts.update(quorum)
            replies = yield from self._collect(quorum, request)
            if replies is not None:
                return quorum, replies, attempt
        return None, {}, self.policy.max_attempts

    # ------------------------------------------------------------------
    # Operation lifecycle.
    # ------------------------------------------------------------------
    def _operation(self, kind: str, body: _Body) -> Operation:
        """Run one operation body as this client's single sequential step.

        ``body`` returns the pair it tried to install (writes only) and its
        outcome; this wrapper times it on the driver's clock, does the
        accounting and records the history entry.
        """
        if self._busy:
            raise SimulationError(
                f"client {self.client_id} already has an operation in flight; "
                "a register client is a single sequential process"
            )
        self._busy = True
        self.operations_started += 1
        invoked_at = self.clock()
        try:
            attempted_pair, outcome = yield from body
        finally:  # also when a driver abandons the operation (cancellation)
            self._busy = False
        responded_at = self.clock()
        result = replace(outcome, latency=responded_at - invoked_at)
        if result.success:
            self.successful_operations += 1
            self.successful_access_counts.update(result.quorum)
        if self.history is not None:
            self.history.record(
                client_id=self.client_id,
                kind=kind,
                invoked_at=invoked_at,
                responded_at=responded_at,
                result=result,
                attempted_pair=attempted_pair,
            )
        return result

    def _fresh_timestamp(self, replies: Replies) -> Timestamp:
        """Pick a timestamp strictly larger than every answer and all past picks.

        Advancing ``last_timestamp`` *here* — before the install completes —
        means a client never reuses a counter even when the install fails
        half-way, so every write operation in a history carries a unique
        timestamp (the property the history checker asserts).
        """
        highest = self.last_timestamp
        for reply in replies.values():
            if reply.timestamp > highest:
                highest = reply.timestamp
        fresh = highest.next_for(self.client_id)
        self.last_timestamp = fresh
        return fresh

    # ------------------------------------------------------------------
    # Protocol operations.
    # ------------------------------------------------------------------
    def write_operation(self, value: object) -> Operation:
        """Write ``value`` to the register (query timestamps, then install)."""
        return self._operation("write", self._write(value))

    def read_operation(self) -> Operation:
        """Read the register, masking up to ``b`` Byzantine replies."""
        return self._operation("read", self._read())

    def _write(self, value: object) -> _Body:
        quorum, replies, attempts = yield from self._probe(
            TimestampRequest(client_id=self.client_id)
        )
        if quorum is None:
            return None, OperationResult(success=False, attempts=attempts)
        pair = ValueTimestampPair(value=value, timestamp=self._fresh_timestamp(replies))
        install = WriteRequest(client_id=self.client_id, pair=pair)
        if (yield from self._collect(quorum, install)) is None:
            # The quorum answered the timestamp query but lost a member
            # before the write; retry the whole install through fresh
            # quorums, accumulating the real probe count.
            quorum, _acks, retry_attempts = yield from self._probe(install)
            attempts += retry_attempts
            if quorum is None:
                return pair, OperationResult(success=False, attempts=attempts)
        return pair, OperationResult(
            success=True, value=value, timestamp=pair.timestamp, quorum=quorum, attempts=attempts
        )

    def _read(self) -> _Body:
        request = ReadRequest(client_id=self.client_id)
        attempts = 0
        while True:
            quorum, replies, probes = yield from self._probe(request)
            attempts += probes
            if quorum is None:
                return None, OperationResult(success=False, attempts=attempts)
            best = vouched_pair((reply.pair for reply in replies.values()), self.b)
            if best is not None:
                if best.timestamp > self.last_timestamp:
                    self.last_timestamp = best.timestamp
                return None, OperationResult(
                    success=True,
                    value=best.value,
                    timestamp=best.timestamp,
                    quorum=quorum,
                    attempts=attempts,
                )
            # No pair vouched by b + 1 replicas: possible only under
            # concurrency (an interleaved write split the votes) or
            # mis-configuration.  Never return an unvouched value; the retry
            # policy decides between a fresh quorum and an unsuccessful read.
            if not (
                self.policy.retry_unvouched_reads
                and attempts < self.policy.max_attempts
            ):
                return None, OperationResult(success=False, quorum=quorum, attempts=attempts)


def access_frequencies(
    clients: Collection[ProtocolCore], universe: Collection[Hashable]
) -> tuple[dict[Hashable, float], dict[Hashable, float]]:
    """Per-server ``(successful, attempted)`` access frequencies of a client pool.

    The first dict is the empirical load of Definition 3.8: each server's
    share of the *successful* operations whose quorum contained it — a
    genuine access frequency, never above 1.  The second counts every probe,
    failed ones included, per started operation (the mirror of the engine's
    ``per_server_attempted``; it can exceed 1 under heavy faults because one
    operation may probe many quorums).
    """
    successful: Counter = sum((c.successful_access_counts for c in clients), Counter())
    attempted: Counter = sum((c.attempted_access_counts for c in clients), Counter())
    succeeded = max(1, sum(client.successful_operations for client in clients))
    started = max(1, sum(client.operations_started for client in clients))
    return (
        {server_id: successful[server_id] / succeeded for server_id in universe},
        {server_id: attempted[server_id] / started for server_id in universe},
    )


class AsyncQuorumClient(ProtocolCore):
    """The event-driven driver: operations resume as scheduler events fire.

    ``read``/``write`` start the operation and return immediately; the
    operation advances as replies arrive through the scheduler and completes
    by calling ``on_complete(OperationResult)``.  Because nothing blocks,
    any number of clients interleave their operations within one scheduler
    run.

    Parameters
    ----------
    client_id / system / b / rng / strategy / history:
        As for :class:`ProtocolCore`.
    network:
        The :class:`~repro.simulation.events.EventNetwork` to speak over.
    policy:
        Timeout and retry behaviour (:class:`RetryPolicy`).
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        network: EventNetwork,
        *,
        b: int,
        policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        strategy: Strategy | None = None,
        history: "HistoryRecorder | None" = None,
    ) -> None:
        super().__init__(
            client_id,
            system,
            b=b,
            policy=policy,
            rng=rng,
            strategy=strategy,
            history=history,
            clock=lambda: network.scheduler.now,
        )
        self.network = network

    def _pump(
        self,
        operation: Operation,
        on_complete: Callable[[OperationResult], None] | None,
        answered: Replies | None = None,
    ) -> None:
        """Step the operation; perform the broadcast it asks for, if any."""
        step = advance(operation, answered)
        if isinstance(step, OperationResult):
            if on_complete is not None:
                on_complete(step)
            return
        quorum, request = step
        replies: Replies = {}

        def close() -> None:
            # Cancelling the timeout doubles as the broadcast's closed flag:
            # replies that straggle in afterwards must not resume the
            # operation a second time.
            timeout.cancel()
            self._pump(operation, on_complete, replies)

        def on_reply(server_id: Hashable, reply: object) -> None:
            if timeout.cancelled or server_id in replies:  # late, or a duplicate
                return
            replies[server_id] = reply
            if len(replies) == len(quorum):
                close()

        self.network.broadcast(quorum, request, on_reply)
        timeout = self.network.scheduler.schedule(self.policy.request_timeout, close)

    def write(
        self, value: object, on_complete: Callable[[OperationResult], None] | None = None
    ) -> None:
        """Start writing ``value``; completion arrives through ``on_complete``."""
        self._pump(self.write_operation(value), on_complete)

    def read(
        self, on_complete: Callable[[OperationResult], None] | None = None
    ) -> None:
        """Start a read; completion arrives through ``on_complete``."""
        self._pump(self.read_operation(), on_complete)
