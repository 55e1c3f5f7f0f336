"""The synchronous message layer, as the zero-latency event-network special case.

The paper's model is asynchronous-but-responsive: a client sends a request to
every member of a quorum and waits for all of their answers (Byzantine
replicas do answer — only crashed ones stay silent).  This layer models that
with synchronous request/response calls: ``send`` returns the reply in the
same Python call, and the response from a crashed replica is ``None``.

Since the event-driven core landed, this is no longer a separate
implementation: :class:`SynchronousNetwork` wraps an
:class:`~repro.simulation.events.EventNetwork` with
``LatencyModel.zero()`` and perfectly reliable links, and pumps the private
event scheduler to quiescence inside each ``send``.  Delivery, dispatch and
accounting are therefore one code path shared with the concurrent layer, and
``tests/test_simulation_events.py`` holds the two to operation-for-operation
agreement.

Accounting (aligned with the vectorised engine's Definition 3.8 fix): the
network distinguishes **attempted** deliveries (every send — probes of
crashed servers and both write phases included) from **delivered** requests
(actually handled by a responsive replica).  Neither is the empirical *load*
of Definition 3.8 — that is a successful-operation access frequency and is
accounted at the client layer (``QuorumClient.successful_access_counts``,
aggregated by ``ReplicatedRegister.empirical_loads``).  The network exposes
its counters as per-operation *message rates*, a cost diagnostic mirroring
the engine's ``per_server_messages`` / ``per_server_attempted``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.simulation.events import EventNetwork, EventScheduler
from repro.simulation.faults import FaultScenario
from repro.simulation.server import ReplicaServer

__all__ = ["SynchronousNetwork"]


class SynchronousNetwork:
    """Connects a set of replicas with immediate request/response delivery.

    Parameters
    ----------
    servers:
        The replica objects, keyed by their server id.
    scenario:
        Which servers are crashed (never answer).  Byzantine behaviour lives
        in the replica objects themselves; the network only models silence.
    """

    def __init__(self, servers: dict[Hashable, ReplicaServer], scenario: FaultScenario):
        self.scenario = scenario
        self._scheduler = EventScheduler()
        # The zero-latency, loss-free special case: deliveries happen "now"
        # and no network randomness is ever drawn, so wrapping the event core
        # is observationally identical to the old hand-rolled synchronous
        # implementation (and shares its accounting).
        self._events = EventNetwork(servers, scenario, scheduler=self._scheduler)

    @property
    def server_ids(self) -> frozenset:
        """The identities of all replicas on the network."""
        return self._events.server_ids

    def server(self, server_id: Hashable) -> ReplicaServer:
        """Return the replica object with the given id (test/inspection hook)."""
        return self._events.server(server_id)

    @property
    def attempted_counts(self) -> dict[Hashable, int]:
        """Requests sent to each server, crashed destinations included."""
        return self._events.attempted_counts

    @property
    def delivered_counts(self) -> dict[Hashable, int]:
        """Requests actually handled by each (responsive) server."""
        return self._events.delivered_counts

    def send(self, server_id: Hashable, request: object) -> object | None:
        """Deliver ``request`` to one replica and return its response.

        Returns ``None`` when the replica has crashed.  Unknown server ids
        and empty requests are configuration errors and raise.
        """
        replies: list[object] = []
        self._events.send(server_id, request, lambda _sid, reply: replies.append(reply))
        self._scheduler.run()
        return replies[0] if replies else None

    def broadcast(self, server_ids: Iterable[Hashable], request: object) -> dict[Hashable, object | None]:
        """Deliver ``request`` to several replicas and collect their responses."""
        return {server_id: self.send(server_id, request) for server_id in server_ids}

    def empirical_message_rates(
        self, total_operations: int, *, which: str = "attempted"
    ) -> dict[Hashable, float]:
        """Per-server ``"attempted"`` or ``"delivered"`` messages per operation.

        A cost diagnostic (see :meth:`EventNetwork.empirical_message_rates`);
        for the empirical *load* of Definition 3.8 use
        ``ReplicatedRegister.empirical_loads``.
        """
        return self._events.empirical_message_rates(total_operations, which=which)
