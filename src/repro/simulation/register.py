"""The replicated register service: replicas + network + clients, wired together.

:class:`ReplicatedRegister` is the deployment-level object: given a quorum
system, a masking parameter and a fault scenario it creates one replica per
universe element (Byzantine replicas where the scenario says so), a
synchronous network, and hands out clients.  It is the object the examples
and the protocol-level integration tests interact with.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.client import QuorumClient, access_frequencies
from repro.simulation.faults import FaultScenario, check_byzantine_budget
from repro.simulation.network import SynchronousNetwork
from repro.simulation.server import ByzantineReplicaServer, ReplicaServer

__all__ = ["ReplicatedRegister"]


class ReplicatedRegister:
    """A shared read/write register replicated over a masking quorum system.

    Parameters
    ----------
    system:
        The quorum system; its universe defines the replica set.
    b:
        The number of Byzantine failures the deployment masks.  The
        constructor refuses scenarios with more Byzantine servers than ``b``
        unless ``allow_overload`` is set (useful for tests that demonstrate
        what goes wrong beyond the masking bound).
    scenario:
        The fault scenario; fault-free by default.
    byzantine_behaviour:
        Behaviour of the Byzantine replicas (see
        :class:`~repro.simulation.server.ByzantineReplicaServer`).
    initial_value:
        Value held by every replica before the first write.
    rng:
        Randomness source shared by Byzantine replicas and clients.
    allow_overload:
        Permit ``|byzantine| > b`` (for negative tests).
    strategy:
        Default access strategy handed to every client (e.g. the
        load-optimal strategy from :func:`~repro.core.load.exact_load`);
        individual clients can still override it.
    """

    def __init__(
        self,
        system: QuorumSystem,
        *,
        b: int,
        scenario: FaultScenario | None = None,
        byzantine_behaviour: str = "fabricate-timestamp",
        initial_value: object = None,
        rng: np.random.Generator | None = None,
        allow_overload: bool = False,
        strategy: Strategy | None = None,
    ):
        scenario = scenario if scenario is not None else FaultScenario.fault_free()
        check_byzantine_budget(scenario.num_byzantine, b, allow_overload=allow_overload)
        unknown = (scenario.byzantine | scenario.crashed) - system.universe.as_frozenset()
        if unknown:
            raise SimulationError(
                f"fault scenario mentions servers outside the universe: "
                f"{sorted(unknown, key=repr)[:4]}"
            )

        self.system = system
        self.b = b
        self.scenario = scenario
        self.rng = ensure_rng(rng)
        self.strategy = strategy

        servers: dict[Hashable, ReplicaServer] = {}
        for server_id in system.universe:
            if server_id in scenario.byzantine:
                servers[server_id] = ByzantineReplicaServer(
                    server_id,
                    behaviour=byzantine_behaviour,
                    rng=self.rng,
                    initial_value=initial_value,
                )
            else:
                servers[server_id] = ReplicaServer(server_id, initial_value=initial_value)
        self.servers = servers
        self.network = SynchronousNetwork(servers, scenario)
        self._next_client_id = 0
        self._clients: list[QuorumClient] = []

    def client(
        self, *, max_attempts: int = 10, strategy: Strategy | None = None
    ) -> QuorumClient:
        """Create a new client of this register.

        The client samples quorums from ``strategy`` when given, falling back
        to the register's default strategy and finally to the system's own
        ``sample_quorum``.
        """
        client = QuorumClient(
            client_id=self._next_client_id,
            system=self.system,
            network=self.network,
            b=self.b,
            max_attempts=max_attempts,
            rng=self.rng,
            strategy=strategy if strategy is not None else self.strategy,
        )
        self._next_client_id += 1
        self._clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Inspection helpers used by experiments and tests.
    # ------------------------------------------------------------------
    def correct_replica_pairs(self) -> dict[Hashable, object]:
        """Return the ``(value, timestamp)`` pairs held by all correct replicas."""
        return {
            server_id: server.current_pair
            for server_id, server in self.servers.items()
            if self.scenario.is_correct(server_id)
        }

    def empirical_loads(self) -> dict[Hashable, float]:
        """Per-server access frequency over *successful* client operations.

        The empirical counterpart of the induced load ``l_w(u)`` of
        Definition 3.8, under the same accounting as the vectorised engine's
        ``per_server_load`` (see
        :func:`~repro.simulation.client.access_frequencies`); probes of
        failed operations are visible separately through ``attempted_loads``.
        """
        return access_frequencies(self._clients, self.system.universe)[0]

    def attempted_loads(self) -> dict[Hashable, float]:
        """Per-server probe frequency counting every attempt, failures included.

        Normalised by all started operations — the diagnostic mirror of the
        engine's ``per_server_attempted``; it can legitimately exceed 1.
        """
        return access_frequencies(self._clients, self.system.universe)[1]

    def max_empirical_load(self) -> float:
        """Return the busiest server's empirical access frequency."""
        return max(self.empirical_loads().values())
