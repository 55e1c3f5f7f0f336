"""Networked masking-quorum register service.

The live-deployment layer over the protocol core: asyncio TCP replicas
(:mod:`repro.service.replica`) speaking a length-prefixed JSON frame
protocol (:mod:`repro.service.wire`) whose READ_TS / READ / WRITE phases
mirror the simulator's message schema, an async client library
(:mod:`repro.service.client`) that drives the same protocol core as the
simulator's clients and records checker-compatible histories, and a
supervisor + load generator (:mod:`repro.service.harness`) behind
``python -m repro serve`` / ``python -m repro loadgen``.

See ``docs/service.md`` for the wire protocol, deployment and
fault-injection knobs, and the simulator-vs-service fidelity table.
"""

from repro.service.client import ServiceQuorumClient, call_endpoint
from repro.service.harness import (
    ClusterSpec,
    ReplicaHandle,
    ServiceCluster,
    ServiceRunResult,
    discover_initial_pair,
    load_cluster_file,
    run_load,
    run_supervisor,
)
from repro.service.replica import ReplicaConfig, ReplicaService, run_replica
from repro.service.wire import MAX_FRAME_BYTES, decode_frame, encode_frame

__all__ = [
    "MAX_FRAME_BYTES",
    "ClusterSpec",
    "ReplicaConfig",
    "ReplicaHandle",
    "ReplicaService",
    "ServiceCluster",
    "ServiceQuorumClient",
    "ServiceRunResult",
    "call_endpoint",
    "decode_frame",
    "discover_initial_pair",
    "encode_frame",
    "load_cluster_file",
    "run_load",
    "run_replica",
    "run_supervisor",
]
