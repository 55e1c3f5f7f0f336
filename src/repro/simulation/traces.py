"""Trace-driven workloads: open-loop arrivals through the event core.

The event runner's default workload is *closed-loop*: each client issues its
next operation when the previous one completes, so the offered rate adapts
to the service rate and queueing never builds up.  Real traffic is
open-loop — operations arrive on a clock, whether or not the system has
caught up — and that is where latency percentiles become interesting: under
a diurnal peak the sojourn time (arrival to completion, queueing included)
departs from the bare service time.

A :class:`TraceScenario` describes the arrival process: either an explicit
trace (``(time, "read"|"write")`` pairs, e.g. loaded from JSON via
:meth:`TraceScenario.from_records`) or a synthetic *diurnal* process — a
sinusoidal intensity with a configurable peak-to-trough ratio, sampled by
inverse-transform so exactly the requested number of arrivals land in one
period.
``skew`` adds hot-key concentration: the access strategy is re-weighted by a
Zipf law over its support, modelling clients that hammer a few popular
quorums (the load the busiest server sees under skew is exactly what the
paper's ``L(Q)`` optimisation is about).

Given a :class:`TraceScenario`,
:func:`repro.simulation.runner.run_event_workload` replays the arrivals over
the event stack with a fixed pool of
:class:`~repro.simulation.client.AsyncQuorumClient` workers and a FIFO
queue (a register client is a single sequential process, so an arrival
waits for a free client).  The reported latency statistics are **sojourn
times** — queueing delay plus protocol latency — which is what an open-loop
trace uniquely measures; the queueing delay is also reported separately
(:class:`~repro.simulation.runner.TraceWorkloadResult`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.floats import is_zero
from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.engine import resolve_strategy
from repro.simulation.events import LatencyModel, TimingScenario
from repro.simulation.faults import FaultScenario

__all__ = ["TraceScenario", "hot_quorum_strategy"]

_OP_KINDS = frozenset({"read", "write"})


@dataclass(frozen=True)
class TraceScenario:
    """An open-loop arrival trace plus the timing environment to replay it in.

    Attributes
    ----------
    name:
        Human-readable label used in tables and reports.
    arrivals:
        Explicit trace: ``(time, kind)`` pairs with non-decreasing times and
        ``kind`` in ``{"read", "write"}``.  When empty, a diurnal process is
        generated instead (see below) with exactly the requested operation
        count.
    period:
        Length of the diurnal cycle in simulated time units; the generated
        arrivals span one period.
    peak_ratio:
        Peak-to-trough intensity ratio of the diurnal cycle (``1`` recovers
        a uniform arrival process).
    skew:
        Zipf exponent for hot-quorum concentration; ``0`` leaves the access
        strategy untouched (see :func:`hot_quorum_strategy`).
    timing:
        The event layer's environment during the replay: fault states,
        latency, link faults and the lie Byzantine replicas tell.  The
        default is fault-free over ``LatencyModel.uniform(1.0, 0.5)``.
    """

    name: str
    arrivals: tuple = ()
    period: float = 120.0
    peak_ratio: float = 4.0
    skew: float = 0.0
    timing: TimingScenario = field(
        default_factory=lambda: TimingScenario.static(
            FaultScenario.fault_free(), latency=LatencyModel.uniform(1.0, 0.5)
        )
    )

    def __post_init__(self):
        if self.period <= 0.0:
            raise SimulationError(f"period must be positive, got {self.period}")
        if self.peak_ratio < 1.0:
            raise SimulationError(
                f"peak_ratio must be >= 1, got {self.peak_ratio}"
            )
        if self.skew < 0.0:
            raise SimulationError(f"skew must be >= 0, got {self.skew}")
        arrivals = tuple((float(time), kind) for time, kind in self.arrivals)
        object.__setattr__(self, "arrivals", arrivals)
        previous = 0.0
        for time, kind in arrivals:
            if time < 0.0:
                raise SimulationError(f"arrival times must be >= 0, got {time}")
            if time < previous:
                raise SimulationError("arrival times must be non-decreasing")
            if kind not in _OP_KINDS:
                raise SimulationError(
                    f"arrival kind must be 'read' or 'write', got {kind!r}"
                )
            previous = time

    @classmethod
    def from_records(
        cls, name: str, records: Iterable[Mapping[str, object]], **kwargs: Any
    ) -> "TraceScenario":
        """Build a trace from ``{"t": float, "op": "read"|"write"}`` records.

        This is the on-disk trace format ``python -m repro run --trace``
        accepts: a JSON array of such objects, sorted by ``t``.
        """
        try:
            arrivals = tuple((float(item["t"]), str(item["op"])) for item in records)
        except (TypeError, KeyError, ValueError) as exc:
            raise SimulationError(
                "trace records must be objects with a numeric 't' and an 'op' field"
            ) from exc
        return cls(name=name, arrivals=arrivals, **kwargs)

    def arrival_schedule(
        self,
        num_operations: int,
        rng: np.random.Generator,
        *,
        write_fraction: float = 0.5,
    ) -> tuple:
        """The ``(time, kind)`` arrivals this trace replays.

        An explicit trace is returned verbatim (``num_operations`` is
        ignored; the trace defines the workload).  Otherwise exactly
        ``num_operations`` diurnal arrivals are sampled over one period by
        inverse-transform from the intensity
        ``1 + (peak_ratio - 1) * (1 - cos(2*pi*t/period)) / 2`` and each is
        a write with probability ``write_fraction``.
        """
        if self.arrivals:
            return self.arrivals
        if num_operations < 1:
            raise SimulationError(
                f"num_operations must be >= 1, got {num_operations}"
            )
        grid = np.linspace(0.0, self.period, 2049)
        intensity = 1.0 + (self.peak_ratio - 1.0) * 0.5 * (
            1.0 - np.cos(2.0 * np.pi * grid / self.period)
        )
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (intensity[1:] + intensity[:-1]) * np.diff(grid))]
        )
        cumulative /= cumulative[-1]
        times = np.interp(np.sort(rng.random(num_operations)), cumulative, grid)
        writes = rng.random(num_operations) < write_fraction
        return tuple(
            (float(time), "write" if is_write else "read")
            for time, is_write in zip(times, writes)
        )


def hot_quorum_strategy(
    system: QuorumSystem,
    *,
    skew: float,
    base: Strategy | None = None,
) -> Strategy:
    """Re-weight an access strategy by a Zipf law over its support.

    Quorum ``i`` of the base strategy's support (in support order) has its
    probability multiplied by ``(i + 1) ** -skew`` and the result is
    renormalised — a handful of "popular" quorums soak up most accesses,
    the hot-key pattern of real key-value traffic.  ``skew = 0`` returns the
    base strategy unchanged.
    """
    if skew < 0.0:
        raise SimulationError(f"skew must be >= 0, got {skew}")
    resolved = base if base is not None else resolve_strategy(system, None)
    if is_zero(skew):
        return resolved
    ranks = np.arange(1, len(resolved) + 1, dtype=float)
    weights = resolved.probabilities * ranks ** (-skew)
    return Strategy(
        dict(zip(resolved.support, weights)),
        normalise=True,
    )
