"""In-memory span tracer, installed from outside ``src/repro``.

The benchmark measures layers *from outside*: :func:`install` replaces the
public entry points at each layer boundary (see :data:`TARGETS`) with timing
wrappers, in the benchmark's own process, and :func:`uninstall` puts the
originals back.  Nothing inside ``src/repro`` knows it is being traced.

A span is ``{name, layer, start, end, parent, op, count}``: ``parent`` is the
index of the span that was running when this one began (-1 for a root), and
``op`` the index of its root, so all spans of one operation share an
identifier.  The running span lives in a :mod:`contextvars` variable, which
asyncio copies into every task it creates — the four concurrent exchanges of
one quorum gather therefore all name the client operation as their parent.

A span's *self time* is its duration minus the part of it that its direct
children cover (the union of their intervals: concurrent children must not
be counted twice).  Summed over every span that is exactly the time covered
by root spans, so layer self times add up to the traced wall time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter

# Span record layout (a list, mutated in place when the call returns).
NAME, LAYER, START, END, PARENT, OP, COUNT = range(7)

_running: contextvars.ContextVar[int] = contextvars.ContextVar("bench_span", default=-1)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is a dotted module path, optionally followed by ``:Class``.
    ``everywhere`` also rebinds every ``from x import name`` alias of a
    module-level function across the loaded ``repro`` modules.  ``count``
    extracts a work count (draws, trials, bytes) from ``(args, kwargs,
    result)`` so ratios are measured where the work happens.
    """

    layer: str
    owner: str
    attr: str
    everywhere: bool = False
    count: object = None


def _trials(args, kwargs, _result):
    return int(kwargs.get("trials", 0))


def _batch_size(args, _kwargs, _result):
    size = args[2] if len(args) > 2 else _kwargs.get("size", 1)
    total = 1
    for part in size if isinstance(size, tuple) else (size,):
        total *= int(part)
    return total


def _rows(args, _kwargs, _result):
    return len(args[1]) if len(args) > 1 and hasattr(args[1], "__len__") else 0


#: Construction classes whose ``crash_probability`` is a Monte-Carlo sampler.
_SAMPLERS = (
    ("repro.constructions.mpath", "MPath"),
    ("repro.constructions.mgrid", "MGrid"),
    ("repro.constructions.grid", "RegularGrid"),
    ("repro.constructions.grid", "MaskingGrid"),
)

TARGETS: tuple[Target, ...] = (
    Target("api", "repro.api.workloads", "run", everywhere=True),
    Target("api", "repro.api.measures", "measure", everywhere=True),
    Target("api", "repro.api.registry", "build", everywhere=True),
    Target("simulation", "repro.simulation.runner", "run_workload", everywhere=True),
    Target(
        "simulation",
        "repro.simulation.runner",
        "run_event_workload",
        everywhere=True,
        count=lambda a, k, r: round(sum(r.per_server_messages.values()) * r.operations),
    ),
    Target("simulation", "repro.simulation.history:HistoryRecorder", "check"),
    Target("core", "repro.core.strategy:Strategy", "sample_many", count=_batch_size),
    Target("core", "repro.core.strategy:Strategy", "sample_index"),
    Target("core", "repro.core.bitset:BitsetEngine", "quorums_alive", count=_rows),
    Target("core", "repro.core.bitset:BitsetEngine", "alive_quorum_exists", count=_rows),
    Target("core", "repro.core.bitset:BitsetEngine", "intersection_counts", count=_rows),
    Target("core", "repro.core.load", "exact_load", everywhere=True),
    Target("core", "repro.core.availability", "exact_failure_probability", everywhere=True),
    Target(
        "core",
        "repro.core.availability",
        "monte_carlo_failure_probability",
        everywhere=True,
        count=_trials,
    ),
    Target("constructions", "repro.core.quorum_system:QuorumSystem", "quorum_masks"),
    Target("constructions", "repro.core.quorum_system:QuorumSystem", "quorums"),
    # The event engine's clients draw quorums from the construction itself.
    Target("constructions", "repro.constructions.mgrid:MGrid", "sample_quorum"),
    *(
        Target("constructions", f"{module}:{cls}", "crash_probability", count=_trials)
        for module, cls in _SAMPLERS
    ),
    Target("graphs", "repro.graphs.disjoint_paths", "max_vertex_disjoint_paths", everywhere=True),
    Target("service", "repro.service.client:ServiceQuorumClient", "read"),
    Target("service", "repro.service.client:ServiceQuorumClient", "write"),
    # The count of a write_frame span identifies its connection.
    Target("service", "repro.service.wire", "write_frame", count=lambda a, k, r: id(a[0])),
    Target("service", "repro.service.wire", "read_frame"),
    Target("service", "repro.service.wire", "encode_frame", count=lambda a, k, r: len(r)),
    Target("service", "repro.service.wire", "decode_frame", count=lambda a, k, r: len(a[0])),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def _wrap(self, name: str, target: Target, func):
        spans = self.spans
        layer, count = target.layer, target.count

        def begin() -> tuple[list, contextvars.Token]:
            parent = _running.get()
            index = len(spans)
            op = spans[parent][OP] if parent >= 0 else index
            record = [name, layer, 0.0, 0.0, parent, op, 0]
            spans.append(record)
            token = _running.set(index)
            record[START] = perf_counter()
            return record, token

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced(*args, **kwargs):
                record, token = begin()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    record[END] = perf_counter()
                    _running.reset(token)
                if count is not None:
                    record[COUNT] = count(args, kwargs, result)
                return result

        else:

            @functools.wraps(func)
            def traced(*args, **kwargs):
                record, token = begin()
                try:
                    result = func(*args, **kwargs)
                finally:
                    record[END] = perf_counter()
                    _running.reset(token)
                if count is not None:
                    record[COUNT] = count(args, kwargs, result)
                return result

        return traced

    def install(self) -> None:
        """Wrap every target; idempotence is the caller's job (use once)."""
        for target in TARGETS:
            module_path, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_path)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[target.attr]
            short = f"{class_name or module_path.rsplit('.', 1)[-1]}.{target.attr}"
            wrapper = self._wrap(short, target, original)
            holders = [owner]
            if target.everywhere:
                holders += [
                    other
                    for path, other in list(sys.modules.items())
                    if path.startswith("repro")
                    and other is not module
                    and getattr(other, "__dict__", {}).get(target.attr) is original
                ]
            for holder in holders:
                self._undo.append((holder, target.attr, original))
                setattr(holder, target.attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------
    def dump(self, path) -> int:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": span[LAYER],
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "parent": span[PARENT],
                            "op": span[OP],
                            "count": span[COUNT],
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def children_of(spans: list[list]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    return children


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus what its children cover."""
    children = children_of(spans)
    result = []
    for index, span in enumerate(spans):
        inside = covered([(spans[c][START], spans[c][END]) for c in children.get(index, ())])
        result.append(span[END] - span[START] - inside)
    return result


@dataclass
class NameTotals:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    count: int = 0


def totals_by_name(spans: list[list]) -> tuple[dict[str, NameTotals], dict[str, float]]:
    """Per-span-name call/time/count totals and per-layer self seconds."""
    by_name: dict[str, NameTotals] = {}
    by_layer: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = by_name.setdefault(span[NAME], NameTotals())
        entry.calls += 1
        entry.total += span[END] - span[START]
        entry.self_total += own
        entry.count += span[COUNT]
        by_layer[span[LAYER]] = by_layer.get(span[LAYER], 0.0) + own
    return by_name, by_layer


def durations(spans: list[list], name: str) -> list[float]:
    return [span[END] - span[START] for span in spans if span[NAME] == name]
