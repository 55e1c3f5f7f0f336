"""Vertex-disjoint path counting via Menger's theorem.

The M-Path quorum system needs the maximum number of *vertex-disjoint* paths
between two sides of a (partially failed) lattice.  By Menger's theorem that
number equals the maximum flow in a network where every vertex is split into
an ``in`` and an ``out`` node joined by a unit-capacity edge, so that each
vertex can carry at most one path.

That network is never built.  A unit flow in it is a set of vertex-disjoint
paths, stored as two dicts (each path vertex's predecessor and successor), and
the residual graph the augmenting-path search walks is read off those dicts
and the caller's adjacency oracle:

* from the *out* node of ``v`` the search may enter the *in* node of any
  usable neighbour the path through ``v`` does not already continue to, and —
  when ``v`` is on a path — ``v``'s own *in* node (undoing its split edge);
* from the *in* node of a vertex on no path it crosses the free split edge to
  that vertex's *out* node; from the *in* node of a path vertex the only way
  on is back along the path, to the predecessor's *out* node;
* the *out* node of a usable sink that does not already end a path reaches
  the super-sink.

:class:`~repro.graphs.maxflow.FlowNetwork` on the explicit network is the
reference the tests hold this search to.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Hashable, Iterable

__all__ = ["max_vertex_disjoint_paths"]

#: ``pred`` of a path's first vertex / ``succ`` of its last.
_SOURCE = object()
_SINK = object()


def max_vertex_disjoint_paths(
    vertices: Collection[Hashable],
    neighbours: Callable[[Hashable], Iterable[Hashable]],
    sources: Collection[Hashable],
    sinks: Collection[Hashable],
    *,
    limit: int | None = None,
) -> int:
    """Return the maximum number of vertex-disjoint paths from ``sources`` to ``sinks``.

    Parameters
    ----------
    vertices:
        The usable (e.g. alive / open) vertices.  Paths may only pass through
        these.
    neighbours:
        Adjacency oracle; called for usable vertices only and may return
        neighbours that are not usable (they are ignored).
    sources, sinks:
        Vertex sets between which paths are counted.  Paths are disjoint
        *including* their endpoints, matching the M-Path requirement that the
        ``sqrt(2b+1)`` left-right paths of a quorum share no server.
    limit:
        The caller's question when it is "are there at least ``limit``
        paths?": the search stops once that many exist, so the result is
        ``min(limit, maximum)``.  ``None`` counts them all.

    Returns
    -------
    int
        The number of vertex-disjoint paths found.  Zero when no usable
        source can reach a usable sink.

    Notes
    -----
    One augmenting-path search per usable source, in the order given, is
    enough: a search that fails has explored a set of residual nodes whose
    only way out is back to the super-source, so no later augmenting walk
    passes through it and it stays a dead end; and a source that starts a
    path keeps starting one.
    Failed searches therefore share their visited marks (``dead_in`` /
    ``dead_out``) and cost ``O(V + E)`` between them; each successful one is
    ``O(V + E)``, so a call is ``O((found + 1)(V + E))`` over the usable part
    of the graph — linear in its size for a fixed ``limit``.
    """
    usable = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
    targets = usable.intersection(sinks)
    pred: dict[Hashable, Hashable] = {}
    succ: dict[Hashable, Hashable] = {}
    dead_in: set[Hashable] = set()
    dead_out: set[Hashable] = set()
    found = 0
    for start in sources:
        if limit is not None and found >= limit:
            break
        if start not in usable or start in dead_in or pred.get(start) is _SOURCE:
            continue
        # Explicit-stack depth-first search.  ``via[v] = (tail, door)``: v's
        # out node was reached from tail's out node through door's in node.
        # ``door == v`` is a step along a free edge onto a vertex on no path;
        # otherwise v was door's predecessor and the step cancels ``v -> door``.
        entered = {start}
        via: dict[Hashable, tuple[Hashable, Hashable]] = {}
        pending = [(_SOURCE, start)]
        while pending:
            tail, door = pending.pop()
            head = pred.get(door, door)
            if head is _SOURCE or head in via or head in dead_out:
                continue
            via[head] = (tail, door)
            if head in targets:
                # A path that ended here could not have been backed into, so
                # the sink edge is free.
                _reroute(head, via, pred, succ)
                found += 1
                break
            if head in pred and head not in entered and head not in dead_in:
                entered.add(head)
                pending.append((head, head))
            # The saturated edge head -> succ[head] needs no test of its own:
            # a path vertex's out node is only reached back through its
            # successor's in node, which is therefore in ``entered``.
            for neighbour in neighbours(head):
                if neighbour in usable and neighbour not in entered and neighbour not in dead_in:
                    entered.add(neighbour)
                    pending.append((head, neighbour))
        else:
            dead_in |= entered
            dead_out.update(via)
    return found


def _reroute(
    last: Hashable,
    via: dict[Hashable, tuple[Hashable, Hashable]],
    pred: dict[Hashable, Hashable],
    succ: dict[Hashable, Hashable],
) -> None:
    """Flip the flow along the augmenting walk that ends at ``last``'s out node.

    Every node of the walk is visited once, so each ``pred``/``succ`` entry it
    touches is written exactly once and the order of the writes is free.
    """
    succ[last] = _SINK
    head = last
    while head is not _SOURCE:
        tail, door = via[head]
        if door == tail:
            # Back through ``tail``'s own split edge: it leaves its path.
            del pred[door], succ[door]
        else:
            pred[door] = tail
            if tail is not _SOURCE:
                succ[tail] = door
        head = tail
