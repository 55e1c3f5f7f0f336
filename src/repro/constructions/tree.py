"""The tree quorum system of Agrawal and El Abbadi [AE91].

Servers are the nodes of a complete binary tree.  A quorum is defined
recursively: a quorum for a subtree is either its root together with a quorum
of *one* of its children, or a quorum of *both* children (the root is
bypassed).  Quorums range from a single root-to-leaf path (logarithmic size,
when nothing has failed) to roughly half the leaves (when many interior nodes
are bypassed), which is what gives the construction its graceful degradation.

It is a *regular* quorum system (``IS = 1``) cited in the paper's related
work; in this library it serves as another structurally interesting input to
the Section 6 boosting transform and as a stress test for the generic
measure machinery (it is neither fair nor symmetric).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.universe import Universe
from repro.exceptions import ConstructionError

__all__ = ["TreeQuorumSystem"]


class TreeQuorumSystem(QuorumSystem):
    """The tree quorum protocol over a complete binary tree of the given depth.

    Parameters
    ----------
    depth:
        Depth of the tree; ``depth = 0`` is a single node, ``depth = d`` has
        ``2^(d+1) - 1`` nodes.  Nodes are numbered heap-style: the root is 0
        and node ``i`` has children ``2i + 1`` and ``2i + 2``.
    """

    def __init__(self, depth: int):
        if depth < 0:
            raise ConstructionError(f"tree depth must be >= 0, got {depth}")
        if depth > 4:
            raise ConstructionError(
                "tree quorum enumeration beyond depth 4 explodes; "
                "compose smaller trees instead"
            )
        self.depth = depth
        self._n = 2 ** (depth + 1) - 1
        self._universe = Universe.of_size(self._n)
        self.name = f"TreeQuorum(depth={depth})"

    @property
    def universe(self) -> Universe:
        return self._universe

    def _node_depth(self, node: int) -> int:
        level = 0
        while node:
            node = (node - 1) // 2
            level += 1
        return level

    def _subtree_masks(self, root: int) -> list[int]:
        """Return the quorums of the subtree rooted at ``root`` (node ``i`` is bit ``i``)."""
        if self._node_depth(root) == self.depth:
            return [1 << root]
        left = self._subtree_masks(2 * root + 1)
        right = self._subtree_masks(2 * root + 2)
        # Root plus a quorum of either child.
        masks = [1 << root | mask for mask in left + right]
        # Both children's quorums, bypassing the root.
        masks.extend(l | r for l in left for r in right)
        return masks

    def iter_quorum_masks(self) -> Iterator[int]:
        # The three branches of the recursion are disjoint (the root, and
        # which child subtree is empty, tell them apart): no duplicates.
        return iter(self._subtree_masks(0))

    def min_quorum_size(self) -> int:
        """The cheapest quorum is a single root-to-leaf path: ``depth + 1`` nodes."""
        return self.depth + 1

    def sample_quorum_mask(self, rng: np.random.Generator) -> int:
        """Sample by walking the recursion, preferring the cheap (path) branches."""

        def sample_subtree(root: int) -> int:
            if self._node_depth(root) == self.depth:
                return 1 << root
            choice = rng.random()
            if choice < 0.8:
                child = 2 * root + 1 if rng.random() < 0.5 else 2 * root + 2
                return 1 << root | sample_subtree(child)
            return sample_subtree(2 * root + 1) | sample_subtree(2 * root + 2)

        return sample_subtree(0)
