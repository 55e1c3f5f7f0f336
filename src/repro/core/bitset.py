"""Bitmask quorum engine: compact set encodings for the hot combinatorial paths.

Every quorum over an indexed :class:`~repro.core.universe.Universe` of ``n``
servers can be encoded as a Python ``int`` whose bit ``i`` is set exactly when
the server at universe position ``i`` belongs to the quorum.  Subset tests,
intersections and unions then become single machine-word operations (or a few
of them), and a whole quorum list becomes either

* a tuple of ``int`` bitmasks (arbitrary ``n``, exact arithmetic), or
* a bit-packed ``numpy`` array of ``uint64`` words, ``shape (m, ceil(n/64))``,
  on which pairwise intersections and popcounts vectorise.

Survival checks over a batch of ``T`` crash configurations are bit-sliced the
other way round: one ``uint64`` bit row per *server* over the trials, ORed
across each quorum's members, so a quorum of ``k`` members costs
``k·ceil(T/64)`` word operations whatever ``n`` is — integer arithmetic only,
with no float product and no BLAS.

:class:`BitsetEngine` bundles both encodings with the quorum/element incidence
matrix and the survival kernel's member-index table, each built on first use
and cached **per engine** (one per system object); all the measure
computations in :mod:`repro.core` (load LP assembly, exact and Monte-Carlo
availability, masking verification, transversal search) go through it.  The
frozenset API of :class:`~repro.core.quorum_system.QuorumSystem` remains the
public surface — the engine is the representation underneath it.

Paper notation for the quantities computed here is catalogued in
``docs/notation.md``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import compress, islice, repeat

import numpy as np

from repro.core.universe import Universe
from repro.exceptions import ComputationError

__all__ = [
    "BitsetEngine",
    "frozensets_of",
    "incidence_from_masks",
    "iter_bit_indices",
    "mask_of",
    "mask_to_frozenset",
    "masks_of",
    "pack_mask",
    "pack_masks",
]

#: Width of the numpy words the packed encoding uses.
_WORD_BITS = 64


def mask_of(elements: Iterable[Hashable], universe: Universe) -> int:
    """Return the bitmask of ``elements`` over ``universe``'s index order."""
    mask = 0
    for element in elements:
        mask |= 1 << universe.index_of(element)
    return mask


def masks_of(quorums: Iterable[Iterable[Hashable]], universe: Universe) -> tuple[int, ...]:
    """Return the bitmask of every quorum, preserving iteration order."""
    return tuple(mask_of(quorum, universe) for quorum in quorums)


def iter_bit_indices(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Maps the ASCII digits of a binary numeral to the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_to_frozenset(mask: int, universe: Universe) -> frozenset:
    """Return the universe elements whose bits are set in ``mask``."""
    elements = universe.elements
    if mask < 0 or mask >> len(elements):
        raise ComputationError(
            f"mask {mask:#b} is negative or has bits beyond the "
            f"{len(elements)}-element universe"
        )
    # Byte i is bit i of the mask: its binary numeral, reversed, as 0/1 bytes.
    bits = format(mask, "b")[::-1].encode().translate(_BIT_BYTES)
    return frozenset(compress(elements, bits))


def pack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """Pack bitmasks into a ``(len(masks), ceil(n/64))`` array of ``uint64`` words.

    Word ``j`` of row ``i`` holds bits ``64 j .. 64 j + 63`` of ``masks[i]``
    (little-endian word order), so ``numpy.bitwise_count`` over a row sums to
    the quorum size.
    """
    num_words = max(1, -(-n // _WORD_BITS))
    width = num_words * (_WORD_BITS // 8)
    try:
        blob = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    except OverflowError:
        raise ComputationError(
            f"a bitmask is negative or has bits beyond the {n}-element universe"
        ) from None
    packed = np.frombuffer(blob, dtype="<u8").astype(np.uint64)
    return packed.reshape(len(masks), num_words)


def pack_mask(mask: int, n: int) -> np.ndarray:
    """Pack a single bitmask into a ``(ceil(n/64),)`` array of ``uint64`` words."""
    return pack_masks((mask,), n)[0]


def incidence_from_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """Return the boolean incidence matrix (rows: masks, columns: bit index)."""
    return _unpack(pack_masks(masks, n), n)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The boolean incidence matrix of a :func:`pack_masks` array."""
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def frozensets_of(masks: Sequence[int], universe: Universe) -> list[frozenset]:
    """Return :func:`mask_to_frozenset` of every mask, in one array pass.

    One ``np.nonzero`` over the incidence matrix lists every member of every
    mask, row by row and in increasing bit order — the order the per-mask walk
    inserts them in — so the frozensets equal the walk's, iteration order
    included.
    """
    incidence = incidence_from_masks(masks, universe.size)
    _, columns = np.nonzero(incidence)
    members = iter(map(universe.elements.__getitem__, columns.tolist()))
    sizes = np.count_nonzero(incidence, axis=1).tolist()
    return [frozenset(islice(members, size)) for size in sizes]


class BitsetEngine:
    """Cached bitmask/incidence views of one quorum list over one universe.

    The packed words, the incidence matrix, the quorum sizes and the
    ``(k_max, m)`` member-index table of :meth:`quorums_alive` /
    :meth:`alive_quorum_exists` are each built on first use and kept for the
    engine's lifetime; the survival checks allocate only per-batch words.

    Parameters
    ----------
    universe:
        The indexed universe the bit positions refer to.
    masks:
        One ``int`` bitmask per quorum, in enumeration order.  The order is
        preserved everywhere so that results can be mapped back to the
        system's ``quorums()`` tuple by position.
    """

    __slots__ = ("_universe", "_masks", "_packed", "_incidence", "_members", "_sizes")

    def __init__(self, universe: Universe, masks: Sequence[int]):
        limit = 1 << universe.size
        for mask in masks:
            if not 0 <= mask < limit:
                raise ComputationError(
                    f"bitmask {mask:#x} has bits outside the {universe.size}-element universe"
                )
        self._universe = universe
        self._masks = tuple(masks)
        self._packed: np.ndarray | None = None
        self._incidence: np.ndarray | None = None
        self._members: np.ndarray | None = None
        self._sizes: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def masks(self) -> tuple[int, ...]:
        """The quorums as ``int`` bitmasks, in enumeration order."""
        return self._masks

    @property
    def n(self) -> int:
        return self._universe.size

    @property
    def num_quorums(self) -> int:
        return len(self._masks)

    # ------------------------------------------------------------------
    # Cached array views.
    # ------------------------------------------------------------------
    def packed(self) -> np.ndarray:
        """The bit-packed ``(m, ceil(n/64))`` ``uint64`` view (built once)."""
        if self._packed is None:
            self._packed = pack_masks(self._masks, self.n)
            self._packed.setflags(write=False)
        return self._packed

    def incidence_matrix(self) -> np.ndarray:
        """The boolean quorum/element incidence matrix (built once, read-only).

        Rows are quorums in enumeration order, columns universe positions.
        """
        if self._incidence is None:
            self._incidence = _unpack(self.packed(), self.n)
            self._incidence.setflags(write=False)
        return self._incidence

    def quorum_sizes(self) -> np.ndarray:
        """Per-quorum cardinalities ``|Q|`` as an int64 vector (built once)."""
        if self._sizes is None:
            sizes = np.bitwise_count(self.packed()).sum(axis=1, dtype=np.int64)
            sizes.setflags(write=False)
            self._sizes = sizes
        return self._sizes

    # ------------------------------------------------------------------
    # Combinatorial measures.
    # ------------------------------------------------------------------
    def min_quorum_size(self) -> int:
        return int(self.quorum_sizes().min())

    def max_quorum_size(self) -> int:
        return int(self.quorum_sizes().max())

    def degrees(self) -> np.ndarray:
        """Per-element quorum membership counts, indexed by universe position."""
        return self.incidence_matrix().sum(axis=0, dtype=np.int64)

    def first_pair_intersecting_below(self, required: int) -> tuple[int, int] | None:
        """Return the first quorum pair (combinations order) meeting in < ``required``.

        "First" follows ``itertools.combinations`` order over quorum indices:
        smallest first index, then smallest second index.  Returns ``None``
        when every pair intersects in at least ``required`` elements.
        """
        packed = self.packed()
        for first in range(self.num_quorums - 1):
            overlap = np.bitwise_count(packed[first] & packed[first + 1 :]).sum(
                axis=1, dtype=np.int64
            )
            below = np.nonzero(overlap < required)[0]
            if below.size:
                return first, first + 1 + int(below[0])
        return None

    def min_intersection_size(self) -> int:
        """Return ``IS``, the smallest pairwise intersection, by vectorised popcount.

        For a single-quorum system this is the quorum size, mirroring the
        convention of :meth:`QuorumSystem.min_intersection_size`.
        """
        if self.num_quorums == 1:
            return int(self.quorum_sizes()[0])
        packed = self.packed()
        smallest: int | None = None
        for first in range(self.num_quorums - 1):
            overlap = np.bitwise_count(packed[first] & packed[first + 1 :]).sum(
                axis=1, dtype=np.int64
            )
            candidate = int(overlap.min())
            if smallest is None or candidate < smallest:
                smallest = candidate
                if smallest == 0:
                    break
        return int(smallest)

    def all_pairs_intersect(self) -> bool:
        """Return ``True`` when every two quorums share at least one element."""
        return self.first_pair_intersecting_below(1) is None

    # ------------------------------------------------------------------
    # Survival checks (availability hot paths).
    # ------------------------------------------------------------------
    def subset_survival_table(self) -> np.ndarray:
        """Return a boolean table over all ``2^n`` alive-sets: does a quorum survive?

        Entry ``a`` is ``True`` exactly when some quorum is a subset of the
        alive-set with bitmask ``a``.  Built by the superset-closure dynamic
        program (one vectorised pass per bit), so the whole table costs
        ``O(n 2^n)`` bit operations instead of ``O(m 2^n)`` subset tests.
        """
        n = self.n
        if n > 26:
            raise ComputationError(
                f"refusing to materialise a survival table over 2^{n} alive-sets"
            )
        table = np.zeros(1 << n, dtype=bool)
        table[list(self._masks)] = True
        for bit in range(n):
            step = 1 << bit
            view = table.reshape(-1, 2, step)
            view[:, 1, :] |= view[:, 0, :]
        return table

    def _member_table(self) -> np.ndarray:
        """The ``(k_max, m)`` member-index table of the survival kernel (built once).

        Column ``q`` lists the universe positions of quorum ``q``'s members in
        increasing order; a quorum smaller than the largest one is padded with
        the sentinel index ``n``, which :meth:`_alive_words` points at an
        all-zero row, so padding never marks a quorum dead.
        """
        if self._members is None:
            sizes = self.quorum_sizes()
            k_max = int(sizes.max(initial=0))
            # Append k_max - |Q| sentinel slots to each incidence row, so that
            # every row holds exactly k_max set entries in increasing order.
            slots = np.concatenate(
                [self.incidence_matrix(), np.arange(k_max) < (k_max - sizes)[:, None]], axis=1
            )
            columns = np.flatnonzero(slots) % slots.shape[1]
            np.minimum(columns, self.n, out=columns)
            table = np.ascontiguousarray(columns.reshape(self.num_quorums, k_max).T)
            table.setflags(write=False)
            self._members = table
        return self._members

    def _alive_words(self, crashed: np.ndarray) -> np.ndarray:
        """Bit-sliced survival: ``(m, ceil(T/64))`` ``uint64`` words, one bit per trial.

        ``crashed`` is a ``(T, n)`` boolean batch.  Its transpose is packed into
        one bit row per server over the trials (bit ``t`` of row ``i`` set when
        server ``i`` crashed in trial ``t``), with the last word zero-padded and
        an all-zero sentinel row at index ``n``.  OR-ing each quorum's member
        rows — one :meth:`_member_table` row at a time — marks the trials in
        which the quorum lost a member; the inverse marks those in which it is
        alive.  Bits past ``T`` in the last word are set and must not be read.
        Integer word operations only: ``m·k·ceil(T/64)`` ORs for quorums of at
        most ``k`` members, exact for any ``n``.
        """
        n = self.n
        table = self._member_table()
        num_words = -(-crashed.shape[0] // _WORD_BITS)
        bits = np.zeros((n + 1, num_words), dtype=np.uint64)
        packed = np.packbits(crashed.T, axis=1, bitorder="little")
        bits.view(np.uint8)[:n, : packed.shape[1]] = packed
        dead = np.zeros((table.shape[1], num_words), dtype=np.uint64)
        gathered = np.empty(dead.shape, dtype=np.uint64)
        for members in table:
            bits.take(members, axis=0, out=gathered, mode="clip")
            dead |= gathered
        return np.invert(dead, out=dead)

    def quorums_alive(self, crashed: np.ndarray) -> np.ndarray:
        """Per-quorum survival over a batch of crash configurations.

        Parameters
        ----------
        crashed:
            Boolean array of shape ``(batch, n)`` (or ``(n,)`` for a single
            configuration); entry ``(t, i)`` says the server at universe
            position ``i`` crashed in configuration ``t``.

        Returns
        -------
        numpy.ndarray
            C-contiguous boolean array of shape ``(batch, num_quorums)``:
            entry ``(t, q)`` is ``True`` when quorum ``q`` contains no crashed
            member of configuration ``t``.  This is the per-phase
            quorum-responsiveness matrix the workload scenario engine runs on.
        """
        crashed = np.atleast_2d(crashed)
        words = self._alive_words(crashed)
        flags = np.unpackbits(
            words.view(np.uint8), axis=1, count=crashed.shape[0], bitorder="little"
        )
        return np.ascontiguousarray(flags.T).view(bool)

    def alive_quorum_exists(self, crashed: np.ndarray) -> np.ndarray:
        """Vectorised survival check over a batch of crash configurations.

        Parameters
        ----------
        crashed:
            Boolean array of shape ``(batch, n)``; entry ``(t, i)`` says the
            server at universe position ``i`` crashed in trial ``t``.

        Returns
        -------
        numpy.ndarray
            Boolean vector of length ``batch``: some quorum has no crashed
            member.
        """
        some_alive = np.bitwise_or.reduce(self._alive_words(crashed), axis=0)
        return np.unpackbits(
            some_alive.view(np.uint8), count=crashed.shape[0], bitorder="little"
        ).view(bool)

    def intersection_counts(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        restrict_words: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pairwise ``|Q_a ∩ Q_b (∩ R)|`` for aligned batches of quorum indices.

        Parameters
        ----------
        rows_a, rows_b:
            Integer index arrays of equal shape, selecting quorums by
            enumeration order.
        restrict_words:
            Optional packed ``uint64`` filter (one row of :func:`pack_masks`
            per entry, broadcastable against the selected rows) intersected
            into every pair — e.g. the correct-server set when counting how
            many honest replicas vouch for a value.

        Returns
        -------
        numpy.ndarray
            ``int64`` popcounts, one per index pair.
        """
        packed = self.packed()
        words = packed[rows_a] & packed[rows_b]
        if restrict_words is not None:
            words = words & restrict_words
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

    def __repr__(self) -> str:
        return f"BitsetEngine(n={self.n}, quorums={self.num_quorums})"
