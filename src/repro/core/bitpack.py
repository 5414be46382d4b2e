"""Packed-bitmask helpers shared across the library.

Several hot paths need "is this set a subset of that one" or "how many
members of this quorum are down" over families of thousands of quorums:
coterie reduction (:func:`repro.core.quorum_system.reduce_to_coterie`),
quorum containment (:meth:`repro.core.quorum_system.QuorumSystem.contains_quorum_many`,
behind strategy validation, the f-resilient capacity filters and the
chaos harness's availability scan), strategy restriction
(:meth:`repro.core.strategy.Strategy.avoiding`), and induced-load
evaluation.  All of them share the same representation, so it lives
here once: each set of element ids becomes a row of ``uint64`` lanes,
element ``e`` setting bit ``e % 64`` of lane ``e // 64``.  Packing
itself is vectorised — one ``np.add.at`` scatter over the flattened
lane matrix instead of a Python double loop — which is what makes
packing tens of thousands of wall-system quorums cheap enough to do
eagerly.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

#: Bits per packed lane.
LANE_BITS = 64

#: Most (row, family member) pairs :func:`contains_any` tests at once, so
#: a family of tens of thousands of quorums never materialises a whole
#: rows x family x lanes array.
BLOCK_PAIRS = 1 << 16


def lanes_for(size: int) -> int:
    """Number of ``uint64`` lanes needed for element ids in ``[0, size)``."""
    return max(1, (int(size) + LANE_BITS - 1) // LANE_BITS)


def _flatten(sets: Sequence[Iterable[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Row index and element id arrays for every (set, element) pair.

    A 2-D integer array (one set of equal size per row) flattens without
    a Python loop.
    """
    if isinstance(sets, np.ndarray):
        count, width = sets.shape
        return (
            np.repeat(np.arange(count, dtype=np.intp), width),
            sets.reshape(-1).astype(np.int64),
        )
    try:
        lengths = [len(members) for members in sets]
    except TypeError:
        sets = [tuple(members) for members in sets]
        lengths = [len(members) for members in sets]
    elements = np.fromiter(
        itertools.chain.from_iterable(sets), dtype=np.int64, count=sum(lengths)
    )
    return np.repeat(np.arange(len(sets), dtype=np.intp), lengths), elements


def pack_rows(sets: Sequence[Iterable[int]], size: int = 0) -> np.ndarray:
    """Pack sets of element ids into a ``(len(sets), lanes)`` uint64 matrix.

    ``size`` is the universe size (``1 + max id``); when 0 it is inferred
    from the largest element present.  ``sets`` may also be a 2-D integer
    array, one set per row.  Within one set every element is distinct, so
    the scattered per-bit *additions* coincide with bitwise OR —
    ``np.add.at`` sets each bit exactly once.
    """
    if not isinstance(sets, np.ndarray):
        sets = list(sets)
    rows, elements = _flatten(sets)
    if elements.size and size <= int(elements.max()):
        size = int(elements.max()) + 1
    lanes = lanes_for(size)
    packed = np.zeros((len(sets), lanes), dtype=np.uint64)
    if elements.size:
        flat = packed.reshape(-1)
        offsets = rows * lanes + (elements >> 6)
        bits = np.left_shift(
            np.uint64(1), (elements & (LANE_BITS - 1)).astype(np.uint64)
        )
        np.add.at(flat, offsets, bits)
    return packed


def unpack_rows(packed: np.ndarray) -> List[FrozenSet[int]]:
    """The sets of a packed ``(count, lanes)`` matrix, the inverse of
    :func:`pack_rows`: one frozenset of ids per row."""
    bits = np.unpackbits(
        np.ascontiguousarray(packed, dtype="<u8").view(np.uint8), axis=1, bitorder="little"
    )
    members = np.nonzero(bits)[1].tolist()
    ends = np.cumsum(bits.sum(axis=1)).tolist()
    # Row i's members are members[ends[i-1]:ends[i]]; map keeps the
    # per-row loop out of the interpreter.
    spans = map(slice, [0] + ends[:-1], ends)
    return list(map(frozenset, map(members.__getitem__, spans)))


def first_occurrences(packed: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a packed matrix that equal no
    earlier row.  A stable lexicographic sort puts equal rows next to
    each other in index order, so each run's head is its first row."""
    if not len(packed):
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort(packed.T[::-1])
    ordered = packed[order]
    heads = np.ones(len(packed), dtype=bool)
    heads[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[heads])


def pack_one(members: Iterable[int], size: int = 0) -> np.ndarray:
    """Pack a single set into one row of lanes (shape ``(lanes,)``)."""
    return pack_rows([members], size)[0]


def membership_matrix(sets: Sequence[Iterable[int]], size: int) -> np.ndarray:
    """Dense boolean membership matrix ``(len(sets), size)``.

    ``matrix[j, e]`` is True when element ``e`` belongs to set ``j``; the
    natural operand for weighted-load style reductions
    (``weights @ matrix`` is exactly Definition 3.4's induced load).
    """
    sets = list(sets)
    matrix = np.zeros((len(sets), int(size)), dtype=bool)
    rows, elements = _flatten(sets)
    if elements.size:
        if int(elements.max()) >= size:
            raise ValueError(
                f"element {int(elements.max())} outside universe of size {size}"
            )
        matrix[rows, elements] = True
    return matrix


def popcounts(packed: np.ndarray) -> np.ndarray:
    """Per-row number of set bits of a packed matrix."""
    return np.bitwise_count(packed).sum(axis=-1).astype(np.int64)


def intersects(packed: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean vector: which packed rows share any bit with ``mask``."""
    return (packed & mask).any(axis=-1)


def intersection_sizes(packed: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``|row ∩ mask|`` of a packed matrix against one mask row."""
    return popcounts(packed & mask)


def contains_any(rows: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Boolean vector: which packed ``rows`` contain some row of ``family``.

    Row ``r`` contains member ``f`` when ``f & ~r`` is zero in every lane.
    Rows are tested in blocks of at most :data:`BLOCK_PAIRS` (row, member)
    pairs.  Lanes past the family's width hold no member's bits, so wider
    rows are cut to it and narrower ones read as zero-padded.
    """
    found = np.zeros(len(rows), dtype=bool)
    if not len(rows) or not len(family):
        return found
    lanes = family.shape[1]
    missing = np.zeros((len(rows), lanes), dtype=np.uint64)
    width = min(lanes, rows.shape[1])
    missing[:, :width] = rows[:, :width]
    np.invert(missing, out=missing)
    step = max(1, BLOCK_PAIRS // len(family))
    for first in range(0, len(rows), step):
        block = missing[first : first + step, None, :] & family[None, :, :]
        found[first : first + step] = (~block.any(axis=2)).any(axis=1)
    return found
