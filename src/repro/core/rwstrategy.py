"""Read/write strategy pairs (quoracle-style split quorums).

The paper's constructions already distinguish *read* quorums (one element
per row of a grid, hierarchical covers) from *write* quorums (a full line
plus a cover).  "Read-Write Quorum Systems Made Practical"
(Whittaker-Charapko-Hellerstein) turns that distinction into a serving
primitive: reads draw from a distribution over read quorums, writes from
a distribution over write quorums, and the only safety obligation is the
*2-intersection* invariant — every read quorum intersects every write
quorum, so a read always sees the newest acknowledged write.

A :class:`ReadWriteStrategy` is exactly that pair.  The write side is a
normal :class:`~repro.core.strategy.Strategy` (every support set contains
a minimal quorum of the system, so blind writes stay legal); the read
side is a :class:`Strategy` built with ``validate_quorums=False``,
because read quorums (e.g. grid row covers) are deliberately smaller
than any system quorum.  Construction checks the 2-intersection
invariant vectorised over the packed supports.

Optimal pairs come from the capacity LP in
:mod:`repro.analysis.capacity`; this module only holds the invariant and
the per-path sampling/restriction plumbing the coordinator uses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from . import bitpack
from .errors import StrategyError
from .quorum_system import Quorum, QuorumSystem
from .strategy import Strategy

PathStrategy = Union[Strategy, "ReadWriteStrategy"]

#: Most read/write pairs :meth:`ReadWriteStrategy._read_write_overlaps`
#: intersects in one vectorised block.
_OVERLAP_BLOCK_CELLS = 1 << 16


class ReadWriteStrategy:
    """A pair of quorum distributions: one for reads, one for writes.

    Parameters
    ----------
    system:
        The quorum system both distributions belong to.
    reads:
        Distribution over read quorums.  Support sets need not be quorums
        of ``system`` (they usually are not); they must intersect every
        write support set.
    writes:
        Distribution over write quorums.  Every support set must be a
        quorum of ``system`` (validated by :class:`Strategy` itself), so
        repair/write traffic keeps the full intersection guarantees.
    """

    def __init__(self, system: QuorumSystem, reads: Strategy, writes: Strategy) -> None:
        if reads.system is not system or writes.system is not system:
            raise StrategyError(
                "read and write strategies must be built over the same system"
            )
        self._system = system
        self._reads = reads
        self._writes = writes
        self._verify_two_intersection()

    def _verify_two_intersection(self) -> None:
        for first, common in self._read_write_overlaps():
            meets = common.any(axis=-1)
            if not meets.all():
                read, write = np.argwhere(~meets)[0].tolist()
                read_quorum = self._reads.quorums[first + read]
                culprit = self._writes.quorums[write]
                raise StrategyError(
                    f"read quorum {sorted(read_quorum)} misses write quorum "
                    f"{sorted(culprit)}: the 2-intersection invariant fails"
                )

    def _read_write_overlaps(self) -> Iterator[Tuple[int, np.ndarray]]:
        """The packed ``R ∩ W`` of every read/write support pair, a block
        of read quorums at a time: ``(index of the block's first read
        quorum, (rows, writes, lanes) uint64 array)``.  Blocks hold at
        most :data:`_OVERLAP_BLOCK_CELLS` pairs, so a large support never
        builds the whole reads x writes matrix."""
        packed_reads = self._reads.packed_quorums()
        packed_writes = self._writes.packed_quorums()
        rows = max(1, _OVERLAP_BLOCK_CELLS // len(packed_writes))
        for first in range(0, len(packed_reads), rows):
            block = packed_reads[first : first + rows]
            yield first, block[:, None, :] & packed_writes[None, :, :]

    # ------------------------------------------------------------------
    @classmethod
    def lift(cls, strategy: PathStrategy) -> "ReadWriteStrategy":
        """Lift a plain :class:`Strategy` to a degenerate read/write pair.

        Reads and writes share the one distribution, so behaviour is
        byte-identical to the unified serving path.  Passing an existing
        :class:`ReadWriteStrategy` returns it unchanged.
        """
        if isinstance(strategy, ReadWriteStrategy):
            return strategy
        return cls(strategy.system, strategy, strategy)

    @classmethod
    def from_quorums(
        cls,
        system: QuorumSystem,
        read_quorums: Sequence[Iterable[int]],
        read_weights: Sequence[float],
        write_quorums: Sequence[Iterable[int]],
        write_weights: Sequence[float],
    ) -> "ReadWriteStrategy":
        """Build a pair straight from quorum lists and probabilities."""
        reads = Strategy(system, read_quorums, read_weights, validate_quorums=False)
        writes = Strategy(system, write_quorums, write_weights)
        return cls(system, reads, writes)

    # ------------------------------------------------------------------
    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def reads(self) -> Strategy:
        """The read-path distribution."""
        return self._reads

    @property
    def writes(self) -> Strategy:
        """The write-path distribution (also used for repair/transfer)."""
        return self._writes

    @property
    def is_split(self) -> bool:
        """True when reads and writes use distinct distributions."""
        return self._reads is not self._writes

    def for_path(self, path: str) -> Strategy:
        """The distribution serving ``path`` (``"read"`` or ``"write"``)."""
        if path == "read":
            return self._reads
        if path == "write":
            return self._writes
        raise StrategyError(f"unknown path {path!r}, expected 'read' or 'write'")

    # ------------------------------------------------------------------
    # Induced metrics
    # ------------------------------------------------------------------
    def element_loads(self, read_fraction: float) -> np.ndarray:
        """Per-element load of the mixed workload.

        Element ``x`` serves ``fr * l_r(x) + (1 - fr) * l_w(x)`` of every
        client operation — the quantity the capacity LP bounds.
        """
        fr = _check_fraction(read_fraction)
        return fr * self._reads.element_loads() + (1.0 - fr) * self._writes.element_loads()

    def induced_load(self, read_fraction: float) -> float:
        """Busiest-element load of the mixed workload at ``read_fraction``."""
        return float(self.element_loads(read_fraction).max())

    def capacity(self, read_fraction: float) -> float:
        """Throughput in per-node capacity units: ``1 / induced_load``."""
        return 1.0 / self.induced_load(read_fraction)

    def average_quorum_size(self, read_fraction: float) -> float:
        """Expected fan-out of an operation under the mixed workload."""
        fr = _check_fraction(read_fraction)
        return (
            fr * self._reads.average_quorum_size()
            + (1.0 - fr) * self._writes.average_quorum_size()
        )

    def min_read_quorum_size(self) -> int:
        """Size of the smallest read support set (voted reads need 2b+1)."""
        return min(len(q) for q in self._reads.quorums)

    def min_read_write_intersection(self) -> int:
        """Smallest ``|R ∩ W|`` over all read/write support pairs.

        Byzantine voted reads need this to be at least ``2b + 1``: the
        intersection with the newest write quorum must out-vote ``b``
        liars even after ``b`` of its members crashed.
        """
        return min(
            int(bitpack.popcounts(common).min())
            for _, common in self._read_write_overlaps()
        )

    # ------------------------------------------------------------------
    # Fault restriction
    # ------------------------------------------------------------------
    def avoiding(self, down: Iterable[int]) -> Optional["ReadWriteStrategy"]:
        """Both distributions conditioned on quorums disjoint from ``down``.

        Returns ``None`` when either side loses its whole support — a
        half-usable pair would let writes proceed that no live read
        quorum can observe.  Surviving weights are renormalised on each
        side independently (delegating to :meth:`Strategy.avoiding`); the
        2-intersection invariant is preserved by restriction, so the
        reconstruction cannot fail.
        """
        blocked = frozenset(down)
        writes = self._writes.avoiding(blocked)
        if writes is None:
            return None
        if not self.is_split:
            return ReadWriteStrategy(self._system, writes, writes)
        reads = self._reads.avoiding(blocked)
        if reads is None:
            return None
        return ReadWriteStrategy(self._system, reads, writes)

    def least_damaged(self, down: Iterable[int], path: str = "read") -> Quorum:
        """The ``path``-side support quorum with the fewest members down."""
        return self.for_path(path).least_damaged(down)

    def __repr__(self) -> str:
        return (
            f"<ReadWriteStrategy over {self._system.system_name!r}"
            f" reads={len(self._reads.quorums)}"
            f" writes={len(self._writes.quorums)}"
            f" split={self.is_split}>"
        )


def _check_fraction(read_fraction: float) -> float:
    fr = float(read_fraction)
    if not 0.0 <= fr <= 1.0:
        raise StrategyError(f"read fraction must be in [0, 1], got {fr}")
    return fr
