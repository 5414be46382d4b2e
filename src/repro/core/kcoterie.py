"""k-coteries: quorums for k-entry mutual exclusion.

The Y-system paper [10] ("A geometric approach for constructing coteries
and **k-coteries**") generalises coteries to allow up to ``k`` processes
in the critical section simultaneously.  A family of quorums is a
*k-coterie* when

1. (non-intersection up to k) there exist ``k`` pairwise disjoint
   quorums, and
2. (intersection at k+1) among any ``k+1`` quorums some two intersect —
   by pigeonhole at most ``k`` lock holders can coexist.

A 1-coterie is an ordinary coterie (Def. 3.1).  The same member-grant
protocol as :mod:`repro.sim.protocols.mutex` then enforces "at most k in
the CS": each member grants one holder at a time, and ``k+1`` requesters
would need ``k+1`` pairwise disjoint granted quorums.

This module provides the abstraction, the classic constructions
(k-majority, k-singleton, coterie lift) and the availability analysis,
including the concurrency-availability curve ``Pr[j disjoint live
quorums]`` for ``j = 1..k``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple

from .errors import AnalysisError, ConstructionError
from .quorum_system import ExplicitQuorumSystem, Quorum, QuorumSystem, reduce_to_coterie
from .universe import Universe


def _max_disjoint(quorums: Sequence[Quorum], stop_at: int) -> int:
    """Size of a largest pairwise-disjoint subfamily (capped backtracking)."""
    best = 0
    ordered = sorted(quorums, key=len)

    def extend(start: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best >= stop_at:
            return
        for index in range(start, len(ordered)):
            quorum = ordered[index]
            if not (quorum & used):
                extend(index + 1, used | quorum, count + 1)
                if best >= stop_at:
                    return

    extend(0, frozenset(), 0)
    return best


class KCoterie:
    """A k-coterie over a universe.

    Parameters
    ----------
    universe:
        Element universe.
    quorums:
        The quorum family (reduced to an anti-chain).
    k:
        Concurrency level.
    validate:
        When true, verify both k-coterie conditions (exponential in the
        family size for condition 2 — fine at the scales studied here).
    """

    def __init__(
        self,
        universe: Universe,
        quorums: Iterable[Iterable[int]],
        k: int,
        validate: bool = True,
    ) -> None:
        if k < 1:
            raise ConstructionError(f"k must be >= 1, got {k}")
        self.universe = universe
        self.k = k
        self._quorums: Tuple[Quorum, ...] = reduce_to_coterie(
            frozenset(q) for q in quorums
        )
        if not self._quorums:
            raise ConstructionError("k-coterie needs at least one quorum")
        for quorum in self._quorums:
            bad = [e for e in quorum if not 0 <= e < universe.size]
            if bad:
                raise ConstructionError(f"quorum has unknown elements {bad}")
        if validate:
            self.verify()

    # ------------------------------------------------------------------
    @property
    def quorums(self) -> Tuple[Quorum, ...]:
        """The reduced quorum family."""
        return self._quorums

    @property
    def n(self) -> int:
        """Universe size."""
        return self.universe.size

    def verify(self) -> None:
        """Check both k-coterie conditions; raise on violation."""
        if _max_disjoint(self._quorums, self.k) < self.k:
            raise ConstructionError(
                f"no {self.k} pairwise disjoint quorums exist: not a"
                f" {self.k}-coterie (over-constrained family)"
            )
        if _max_disjoint(self._quorums, self.k + 1) > self.k:
            raise ConstructionError(
                f"{self.k + 1} pairwise disjoint quorums exist: the family"
                f" admits more than k={self.k} concurrent holders"
            )

    # ------------------------------------------------------------------
    # Constructions
    # ------------------------------------------------------------------
    @classmethod
    def k_majority(cls, n: int, k: int) -> "KCoterie":
        """Quorums are all subsets of size ``floor(n/(k+1)) + 1``.

        ``k+1`` such quorums would need more than ``n`` elements, so two
        intersect; ``k`` disjoint ones fit as long as ``k*size <= n``.
        """
        size = n // (k + 1) + 1
        if k * size > n:
            raise ConstructionError(
                f"k-majority needs k*(n//(k+1)+1) <= n; got n={n}, k={k}"
            )
        universe = Universe.of_size(n)
        quorums = [frozenset(c) for c in itertools.combinations(range(n), size)]
        return cls(universe, quorums, k, validate=False)

    @classmethod
    def k_singleton(cls, n: int, k: int) -> "KCoterie":
        """``k`` dictator elements: quorums ``{0}, ..., {k-1}``."""
        if k > n:
            raise ConstructionError(f"need n >= k, got n={n}, k={k}")
        universe = Universe.of_size(n)
        return cls(universe, [frozenset({i}) for i in range(k)], k, validate=False)

    @classmethod
    def from_coterie(cls, system: QuorumSystem) -> "KCoterie":
        """Lift an ordinary coterie to the ``k = 1`` case."""
        return cls(system.universe, system.minimal_quorums(), 1, validate=False)

    @classmethod
    def disjoint_union(cls, coteries: Sequence[QuorumSystem]) -> "KCoterie":
        """The union of ``k`` coteries on disjoint sub-universes is a
        k-coterie: one quorum can be live in each part, but ``k+1``
        quorums land two in one part (pigeonhole), which intersect."""
        from .composition import compose_universes

        universe, offsets = compose_universes([s.universe for s in coteries])
        quorums: List[Quorum] = []
        for index, system in enumerate(coteries):
            mapping = offsets[index]
            for quorum in system.minimal_quorums():
                quorums.append(frozenset(mapping[e] for e in quorum))
        return cls(universe, quorums, len(coteries), validate=False)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def smallest_quorum_size(self) -> int:
        """Cardinality of the smallest quorum."""
        return min(len(q) for q in self._quorums)

    def as_availability_system(self) -> ExplicitQuorumSystem:
        """The family viewed as a plain (possibly non-intersecting)
        monotone system, for availability computations."""
        return ExplicitQuorumSystem(
            self.universe,
            self._quorums,
            name=f"k-coterie(k={self.k})",
            validate=False,
        )

    def availability(self, p: float) -> float:
        """Probability at least one quorum is fully alive."""
        return 1.0 - self.as_availability_system().failure_probability(p)

    def concurrency_availability(self, p: float, j: int) -> float:
        """Probability that ``j`` pairwise disjoint quorums are alive —
        i.e. that ``j`` holders could enter concurrently.

        Exhaustive over the ``2^n`` alive sets (small universes).
        """
        if not 1 <= j <= self.k:
            raise AnalysisError(f"j must be in 1..k={self.k}, got {j}")
        if self.n > 20:
            raise AnalysisError("concurrency availability needs n <= 20")
        q = 1.0 - p
        total = 0.0
        for mask in range(1 << self.n):
            alive = frozenset(i for i in range(self.n) if mask >> i & 1)
            live_quorums = [qu for qu in self._quorums if qu <= alive]
            if _max_disjoint(live_quorums, j) >= j:
                total += (q ** len(alive)) * (p ** (self.n - len(alive)))
        return total

    def __repr__(self) -> str:
        return f"<KCoterie k={self.k} n={self.n} quorums={len(self._quorums)}>"
