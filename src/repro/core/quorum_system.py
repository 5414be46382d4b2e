"""Base class and generic operations for quorum systems.

Definition 3.1 of the paper: a quorum system ``S = {S1, ..., Sm}`` is a
collection of subsets of a finite universe ``U`` such that every pair of
subsets intersects.  A *coterie* is a quorum system whose quorums form an
anti-chain (no quorum contains another).

The library works with the *minimal* quorums of a system: because all the
metrics studied in the paper (failure probability, load, quorum size) are
either defined over minimal quorums or unchanged by removing dominated
quorums, the minimal representation is canonical.

Subclasses implement :meth:`_generate_quorums` to yield the (not
necessarily minimal, not necessarily deduplicated) quorums of the
construction; the base class caches the reduced coterie.  Structured
constructions additionally override hooks such as
:meth:`failure_probability_exact` with closed-form or recursive
computations, which the analysis front-end prefers over generic engines.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import bitpack
from .errors import ConstructionError, IntersectionViolation
from .universe import Universe

Quorum = FrozenSet[int]


def reduce_to_coterie(quorums: Iterable[Quorum]) -> Tuple[Quorum, ...]:
    """Drop duplicate and dominated quorums, returning a sorted anti-chain.

    A quorum is *dominated* when it is a strict superset of another quorum;
    dominated quorums never help availability or load, so the reduced
    system is equivalent for every metric in the paper.

    Subset testing is vectorised over packed numpy bitmasks so that large
    families (tens of thousands of candidates, e.g. wall systems) reduce
    in seconds rather than hours.

    The result is sorted by (size, sorted elements) so it is deterministic
    across runs, which keeps analysis caches and tests stable.
    """
    return _reduce_packed(quorums)[0]


def _reduce_packed(
    quorums: Iterable[Quorum], size: int = 0
) -> Tuple[Tuple[Quorum, ...], np.ndarray]:
    """:func:`reduce_to_coterie` plus the kept quorums packed over ``size``.

    Candidates are sorted by size, and only a strictly smaller set can be
    a proper subset of a distinct one, so each size class is tested in
    one batch against the quorums kept from the smaller classes.
    Uniform-size families (majorities, h-triang, FPP lines) make no
    domination test at all.
    """
    unique = sorted(set(quorums), key=lambda q: (len(q), sorted(q)))
    packed = bitpack.pack_rows(unique, size)
    sizes = [len(q) for q in unique]
    keep = np.ones(len(unique), dtype=bool)
    bounds = [row for row in range(1, len(unique)) if sizes[row] != sizes[row - 1]]
    for first, end in zip(bounds, bounds[1:] + [len(unique)]):
        kept = packed[:first][keep[:first]]
        keep[first:end] = ~bitpack.contains_any(packed[first:end], kept)
    rows = np.flatnonzero(keep)
    return tuple(unique[row] for row in rows.tolist()), packed[rows]


class QuorumSystem(ABC):
    """Abstract base class for quorum systems over a :class:`Universe`.

    Subclasses must provide a universe at construction time (via
    ``super().__init__(universe)``) and implement
    :meth:`_generate_quorums`.
    """

    #: Human-readable name of the construction, overridden by subclasses.
    system_name: str = "quorum-system"

    def __init__(self, universe: Universe) -> None:
        self._universe = universe
        self._minimal: Optional[Tuple[Quorum, ...]] = None
        self._packed_minimal: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Core structure
    # ------------------------------------------------------------------
    @property
    def universe(self) -> Universe:
        """The universe of elements of this system."""
        return self._universe

    @property
    def n(self) -> int:
        """Number of elements in the universe."""
        return self._universe.size

    @abstractmethod
    def _generate_quorums(self) -> Iterator[Quorum]:
        """Yield quorums as frozensets of element ids.

        The stream may contain duplicates and dominated quorums; the base
        class reduces it to a coterie.
        """

    def minimal_quorums(self) -> Tuple[Quorum, ...]:
        """The reduced coterie of this system, computed once and cached."""
        if self._minimal is None:
            quorums, packed = _reduce_packed(self._generate_quorums(), self.n)
            if not quorums:
                raise ConstructionError(
                    f"{self.system_name}: construction produced no quorums"
                )
            self._minimal, self._packed_minimal = quorums, packed
        return self._minimal

    def packed_minimal_quorums(self) -> np.ndarray:
        """The minimal quorums as packed bitmask rows (cached per system).

        Row ``j`` packs ``minimal_quorums()[j]`` over ``n`` elements; the
        coterie reduction packs them already, so this is usually free.
        """
        if self._packed_minimal is None:
            self._packed_minimal = bitpack.pack_rows(self.minimal_quorums(), self.n)
        return self._packed_minimal

    @property
    def num_minimal_quorums(self) -> int:
        """Number of minimal quorums."""
        return len(self.minimal_quorums())

    # ------------------------------------------------------------------
    # Size metrics
    # ------------------------------------------------------------------
    def smallest_quorum_size(self) -> int:
        """``c(S)``: cardinality of the smallest quorum (Prop. 3.3)."""
        return min(len(q) for q in self.minimal_quorums())

    def largest_quorum_size(self) -> int:
        """Cardinality of the largest *minimal* quorum."""
        return max(len(q) for q in self.minimal_quorums())

    def quorum_sizes(self) -> Tuple[int, ...]:
        """Sorted tuple of minimal quorum cardinalities."""
        return tuple(sorted(len(q) for q in self.minimal_quorums()))

    def has_uniform_quorum_size(self) -> bool:
        """True when every minimal quorum has the same cardinality.

        The paper highlights that h-triang is the only studied
        ``O(1/sqrt(n))``-load system with this property (Table 5).
        """
        sizes = self.quorum_sizes()
        return sizes[0] == sizes[-1]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def contains_quorum(self, live: Iterable[int]) -> bool:
        """True when the given live set contains at least one quorum.

        This is the availability event: the system is usable iff the set
        of surviving elements is a superset of some quorum.
        """
        live_set = frozenset(live)
        return any(q <= live_set for q in self.minimal_quorums())

    def contains_quorum_many(self, sets: Iterable[Iterable[int]]) -> np.ndarray:
        """:meth:`contains_quorum` of every set, as one boolean vector.

        The sets are packed once and tested against the packed minimal
        quorums in blocks.  A single query is cheaper through
        :meth:`contains_quorum`, whose scan stops at the first hit.
        """
        return bitpack.contains_any(
            bitpack.pack_rows(sets, self.n), self.packed_minimal_quorums()
        )

    def is_transversal(self, hit_set: Iterable[int]) -> bool:
        """True when the given set intersects every minimal quorum.

        Proposition 3.1: failure probability equals the probability that
        the *failed* set is a transversal.
        """
        hit = frozenset(hit_set)
        return all(hit & q for q in self.minimal_quorums())

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_intersection(self) -> None:
        """Check Definition 3.1; raise :class:`IntersectionViolation` if broken.

        Quadratic in the number of minimal quorums — intended for tests and
        for validating hand-built systems, not for hot paths.
        """
        quorums = self.minimal_quorums()
        for first, second in itertools.combinations(quorums, 2):
            if not first & second:
                raise IntersectionViolation(first, second)

    def is_coterie(self) -> bool:
        """True when the minimal quorums form an anti-chain (always true
        after reduction) and satisfy the intersection property."""
        try:
            self.verify_intersection()
        except IntersectionViolation:
            return False
        return True

    # ------------------------------------------------------------------
    # Duality
    # ------------------------------------------------------------------
    def dual(self) -> "ExplicitQuorumSystem":
        """The dual system: minimal transversals of this system.

        For a quorum system ``S`` over universe ``U``, the dual ``S*`` has
        as quorums the minimal sets hitting every quorum of ``S``.  Self-dual
        systems (``S* == S``) have failure probability exactly ``1/2`` at
        ``p = 1/2``; Tables 2 and 3 of the paper show this for majority,
        HQS, CWlog, Y and h-triang.

        Uses Berge's incremental algorithm over the minimal quorums, which
        is adequate for the system sizes studied in the paper (n <= ~105).
        """
        transversals: List[Quorum] = [frozenset()]
        for quorum in self.minimal_quorums():
            extended: List[Quorum] = []
            for partial in transversals:
                if partial & quorum:
                    extended.append(partial)
                else:
                    extended.extend(partial | {e} for e in quorum)
            transversals = list(reduce_to_coterie(extended))
        # A dual family always hits this system, but it only satisfies the
        # intersection property itself when the system is non-dominated
        # (e.g. the dual of even-majority contains disjoint halves), so
        # eager validation must be skipped.
        return ExplicitQuorumSystem(
            self._universe,
            transversals,
            name=f"dual({self.system_name})",
            validate=False,
        )

    def is_self_dual(self) -> bool:
        """True when the system equals its own dual."""
        return set(self.dual().minimal_quorums()) == set(self.minimal_quorums())

    # ------------------------------------------------------------------
    # Analysis hooks
    # ------------------------------------------------------------------
    def failure_probability_exact(self, p: float) -> Optional[float]:
        """Closed-form / structural exact failure probability, if available.

        Structured constructions (majority, HQS, grid, walls, h-grid,
        h-triang, Paths, Y, ...) override this with an exact recursion that
        avoids enumerating quorums.  Returning ``None`` means "no special
        structure; use a generic engine".
        """
        return None

    def failure_probability(self, p: float, method: str = "auto", **kwargs) -> float:
        """Failure probability ``F_p(S)`` under iid crashes (Def. 3.2).

        Thin convenience wrapper over
        :func:`repro.analysis.availability.failure_probability`.
        """
        from ..analysis.availability import failure_probability

        return failure_probability(self, p, method=method, **kwargs)

    def availability_heterogeneous(self, survive: Sequence[float]) -> float:
        """Availability when element ``i`` survives with probability
        ``survive[i]`` (non-iid crashes).

        Structured constructions override this with their exact
        recursions evaluated at per-element probabilities (walls, grids,
        triangles, trees, ...), enabling sensitivity/importance analysis
        at sizes where the generic engines cannot go.  The default
        dispatches to the generic heterogeneous engines.
        """
        from ..analysis.availability import failure_probability_heterogeneous

        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        return 1.0 - failure_probability_heterogeneous(
            self, [1.0 - q for q in survive]
        )

    def load(self, method: str = "auto", **kwargs) -> float:
        """System load ``L(S)`` (Def. 3.4) via the analysis front-end."""
        from ..analysis.load import system_load

        return system_load(self, method=method, **kwargs)

    # ------------------------------------------------------------------
    # Conversion / debugging
    # ------------------------------------------------------------------
    def named_quorums(self) -> List[frozenset]:
        """Minimal quorums expressed with user-facing element names."""
        return [self._universe.subset_names(q) for q in self.minimal_quorums()]

    def to_explicit(self) -> "ExplicitQuorumSystem":
        """Freeze this system into an explicit list-of-quorums system."""
        return ExplicitQuorumSystem(
            self._universe, self.minimal_quorums(), name=self.system_name
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} name={self.system_name!r}>"


class ExplicitQuorumSystem(QuorumSystem):
    """A quorum system given by an explicit collection of quorums.

    Parameters
    ----------
    universe:
        The universe of elements.
    quorums:
        Iterable of quorums, each an iterable of element ids.  Dominated
        and duplicate quorums are removed.
    name:
        Optional human-readable name.
    validate:
        When true (default), eagerly verify the intersection property.
    """

    def __init__(
        self,
        universe: Universe,
        quorums: Iterable[Iterable[int]],
        name: str = "explicit",
        validate: bool = True,
    ) -> None:
        super().__init__(universe)
        self.system_name = name
        frozen = [frozenset(q) for q in quorums]
        for quorum in frozen:
            bad = [e for e in quorum if not 0 <= e < universe.size]
            if bad:
                raise ConstructionError(
                    f"quorum {sorted(quorum)} has ids outside the universe: {bad}"
                )
        if not frozen:
            raise ConstructionError("explicit system needs at least one quorum")
        self._minimal, self._packed_minimal = _reduce_packed(frozen, universe.size)
        if validate:
            self.verify_intersection()

    def _generate_quorums(self) -> Iterator[Quorum]:
        assert self._minimal is not None
        return iter(self._minimal)

    @classmethod
    def from_names(
        cls,
        universe: Universe,
        named_quorums: Iterable[Iterable],
        name: str = "explicit",
        validate: bool = True,
    ) -> "ExplicitQuorumSystem":
        """Build from quorums expressed with element names instead of ids."""
        return cls(
            universe,
            [universe.subset_ids(q) for q in named_quorums],
            name=name,
            validate=validate,
        )
