"""The Y quorum system of Kuo and Huang [10].

``n = t(t+1)/2`` elements form a triangular lattice with ``t`` rows (row
``r`` has ``r+1`` sites, 0-based).  A quorum is a connected set of sites
touching all **three sides** of the triangle — the left side
(``col = 0``), the right side (``col = row``) and the bottom row — i.e. a
"Y" shape: three lattice paths joined at a common site (any connected
three-side-touching set contains such a Y).

Any two quorums intersect: two connected sets each touching all three
sides of a topological triangle must cross (a classical planar argument;
``tests`` verify it exhaustively on small instances).  The system is
*self-dual* — the minimal transversals are again the Y sets — hence
``F_{1/2} = 1/2`` exactly, matching Tables 2 and 3 of the paper, and our
triangular-lattice model reproduces the paper's quoted Y values exactly
(they were taken from [10]): e.g. ``F_0.1(Y(15)) = 0.000745``.

Exact availability for ``t = 7`` (n = 28, beyond 2^28 enumeration) comes
from the frontier DP of :mod:`repro.analysis.lattice`.
"""

from __future__ import annotations

import collections
from typing import FrozenSet, Iterator, List, Tuple

from ..analysis.lattice import ConnectivityProblem, probability_all_satisfied
from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe


def triangle_vertices(t: int) -> List[Tuple[int, int]]:
    """Row-major sites of the ``t``-row triangular lattice."""
    return [(r, c) for r in range(t) for c in range(r + 1)]


class YQuorumSystem(QuorumSystem):
    """Kuo–Huang Y quorums on the ``t``-row triangular lattice."""

    system_name = "y"

    def __init__(self, t: int) -> None:
        if t < 1:
            raise ConstructionError(f"need t >= 1, got {t}")
        self.t = t
        vertices = triangle_vertices(t)
        super().__init__(Universe(vertices))
        self.system_name = f"y{t}"
        self._vertices = vertices
        self._vertex_set = set(vertices)

    @classmethod
    def of_size(cls, n: int) -> "YQuorumSystem":
        """Y system over ``n = t(t+1)/2`` elements."""
        t = 1
        while t * (t + 1) // 2 < n:
            t += 1
        if t * (t + 1) // 2 != n:
            raise ConstructionError(f"{n} is not a triangular number")
        return cls(t)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def neighbours(self, vertex: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Triangular-lattice neighbours (up to six)."""
        r, c = vertex
        candidates = (
            (r, c - 1),
            (r, c + 1),
            (r - 1, c - 1),
            (r - 1, c),
            (r + 1, c),
            (r + 1, c + 1),
        )
        return [v for v in candidates if v in self._vertex_set]

    def side(self, which: str) -> FrozenSet[Tuple[int, int]]:
        """One of the three sides: ``left``, ``right`` or ``bottom``."""
        if which == "left":
            return frozenset(v for v in self._vertices if v[1] == 0)
        if which == "right":
            return frozenset(v for v in self._vertices if v[1] == v[0])
        if which == "bottom":
            return frozenset(v for v in self._vertices if v[0] == self.t - 1)
        raise ConstructionError(f"unknown side {which!r}")

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    def _touches_all_sides(self, sites: FrozenSet[Tuple[int, int]]) -> bool:
        left, right, bottom = (
            self.side("left"),
            self.side("right"),
            self.side("bottom"),
        )
        return bool(sites & left) and bool(sites & right) and bool(sites & bottom)

    def _is_connected(self, sites: FrozenSet[Tuple[int, int]]) -> bool:
        if not sites:
            return False
        start = next(iter(sites))
        seen = {start}
        queue = collections.deque([start])
        while queue:
            site = queue.popleft()
            for nxt in self.neighbours(site):
                if nxt in sites and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(sites)

    def is_y_set(self, sites) -> bool:
        """Whether the given sites form a (not necessarily minimal) Y."""
        frozen = frozenset(sites)
        return self._is_connected(frozen) and self._touches_all_sides(frozen)

    def _generate_quorums(self) -> Iterator[Quorum]:
        """Minimal Y sets by exhaustive subset filtering (small ``t``)."""
        if self.n > 16:
            raise ConstructionError(
                f"enumerating Y quorums for t={self.t} is intractable;"
                " availability has an exact DP"
            )
        vertices = self._vertices
        n = self.n
        ids = self.universe.id_of
        for mask in range(1, 1 << n):
            sites = frozenset(
                vertices[i] for i in range(n) if mask >> i & 1
            )
            if not self.is_y_set(sites):
                continue
            # Keep minimal sets only (removing any site breaks the Y).
            if all(
                not self.is_y_set(sites - {site}) for site in sites
            ):
                yield frozenset(ids(v) for v in sites)

    def smallest_quorum_size(self) -> int:
        """``t``: a straight left-right path along the bottom row touches
        all three sides."""
        return self.t

    # ------------------------------------------------------------------
    # Exact availability
    # ------------------------------------------------------------------
    def connectivity_problem(self) -> ConnectivityProblem:
        """"Some component touches all three sides" as a lattice problem."""
        adjacency = {v: frozenset(self.neighbours(v)) for v in self._vertices}
        return ConnectivityProblem(
            vertices=tuple(self._vertices),
            adjacency=adjacency,
            groups={
                "left": self.side("left"),
                "right": self.side("right"),
                "bottom": self.side("bottom"),
            },
            requirements=(frozenset({"left", "right", "bottom"}),),
        )

    def failure_probability_exact(self, p: float) -> float:
        """Exact frontier DP over the triangle rows."""
        problem = self.connectivity_problem()
        survive = {v: 1.0 - p for v in self._vertices}
        return 1.0 - probability_all_satisfied(problem, survive)
