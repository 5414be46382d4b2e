"""The Paths quorum system of Naor and Wool [14].

Naor–Wool build quorums from crossing paths on a planar grid and its
dual; the universe has ``2d^2 + 2d + 1`` elements and quorums are unions
of a left–right and a top–bottom crossing, giving smallest quorums of
size ``~ sqrt(2n) = 2d + 1``, load between ``sqrt(2)/sqrt(n)`` and
``2*sqrt(2)/sqrt(n)`` and exponentially vanishing failure probability.

We realise this as a *site* system on the diagonal (diamond) lattice —
the ``2d^2+2d+1`` lattice points with ``|x| + |y| <= d``, which is the
union of a ``(d+1) x (d+1)`` primal grid and its ``d x d`` dual
interleaved at 45 degrees.  A quorum is the union of

* a **NW-to-SE crossing**: a path of elements from the side
  ``y - x = d`` to the side ``x - y = d``, and
* a **NE-to-SW crossing**: a path from ``x + y = d`` to ``x + y = -d``,

with axis-parallel steps (variant ``"axis"``); in variant ``"mixed"`` the
NE–SW crossing may additionally take diagonal steps (the site analogue of
the primal/dual edge identification of [14]).  Both variants are proper
quorum systems: two crossings in transversal directions always share a
lattice point because unit axis/diagonal segments can only meet at
lattice points, and the single diagonal path along ``y = 0`` touches all
four sides, so ``c(S) = 2d + 1`` exactly as in [14].

Calibration note: the exact numeric construction used for Tables 2–3 of
the ICDCS paper could not be recovered (the tables' values match no
axis/diagonal adjacency combination on this lattice); EXPERIMENTS.md
documents the deviation.  The qualitative shape — failure probability
decaying with ``d``, ``F_{1/2} > 1/2``, min quorum ``sqrt(2n)`` — is
preserved.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Optional, Tuple

from ..analysis.lattice import ConnectivityProblem, probability_all_satisfied
from ..core.errors import AnalysisError, ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe

_AXIS_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAG_STEPS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def diamond_vertices(d: int) -> List[Tuple[int, int]]:
    """The ``2d^2+2d+1`` lattice points with ``|x|+|y| <= d``, in
    column-major order (good frontier order for the exact DP)."""
    return [
        (x, y)
        for x in range(-d, d + 1)
        for y in range(-(d - abs(x)), d - abs(x) + 1)
    ]


class PathsQuorumSystem(QuorumSystem):
    """Paths(d) crossing-path quorums on the diamond lattice.

    Parameters
    ----------
    d:
        Lattice radius; the universe has ``2d^2 + 2d + 1`` elements.
    variant:
        ``"axis"`` (both crossings axis-connected, default) or
        ``"mixed"`` (the NE-SW crossing may also use diagonal steps).
    """

    system_name = "paths"

    def __init__(self, d: int, variant: str = "axis") -> None:
        if d < 1:
            raise ConstructionError(f"need d >= 1, got {d}")
        if variant not in ("axis", "mixed"):
            raise ConstructionError(f"unknown variant {variant!r}")
        self.d = d
        self.variant = variant
        vertices = diamond_vertices(d)
        super().__init__(Universe(vertices))
        self.system_name = f"paths{d}-{variant}"
        self._vertices = vertices
        self._vertex_set = set(vertices)

    @classmethod
    def of_size(cls, n: int, variant: str = "axis") -> "PathsQuorumSystem":
        """Paths over ``n = 2d^2+2d+1`` elements."""
        d = 1
        while 2 * d * d + 2 * d + 1 < n:
            d += 1
        if 2 * d * d + 2 * d + 1 != n:
            raise ConstructionError(f"{n} is not of the form 2d^2+2d+1")
        return cls(d, variant=variant)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _steps(self, crossing: str) -> Tuple[Tuple[int, int], ...]:
        if crossing == "nwse" or self.variant == "axis":
            return _AXIS_STEPS
        return _AXIS_STEPS + _DIAG_STEPS

    def neighbours(self, vertex: Tuple[int, int], crossing: str) -> List[Tuple[int, int]]:
        """Adjacent lattice sites for the given crossing direction."""
        x, y = vertex
        return [
            (x + dx, y + dy)
            for dx, dy in self._steps(crossing)
            if (x + dx, y + dy) in self._vertex_set
        ]

    def side(self, which: str) -> FrozenSet[Tuple[int, int]]:
        """Vertices of one diagonal side: ``nw``, ``se``, ``ne``, ``sw``."""
        d = self.d
        if which == "nw":
            return frozenset(v for v in self._vertices if v[1] - v[0] == d)
        if which == "se":
            return frozenset(v for v in self._vertices if v[0] - v[1] == d)
        if which == "ne":
            return frozenset(v for v in self._vertices if v[0] + v[1] == d)
        if which == "sw":
            return frozenset(v for v in self._vertices if v[0] + v[1] == -d)
        raise ConstructionError(f"unknown side {which!r}")

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    def _simple_paths(self, sources, targets, crossing: str) -> Iterator[FrozenSet]:
        """All simple source->target paths (as vertex sets).

        Exponential; guarded by :meth:`_generate_quorums` to small ``d``.
        """

        def extend(path: Tuple, visited: frozenset) -> Iterator[FrozenSet]:
            head = path[-1]
            if head in targets:
                yield frozenset(path)
                return
            for nxt in self.neighbours(head, crossing):
                if nxt not in visited:
                    yield from extend(path + (nxt,), visited | {nxt})

        for source in sources:
            yield from extend((source,), frozenset({source}))

    def _generate_quorums(self) -> Iterator[Quorum]:
        if self.d > 2:
            raise ConstructionError(
                f"enumerating Paths quorums for d={self.d} is intractable;"
                " availability has an exact DP and sizes have formulas"
            )
        nwse = list(self._simple_paths(self.side("nw"), self.side("se"), "nwse"))
        nesw = list(self._simple_paths(self.side("ne"), self.side("sw"), "nesw"))
        ids = self.universe.id_of
        for first, second in itertools.product(nwse, nesw):
            yield frozenset(ids(v) for v in first | second)

    def smallest_quorum_size(self) -> int:
        """``2d + 1``: the main diagonal path crosses in both directions."""
        return 2 * self.d + 1

    # ------------------------------------------------------------------
    # Exact availability
    # ------------------------------------------------------------------
    def connectivity_problem(self) -> ConnectivityProblem:
        """The crossing events as a lattice-reliability problem."""
        if self.variant != "axis":
            raise AnalysisError(
                "the exact DP supports one adjacency; use variant='axis'"
                " (mixed-variant availability: exhaustive for d=2, Monte"
                " Carlo beyond)"
            )
        adjacency = {
            v: frozenset(self.neighbours(v, "nwse")) for v in self._vertices
        }
        return ConnectivityProblem(
            vertices=tuple(self._vertices),
            adjacency=adjacency,
            groups={
                "nw": self.side("nw"),
                "se": self.side("se"),
                "ne": self.side("ne"),
                "sw": self.side("sw"),
            },
            requirements=(
                frozenset({"nw", "se"}),
                frozenset({"ne", "sw"}),
            ),
        )

    def failure_probability_exact(self, p: float) -> Optional[float]:
        """Exact frontier DP over the diamond (axis variant only)."""
        if self.variant != "axis":
            return None
        problem = self.connectivity_problem()
        survive = {v: 1.0 - p for v in self._vertices}
        return 1.0 - probability_all_satisfied(problem, survive)
