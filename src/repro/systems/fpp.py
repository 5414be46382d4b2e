"""Finite-projective-plane quorum system (Maekawa [13]).

For a prime ``q``, the projective plane ``PG(2, q)`` has
``n = q^2 + q + 1`` points and equally many lines; every line holds
``q + 1 ~ sqrt(n)`` points, every two lines meet in exactly one point,
and every point lies on exactly ``q + 1`` lines.  Taking the lines as
quorums gives Maekawa's system: optimal load ``1/sqrt(n)`` (each element
is in exactly ``q+1`` of the ``n`` quorums, so the uniform strategy is
perfectly balanced) but poor asymptotic availability — the paper's
summary notes it as the optimal-load / poor-availability counterpoint to
h-triang.

Only prime ``q`` is supported (prime powers would need full ``GF(p^k)``
arithmetic); this covers the classical instances n = 7, 13, 31, 57, 133.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for f in range(2, int(q**0.5) + 1):
        if q % f == 0:
            return False
    return True


def projective_plane(q: int) -> Tuple[List[Tuple[int, int, int]], List[List[int]]]:
    """Points and lines of ``PG(2, q)`` for prime ``q``.

    Points are canonical homogeneous coordinates over ``GF(q)``; lines are
    returned as lists of point indices.
    """
    if not _is_prime(q):
        raise ConstructionError(f"q must be prime, got {q}")
    points: List[Tuple[int, int, int]] = []
    for x in range(q):
        for y in range(q):
            points.append((x, y, 1))
    for x in range(q):
        points.append((x, 1, 0))
    points.append((1, 0, 0))
    index = {pt: i for i, pt in enumerate(points)}

    def canonical(v: Tuple[int, int, int]) -> Tuple[int, int, int]:
        # Scale so the last nonzero coordinate is 1.
        for position in (2, 1, 0):
            if v[position] % q:
                inverse = pow(v[position], q - 2, q)
                return tuple((c * inverse) % q for c in v)  # type: ignore[return-value]
        raise ConstructionError("zero vector has no canonical form")

    lines: List[List[int]] = []
    for a, b, c in points:  # lines are dual points
        line = [
            index[pt]
            for pt in points
            if (a * pt[0] + b * pt[1] + c * pt[2]) % q == 0
        ]
        lines.append(sorted(line))
    return points, lines


class FPPQuorumSystem(QuorumSystem):
    """Maekawa's projective-plane quorums over ``n = q^2 + q + 1`` points."""

    system_name = "fpp"

    def __init__(self, q: int) -> None:
        points, lines = projective_plane(q)
        self.q = q
        self._lines = lines
        super().__init__(Universe.of_size(len(points)))
        self.system_name = f"fpp(q={q})"

    @classmethod
    def of_size(cls, n: int) -> "FPPQuorumSystem":
        """FPP over ``n = q^2+q+1`` elements for some prime ``q``."""
        q = 1
        while q * q + q + 1 < n:
            q += 1
        if q * q + q + 1 != n:
            raise ConstructionError(f"{n} is not of the form q^2+q+1")
        return cls(q)

    def _generate_quorums(self) -> Iterator[Quorum]:
        for line in self._lines:
            yield frozenset(line)

    def load_exact(self) -> float:
        """Optimal: every point is on exactly ``q+1`` of the ``n`` lines,
        so the uniform strategy gives load ``(q+1)/n ~ 1/sqrt(n)``."""
        return (self.q + 1) / self.n
