"""Construction-space search: design the best system for given n and p.

§4.3 of the paper observes that the h-T-grid prefers *slightly
rectangular* grids — a single data point in a larger design question:
given ``n`` elements and a crash probability, which member of a
construction family maximises availability?  The exact DPs make this
searchable:

* :func:`best_wall` scans integer partitions of ``n`` (as non-decreasing
  row widths, the shape crumbling walls want) with the O(d) wall DP —
  thousands of candidates per second;
* :func:`best_grid_shape` scans the factorisations of ``n`` for the
  hierarchical grid (closed form) and the h-T-grid (Shannon engine);
* :func:`best_triangle_growth` picks the §5 growth rule with the best
  availability return per added element.

These return the optimum and the full ranking, so ablation benchmarks
can show *how much* design freedom is worth.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import AnalysisError
from ..systems.walls import CrumblingWallQuorumSystem


def partitions_nondecreasing(
    total: int, max_parts: Optional[int] = None, smallest: int = 1
) -> Iterator[Tuple[int, ...]]:
    """Integer partitions of ``total`` as non-decreasing tuples."""
    if total == 0:
        yield ()
        return
    limit = max_parts if max_parts is not None else total
    if limit <= 0:
        return
    for first in range(smallest, total + 1):
        if first > total:
            break
        for rest in partitions_nondecreasing(total - first, limit - 1, first):
            yield (first,) + rest


def best_wall(
    n: int,
    p: float,
    max_rows: Optional[int] = None,
    top: int = 5,
) -> List[Tuple[Tuple[int, ...], float]]:
    """The ``top`` wall shapes (non-decreasing widths) by failure
    probability at ``p``.

    Partition counts grow quickly: n = 24 has 1575 shapes, n = 30 has
    5604 — each evaluated by the O(d) wall DP.  Guarded to n <= 40.
    """
    if n > 40:
        raise AnalysisError(f"wall design search supports n <= 40, got {n}")
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"p must be in (0, 1), got {p}")
    ranked: List[Tuple[Tuple[int, ...], float]] = []
    for widths in partitions_nondecreasing(n, max_parts=max_rows):
        system = CrumblingWallQuorumSystem(widths)
        ranked.append((widths, system.failure_probability_exact(p)))
    ranked.sort(key=lambda item: (item[1], len(item[0])))
    return ranked[:top]


def grid_shapes(n: int, allow_near: bool = False) -> List[Tuple[int, int]]:
    """(rows, cols) factorisations of ``n`` (optionally n-1 / n+1 too)."""
    candidates = {n} | ({n - 1, n + 1} if allow_near else set())
    shapes = set()
    for total in candidates:
        for rows in range(1, total + 1):
            if total % rows == 0:
                shapes.add((rows, total // rows))
    return sorted(shapes)


def best_grid_shape(
    n: int,
    p: float,
    system: str = "h-grid",
    top: int = 5,
) -> List[Tuple[Tuple[int, int], float]]:
    """The best ``rows x cols`` shapes for the (hierarchical) grid family.

    ``system`` is ``"h-grid"`` (closed form, any size), ``"h-t-grid"``
    (Shannon engine; practical to ~n = 30) or ``"grid"`` (flat closed
    form).
    """
    from ..systems.grid import GridQuorumSystem
    from ..systems.hgrid import HierarchicalGrid
    from ..systems.htgrid import HierarchicalTGrid

    if not 0.0 < p < 1.0:
        raise AnalysisError(f"p must be in (0, 1), got {p}")
    ranked: List[Tuple[Tuple[int, int], float]] = []
    for rows, cols in grid_shapes(n):
        if rows == 1 or cols == 1:
            continue  # degenerate lines
        if system == "h-grid":
            value = HierarchicalGrid.halving(rows, cols).failure_probability_exact(p)
        elif system == "h-t-grid":
            if rows * cols > 30:
                raise AnalysisError(
                    "h-T-grid shape search needs n <= 30 (Shannon engine)"
                )
            value = HierarchicalTGrid.halving(rows, cols).failure_probability(
                p, method="shannon"
            )
        elif system == "grid":
            value = GridQuorumSystem(rows, cols).failure_probability_exact(p)
        else:
            raise AnalysisError(f"unknown grid family {system!r}")
        ranked.append(((rows, cols), value))
    if not ranked:
        raise AnalysisError(f"{n} admits no non-degenerate grid shapes")
    ranked.sort(key=lambda item: item[1])
    return ranked[:top]


def best_triangle_growth(
    triangle, p: float
) -> Tuple[str, Dict[str, Tuple[int, float, float]]]:
    """Rank the §5 growth rules by availability gain per added element.

    Returns the winning rule name and, per rule, ``(elements added,
    new failure probability, gain per element)``.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"p must be in (0, 1), got {p}")
    baseline = triangle.failure_probability(p)
    outcomes: Dict[str, Tuple[int, float, float]] = {}
    for rule in ("t1", "t2", "grid"):
        grown = triangle.grown(rule)
        value = grown.failure_probability(p)
        added = grown.n - triangle.n
        outcomes[rule] = (added, value, (baseline - value) / added)
    winner = max(outcomes, key=lambda rule: outcomes[rule][2])
    return winner, outcomes
