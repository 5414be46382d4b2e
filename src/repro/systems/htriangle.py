"""Hierarchical triangle quorum system (h-triang) — the paper's §5.

``n = t(t+1)/2`` processes form a triangle with ``t`` rows, row ``i``
holding ``i`` elements.  A triangle with ``j > 1`` rows is split (figure 2)
into

* **sub-triangle T1** — the top ``floor(j/2)`` rows,
* **sub-grid G** — the first ``floor(j/2)`` elements of each of the
  remaining rows (a ``(j - floor(j/2)) x floor(j/2)`` grid), and
* **sub-triangle T2** — the rest (a triangle with ``j - floor(j/2)``
  rows),

and a quorum of the triangle is obtained by one of three methods:

1. a quorum of T1 together with a quorum of T2;
2. a quorum of T1 together with a **row-cover** of G;
3. a quorum of T2 together with a **full-line** of G,

where row-covers and full-lines are those of the hierarchical grid (§4.1,
:mod:`repro.systems.hgrid`).  Every quorum has exactly ``t`` elements
(``t ~ sqrt(2n)``), the load is the near-optimal ``sqrt(2)/sqrt(n)``, and
availability tends to 1 as levels are added.

The class also implements §5's *growth operations* ("introducing new
elements"): replacing a sub-triangle of ``m`` lines by one with ``m+1``
lines, a one-element sub-grid by a 1x2 sub-grid, or an ``m x m`` sub-grid
by an ``(m+1) x (m+1)`` one — each provably improving availability, which
the ablation benchmark measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.errors import AnalysisError, ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe
from .hgrid import (
    GridSpec,
    build_node,
    cover_inclusion_probabilities,
    flat_spec,
    full_lines_of,
    halving_spec,
    joint_cover_line_pmf_of,
    line_inclusion_probabilities,
    row_covers_of,
)

#: Triangle spec grammar: a single element, or a split into
#: (T1 spec, grid spec, T2 spec).
TriSpec = Union[Tuple[str], Tuple[str, "TriSpec", GridSpec, "TriSpec"]]

SINGLE: TriSpec = ("single",)


def triangle_size(t: int) -> int:
    """Number of elements of a standard ``t``-row triangle."""
    return t * (t + 1) // 2


def rows_for_size(n: int) -> int:
    """Inverse of :func:`triangle_size`; raises for non-triangular ``n``."""
    t = int((math.isqrt(8 * n + 1) - 1) // 2)
    if triangle_size(t) != n:
        raise ConstructionError(f"{n} is not a triangular number")
    return t


def standard_spec(t: int, subgrid: str = "halving") -> TriSpec:
    """Spec of the canonical ``t``-row triangle of §5.

    ``subgrid`` selects how sub-grids are organised internally:
    ``"halving"`` (default) for the §4 hierarchical decomposition ("as
    defined in the h-grid" — this reproduces the paper's Table 2/3
    h-triang values exactly), ``"flat"`` for one-level grids (ablation;
    identical up to t=5, measurably worse at t=7).
    """
    if t < 1:
        raise ConstructionError(f"triangle needs >= 1 rows, got {t}")
    if t == 1:
        return SINGLE
    top = t // 2
    bottom = t - top
    if subgrid == "flat":
        grid = flat_spec(bottom, top)
    elif subgrid == "halving":
        grid = halving_spec(bottom, top)
    else:
        raise ConstructionError(f"unknown subgrid organisation {subgrid!r}")
    return ("split", standard_spec(top, subgrid), grid, standard_spec(bottom, subgrid))


def spec_size(spec: TriSpec) -> int:
    """Number of elements described by a triangle spec."""
    if spec == SINGLE:
        return 1
    _, t1, grid, t2 = spec
    return spec_size(t1) + _grid_spec_size(grid) + spec_size(t2)


def _grid_spec_size(grid: GridSpec) -> int:
    if grid == "leaf":
        return 1
    return sum(_grid_spec_size(child) for row in grid for child in row)


class _TriangleNode:
    """Resolved triangle structure carrying element ids."""

    __slots__ = ("leaf_id", "t1", "grid", "t2", "spec")

    def __init__(self, leaf_id=None, t1=None, grid=None, t2=None, spec=None):
        self.leaf_id = leaf_id
        self.t1 = t1
        self.grid = grid
        self.t2 = t2
        self.spec = spec

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id is not None


@dataclass(frozen=True)
class LoadProfile:
    """Analytic per-element loads induced by a strategy.

    Unlike :class:`repro.core.strategy.Strategy`, this does not
    materialise the (possibly astronomically many) support quorums — only
    the induced loads, which is all Table 4 needs.
    """

    element_loads: np.ndarray

    @property
    def induced_load(self) -> float:
        """Load of the busiest element."""
        return float(self.element_loads.max())

    @property
    def average_quorum_size(self) -> float:
        """Expected quorum cardinality (= total expected accesses)."""
        return float(self.element_loads.sum())

    @property
    def imbalance(self) -> float:
        """Busiest / average element load; 1.0 means perfectly balanced."""
        mean = float(self.element_loads.mean())
        return float(self.element_loads.max()) / mean


class HierarchicalTriangle(QuorumSystem):
    """The h-triang quorum system.

    Parameters
    ----------
    rows:
        Number of triangle rows ``t`` (universe size ``t(t+1)/2``).
    subgrid:
        ``"flat"`` or ``"halving"`` organisation of the sub-grids.

    Standard instances name their elements by triangle coordinates
    ``(row, col)`` (0-based, ``col <= row``); instances built from a
    custom grown spec use plain integer names.
    """

    system_name = "h-triang"

    def __init__(self, rows: int, subgrid: str = "halving") -> None:
        spec = standard_spec(rows, subgrid)
        self.rows = rows
        self.subgrid = subgrid
        names = [(r, c) for r in range(rows) for c in range(r + 1)]
        universe = Universe(names)
        super().__init__(universe)
        coords = [[universe.id_of((r, c)) for c in range(r + 1)] for r in range(rows)]
        self._root = self._build_standard(spec, coords)
        self.system_name = f"h-triang{rows}"

    @classmethod
    def of_size(cls, n: int, subgrid: str = "halving") -> "HierarchicalTriangle":
        """Standard triangle over ``n = t(t+1)/2`` elements."""
        return cls(rows_for_size(n), subgrid=subgrid)

    @classmethod
    def from_spec(cls, spec: TriSpec) -> "HierarchicalTriangle":
        """Build from an explicit (possibly grown) spec.

        Elements are named ``0..n-1`` in structure order (T1, grid, T2).
        """
        system = cls.__new__(cls)
        n = spec_size(spec)
        QuorumSystem.__init__(system, Universe.of_size(n))
        system.rows = None
        system.subgrid = None
        counter = itertools.count()
        system._root = system._build_spec(spec, counter)
        system.system_name = f"h-triang-spec(n={n})"
        return system

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_standard(self, spec: TriSpec, coords: List[List[int]]) -> _TriangleNode:
        """Resolve a standard spec against triangle coordinates."""
        if spec == SINGLE:
            return _TriangleNode(leaf_id=coords[0][0], spec=spec)
        _, t1_spec, grid_spec, t2_spec = spec
        t = len(coords)
        top = t // 2
        t1 = self._build_standard(t1_spec, coords[:top])
        grid_ids = iter(
            coords[r][c] for r in range(top, t) for c in range(top)
        )
        grid = build_node(grid_spec, grid_ids)
        t2_coords = [coords[top + i][top : top + i + 1] for i in range(t - top)]
        t2 = self._build_standard(t2_spec, t2_coords)
        return _TriangleNode(t1=t1, grid=grid, t2=t2, spec=spec)

    def _build_spec(self, spec: TriSpec, counter) -> _TriangleNode:
        """Resolve a custom spec with sequential ids."""
        if spec == SINGLE:
            return _TriangleNode(leaf_id=next(counter), spec=spec)
        _, t1_spec, grid_spec, t2_spec = spec
        t1 = self._build_spec(t1_spec, counter)
        grid = build_node(grid_spec, counter)
        t2 = self._build_spec(t2_spec, counter)
        return _TriangleNode(t1=t1, grid=grid, t2=t2, spec=spec)

    # ------------------------------------------------------------------
    # Quorums
    # ------------------------------------------------------------------
    def _quorums_of(self, node: _TriangleNode) -> List[Quorum]:
        if node.is_leaf:
            return [frozenset({node.leaf_id})]
        q1 = self._quorums_of(node.t1)
        q2 = self._quorums_of(node.t2)
        covers = row_covers_of(node.grid)
        lines = full_lines_of(node.grid)
        quorums: List[Quorum] = []
        for a, b in itertools.product(q1, q2):  # method 1
            quorums.append(a | b)
        for a, b in itertools.product(q1, covers):  # method 2
            quorums.append(a | b)
        for a, b in itertools.product(q2, lines):  # method 3
            quorums.append(a | b)
        return quorums

    def _generate_quorums(self) -> Iterator[Quorum]:
        if self.rows is not None and self.rows > 9:
            raise ConstructionError(
                f"enumerating h-triang quorums for t={self.rows} is"
                " intractable; every metric has a structural formula"
            )
        return iter(self._quorums_of(self._root))

    def _read_quorums_of(self, node: _TriangleNode) -> List[Quorum]:
        if node.is_leaf:
            return [frozenset({node.leaf_id})]
        r1 = self._read_quorums_of(node.t1)
        r2 = self._read_quorums_of(node.t2)
        covers = row_covers_of(node.grid)
        lines = full_lines_of(node.grid)
        reads: List[Quorum] = []
        for a, b in itertools.product(r1, r2):
            reads.append(a | b)
        for a, b in itertools.product(r1, covers):
            reads.append(a | b)
        for a, b in itertools.product(r2, lines):
            reads.append(a | b)
        return reads

    def read_quorums(self) -> List[Quorum]:
        """Read quorums for split read/write serving, built recursively.

        Three families mirror the write methods: ``r(T1) | r(T2)``,
        ``r(T1) | cover(G)`` and ``r(T2) | line(G)``.  Each intersects
        every write quorum: the ``r(T1)`` / ``r(T2)`` halves meet the
        sub-triangle quorum of methods 1-3 by induction, and any grid
        cover meets any grid line (per row, the cover holds a recursive
        cover of one child and the line a recursive line of that same
        child).  All read quorums have size ``t`` — h-triang is
        self-dual, so reads cannot be smaller than writes and the split
        buys balance, not capacity (unlike the grid families).
        """
        if self.rows is not None and self.rows > 9:
            raise ConstructionError(
                f"enumerating h-triang read quorums for t={self.rows} is"
                " intractable; every metric has a structural formula"
            )
        return self._read_quorums_of(self._root)

    def smallest_quorum_size(self) -> int:
        if self.rows is not None:
            return self.rows
        return super().smallest_quorum_size()

    def largest_quorum_size(self) -> int:
        if self.rows is not None:
            return self.rows
        return super().largest_quorum_size()

    def has_uniform_quorum_size(self) -> bool:
        if self.rows is not None:
            return True
        return super().has_uniform_quorum_size()

    # ------------------------------------------------------------------
    # Exact availability
    # ------------------------------------------------------------------
    def _availability_of(self, node: _TriangleNode, q) -> float:
        if node.is_leaf:
            return q[node.leaf_id] if not isinstance(q, float) else q
        pa = self._availability_of(node.t1, q)
        pb = self._availability_of(node.t2, q)
        pmf = joint_cover_line_pmf_of(node.grid, q)
        g00 = pmf.get((0, 0), 0)
        g01 = pmf.get((0, 1), 0)
        g10 = pmf.get((1, 0), 0)
        g11 = pmf.get((1, 1), 0)
        # Condition on the sub-grid's (row-cover, full-line) feasibility:
        #   both: need a quorum in T1 or T2; cover only: need T1;
        #   line only: need T2; neither: need both sub-triangles.
        return (
            g11 * (pa + pb - pa * pb)
            + g10 * pa
            + g01 * pb
            + g00 * pa * pb
        )

    def failure_probability_exact(self, p: float) -> float:
        """Exact structural recursion over (T1, G, T2)."""
        return 1.0 - self._availability_of(self._root, 1.0 - p)

    def availability_heterogeneous(self, survive) -> float:
        """The (T1, G, T2) recursion at per-element survival
        probabilities."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        return self._availability_of(self._root, dict(enumerate(survive)))

    # ------------------------------------------------------------------
    # Load (§5 strategy)
    # ------------------------------------------------------------------
    def method_weights(self, node: Optional[_TriangleNode] = None) -> Tuple[float, float, float]:
        """The §5 probabilities ``(w1, w2, w3)`` for one triangle level.

        Solves the linear system of §5 with ``c_i`` the component sizes,
        ``q_1, q_2`` the sub-triangle quorum sizes and ``q_3l, q_3r`` the
        full-line / row-cover sizes of the sub-grid.
        """
        node = node or self._root
        if node.is_leaf:
            raise ConstructionError("single-element triangle has no methods")
        c1 = self._node_size(node.t1)
        c2 = self._node_size(node.t2)
        c3 = self._node_size_grid(node.grid)
        q1 = self._quorum_size_of(node.t1)
        q2 = self._quorum_size_of(node.t2)
        q3l = self._line_size(node.grid)
        q3r = self._cover_size(node.grid)
        # Unknowns: w1, w2, w3, k.
        matrix = np.array(
            [
                [1.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 0.0, -c1 / q1],
                [1.0, 0.0, 1.0, -c2 / q2],
                [0.0, q3r / c3, q3l / c3, -1.0],
            ]
        )
        rhs = np.array([1.0, 0.0, 0.0, 0.0])
        try:
            w1, w2, w3, _k = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"§5 load system is singular: {exc}") from None
        weights = np.array([w1, w2, w3])
        if (weights < -1e-9).any():
            raise AnalysisError(
                f"§5 load system gave negative weights {weights};"
                " structure too asymmetric for the balanced strategy"
            )
        weights = np.clip(weights, 0.0, None)
        return tuple(float(w) for w in weights / weights.sum())

    def _node_size(self, node: _TriangleNode) -> int:
        if node.is_leaf:
            return 1
        return (
            self._node_size(node.t1)
            + self._node_size_grid(node.grid)
            + self._node_size(node.t2)
        )

    def _node_size_grid(self, grid) -> int:
        if grid.is_leaf:
            return 1
        return sum(self._node_size_grid(child) for row in grid.rows for child in row)

    def _quorum_size_of(self, node: _TriangleNode) -> int:
        """Quorum size (uniform for standard triangles, min for grown)."""
        if node.is_leaf:
            return 1
        q1 = self._quorum_size_of(node.t1)
        q2 = self._quorum_size_of(node.t2)
        return min(
            q1 + q2,
            q1 + self._cover_size(node.grid),
            q2 + self._line_size(node.grid),
        )

    def _line_size(self, grid) -> int:
        if grid.is_leaf:
            return 1
        return min(
            sum(self._line_size(child) for child in row) for row in grid.rows
        )

    def _cover_size(self, grid) -> int:
        if grid.is_leaf:
            return 1
        return sum(
            min(self._cover_size(child) for child in row) for row in grid.rows
        )

    def balanced_load_profile(self) -> LoadProfile:
        """Per-element loads under the §5 strategy.

        For standard triangles this is provably uniform — every element
        carries ``t/n = sqrt(2)/sqrt(n)`` — which the tests verify both
        against this analytic profile and against an explicit strategy on
        small instances.
        """
        loads: Dict[int, float] = {}
        self._accumulate_loads(self._root, 1.0, loads)
        vector = np.zeros(self.n)
        for element, load in loads.items():
            vector[element] = load
        return LoadProfile(element_loads=vector)

    def _accumulate_loads(self, node: _TriangleNode, scale: float, out: Dict[int, float]) -> None:
        if node.is_leaf:
            out[node.leaf_id] = out.get(node.leaf_id, 0.0) + scale
            return
        w1, w2, w3 = self.method_weights(node)
        self._accumulate_loads(node.t1, scale * (w1 + w2), out)
        self._accumulate_loads(node.t2, scale * (w1 + w3), out)
        cover_inclusion_probabilities(node.grid, out, scale * w2)
        line_inclusion_probabilities(node.grid, out, scale * w3)

    def balanced_strategy(self):
        """Explicit §5 strategy (small triangles); see module helper."""
        return balanced_strategy(self)

    def load_exact(self) -> Optional[float]:
        """Standard triangles: ``t / n`` (the §5 strategy is uniform and
        matches the Prop. 3.3 bound ``c(S)/n``, hence optimal)."""
        if self.rows is None:
            return None
        return self.rows / self.n

    # ------------------------------------------------------------------
    # §5 growth operations
    # ------------------------------------------------------------------
    def grown_spec(self, where: str) -> TriSpec:
        """Spec after applying one §5 growth operation at the root split.

        ``where`` is one of:

        * ``"t1"`` — replace sub-triangle 1 (``m`` lines) by a standard
          triangle with ``m+1`` lines;
        * ``"t2"`` — same for sub-triangle 2;
        * ``"grid"`` — replace the sub-grid: a single element becomes a
          1x2 grid, an ``r x c`` grid becomes ``(r+1) x (c+1)``.
        """
        root_spec = self._spec_of(self._root)
        if root_spec == SINGLE:
            # Growing a single element: 1 line -> 2 lines (3 elements).
            return standard_spec(2)
        _, t1_spec, grid_spec, t2_spec = root_spec
        grown_subgrid = self.subgrid or "flat"
        if where == "t1":
            t1_spec = standard_spec(self._spec_rows(t1_spec) + 1, grown_subgrid)
        elif where == "t2":
            t2_spec = standard_spec(self._spec_rows(t2_spec) + 1, grown_subgrid)
        elif where == "grid":
            rows, cols = self._grid_dims(grid_spec)
            if rows == 1 and cols == 1:
                grid_spec = flat_spec(1, 2)
            else:
                grid_spec = flat_spec(rows + 1, cols + 1)
        else:
            raise ConstructionError(f"unknown growth site {where!r}")
        return ("split", t1_spec, grid_spec, t2_spec)

    def grown(self, where: str) -> "HierarchicalTriangle":
        """A new system with one §5 growth operation applied."""
        return HierarchicalTriangle.from_spec(self.grown_spec(where))

    def _spec_of(self, node: _TriangleNode) -> TriSpec:
        return node.spec

    def _spec_rows(self, spec: TriSpec) -> int:
        """Rows of a *standard* triangle spec (by element count)."""
        return rows_for_size(spec_size(spec))

    def _grid_dims(self, grid_spec: GridSpec) -> Tuple[int, int]:
        """(rows, cols) of a flat grid spec."""
        if grid_spec == "leaf":
            return 1, 1
        rows = len(grid_spec)
        cols = max(len(row) for row in grid_spec)
        if any(child != "leaf" for row in grid_spec for child in row):
            raise ConstructionError(
                "growth of hierarchical sub-grids is not defined by §5;"
                " use subgrid='flat'"
            )
        return rows, cols


def _merge_product(
    left: Dict[frozenset, float], right: Dict[frozenset, float], weight: float
) -> Dict[frozenset, float]:
    """Weighted product distribution of unions of two independent picks."""
    out: Dict[frozenset, float] = {}
    for a, pa in left.items():
        for b, pb in right.items():
            key = a | b
            out[key] = out.get(key, 0.0) + weight * pa * pb
    return out


def _accumulate(target: Dict[frozenset, float], source: Dict[frozenset, float]) -> None:
    for key, prob in source.items():
        target[key] = target.get(key, 0.0) + prob


def _quorum_distribution(system: "HierarchicalTriangle", node: _TriangleNode) -> Dict[frozenset, float]:
    """Explicit §5 strategy distribution over the quorums of a node."""
    from .hgrid import cover_distribution, line_distribution

    if node.is_leaf:
        return {frozenset({node.leaf_id}): 1.0}
    w1, w2, w3 = system.method_weights(node)
    d1 = _quorum_distribution(system, node.t1)
    d2 = _quorum_distribution(system, node.t2)
    covers = cover_distribution(node.grid)
    lines = line_distribution(node.grid)
    out: Dict[frozenset, float] = {}
    _accumulate(out, _merge_product(d1, d2, w1))
    _accumulate(out, _merge_product(d1, covers, w2))
    _accumulate(out, _merge_product(d2, lines, w3))
    return out


def balanced_strategy(system: "HierarchicalTriangle"):
    """The §5 strategy as an explicit :class:`repro.core.strategy.Strategy`.

    Materialises the full quorum distribution, so it is limited to small
    triangles (the quorum count grows super-exponentially in ``t``); use
    :meth:`HierarchicalTriangle.balanced_load_profile` for the analytic
    loads at any size.
    """
    from ..core.errors import ConstructionError
    from ..core.strategy import Strategy

    if system.rows is not None and system.rows > 7:
        raise ConstructionError(
            f"explicit §5 strategy for t={system.rows} is intractable;"
            " use balanced_load_profile() instead"
        )
    distribution = _quorum_distribution(system, system._root)
    return Strategy.from_mapping(system, distribution)
