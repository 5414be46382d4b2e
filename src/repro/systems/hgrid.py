"""Hierarchical grid quorum system of Kumar and Cheung [9] (§4.1).

Processes sit at level 0; a logical object at level ``i > 0`` is an
``m_i x n_i`` grid of level ``i-1`` objects (grids of different sizes are
allowed, exactly as the paper notes).  Quorums are formed recursively:

* a **row-cover** of a grid object takes a row-cover in at least one
  object of *every* row (read quorums);
* a **full-line** takes a full-line in *all* objects of one row (write
  quorums);
* a **read-write quorum** is the union of a row-cover and a full-line and
  forms a proper quorum system.

The hierarchy is described by a *spec*: the string ``"leaf"`` for a
process, or a tuple of rows, each row a tuple of child specs.  Two
builders cover the paper's configurations: :meth:`HierarchicalGrid.flat`
(one level — the plain grid protocol) and
:meth:`HierarchicalGrid.pairing`, which groups a physical ``R x C`` grid
into 2x2 blocks recursively so that "logical grids have size 2x2 whenever
it is possible" (§4.3).

Exact failure probabilities come from a joint recursion: for every object
we compute the joint probability mass over the pair of indicator events
(row-cover formable, full-line formable); sibling objects are element-
disjoint hence independent, and per-row / across-row combination is a
small DP.  The read-write availability is the ``(1, 1)`` cell at the
root.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe

#: Spec grammar: LEAF or tuple(rows) of tuple(children).
GridSpec = Union[str, Tuple]

LEAF = "leaf"


def flat_spec(rows: int, cols: int) -> GridSpec:
    """Single-level grid spec: ``rows x cols`` processes."""
    if rows < 1 or cols < 1:
        raise ConstructionError(f"grid needs positive dims, got {rows}x{cols}")
    return tuple(tuple(LEAF for _ in range(cols)) for _ in range(rows))


def halving_spec(rows: int, cols: int) -> GridSpec:
    """Top-down halving decomposition of a physical ``rows x cols`` grid.

    Any dimension larger than 2 is split into two near-halves (floor
    first: 3 -> 1+2, 5 -> 2+3) and the halves are decomposed recursively,
    so every logical grid is at most 2x2 — the paper's "logical grids have
    size 2x2 whenever it is possible".  This decomposition reproduces the
    paper's Table 1 values *exactly*: the h-grid numbers for all four
    configurations (3x3, 4x4, 5x5 and the 6-lines x 4-columns grid, where
    ceiling-first would give the same by up/down symmetry) and the
    h-T-grid numbers (where the split order matters because partial
    row-covers break the symmetry — ceiling-first 3x3 gives 0.013940 at
    p=0.1 instead of the paper's 0.015213).  The bottom-up
    :func:`pairing_spec` alternative differs on 5x5 and 6x4 and is kept
    for the ablation benchmark.
    """

    def split(extent: int) -> Optional[List[int]]:
        if extent <= 2:
            return None
        first = extent // 2
        return [first, extent - first]

    def build(r: int, c: int) -> GridSpec:
        row_split = split(r)
        col_split = split(c)
        if row_split is None and col_split is None:
            return flat_spec(r, c)
        row_groups = row_split if row_split else [r]
        col_groups = col_split if col_split else [c]
        return tuple(
            tuple(build(rr, cc) for cc in col_groups) for rr in row_groups
        )

    return build(rows, cols)


def pairing_spec(rows: int, cols: int) -> GridSpec:
    """Recursive 2x2 grouping of a physical ``rows x cols`` grid.

    The physical grid is tiled with (up to) 2x2 blocks; the resulting
    block grid is grouped again until it is at most 2x2.  1x1 groups
    collapse to their only child (a 1x1 logical grid is semantically
    identical to its child).  This realises the paper's "logical grids
    have size 2x2 whenever it is possible" for 9, 16, 24 and 25 nodes.
    """
    current: List[List[GridSpec]] = [[LEAF] * cols for _ in range(rows)]
    while len(current) > 2 or len(current[0]) > 2:
        r = len(current)
        c = len(current[0])
        grouped: List[List[GridSpec]] = []
        for i in range(0, r, 2):
            row_group: List[GridSpec] = []
            for j in range(0, c, 2):
                block_rows = []
                for ii in range(i, min(i + 2, r)):
                    block_rows.append(tuple(current[ii][j : min(j + 2, c)]))
                if len(block_rows) == 1 and len(block_rows[0]) == 1:
                    row_group.append(block_rows[0][0])
                else:
                    row_group.append(tuple(block_rows))
            grouped.append(row_group)
        current = grouped
    if len(current) == 1 and len(current[0]) == 1:
        return current[0][0]
    return tuple(tuple(row) for row in current)


class _Node:
    """Internal resolved tree: leaves carry element ids."""

    __slots__ = ("rows", "leaf_id", "height", "width")

    def __init__(self, rows: Optional[List[List["_Node"]]], leaf_id: Optional[int]):
        self.rows = rows
        self.leaf_id = leaf_id
        self.height = 0
        self.width = 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id is not None


class HierarchicalGrid(QuorumSystem):
    """The h-grid read-write quorum system over a hierarchy spec.

    Element names are the global ``(row, col)`` coordinates obtained by
    laying the hierarchy out as one large grid (the paper's figure 1,
    level 0).
    """

    system_name = "h-grid"

    def __init__(self, spec: GridSpec, name: Optional[str] = None) -> None:
        self._spec = spec
        counter = itertools.count()
        self._root = self._build(spec, counter)
        n = next(counter)
        self._layout(self._root)
        coords: Dict[int, Tuple[int, int]] = {}
        rowpaths: Dict[int, Tuple[int, ...]] = {}
        self._place(self._root, 0, 0, (), coords, rowpaths)
        names = [coords[i] for i in range(n)]
        super().__init__(Universe(names))
        self._coords = coords
        self._rowpaths = rowpaths
        if name:
            self.system_name = name

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, rows: int, cols: int) -> "HierarchicalGrid":
        """One-level hierarchy: the plain grid protocol of [3]."""
        return cls(flat_spec(rows, cols), name=f"h-grid-flat{rows}x{cols}")

    @classmethod
    def pairing(cls, rows: int, cols: int) -> "HierarchicalGrid":
        """Recursive 2x2 pairing hierarchy over a ``rows x cols`` grid."""
        return cls(pairing_spec(rows, cols), name=f"h-grid-pairing{rows}x{cols}")

    @classmethod
    def halving(cls, rows: int, cols: int) -> "HierarchicalGrid":
        """Top-down halving hierarchy — the paper's Table 1 decomposition."""
        return cls(halving_spec(rows, cols), name=f"h-grid{rows}x{cols}")

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _build(self, spec: GridSpec, counter) -> _Node:
        return build_node(spec, counter)

    def _layout(self, node: _Node) -> None:
        if node.is_leaf:
            node.height = 1
            node.width = 1
            return
        assert node.rows is not None
        for row in node.rows:
            for child in row:
                self._layout(child)
        node.height = sum(max(child.height for child in row) for row in node.rows)
        node.width = max(sum(child.width for child in row) for row in node.rows)

    def _place(self, node, row_offset, col_offset, rowpath, coords, rowpaths):
        if node.is_leaf:
            coords[node.leaf_id] = (row_offset, col_offset)
            rowpaths[node.leaf_id] = rowpath
            return
        r = row_offset
        for row_index, row in enumerate(node.rows):
            c = col_offset
            for child in row:
                self._place(child, r, c, rowpath + (row_index,), coords, rowpaths)
                c += child.width
            r += max(child.height for child in row)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> GridSpec:
        """The hierarchy description."""
        return self._spec

    def coordinates(self, element: int) -> Tuple[int, int]:
        """Global ``(row, col)`` of a level-0 element."""
        return self._coords[element]

    def rowpath(self, element: int) -> Tuple[int, ...]:
        """Hierarchical row-index path of Definition 4.1 (top level first).

        ``rowpath(a) > rowpath(b)`` lexicographically corresponds to the
        paper's *above/below* order used by the h-T-grid (§4.2); see
        :mod:`repro.systems.htgrid` for the orientation convention.
        """
        return self._rowpaths[element]

    # ------------------------------------------------------------------
    # Quorum families
    # ------------------------------------------------------------------
    def full_lines(self) -> List[Quorum]:
        """All hierarchical full-lines (the write quorums)."""
        return full_lines_of(self._root)

    def row_covers(self) -> List[Quorum]:
        """All minimal hierarchical row-covers (the read quorums)."""
        return row_covers_of(self._root)

    def read_quorums(self) -> List[Quorum]:
        """Minimal read quorums for split read/write serving.

        Alias of :meth:`row_covers`, exposed under the uniform protocol
        name: every hierarchical cover picks, per root row, a recursive
        cover of one child, and therefore meets the full-line half of
        every combined quorum.
        """
        return self.row_covers()

    def _generate_quorums(self) -> Iterator[Quorum]:
        covers = self.row_covers()
        for line in self.full_lines():
            for cover in covers:
                yield line | cover

    # ------------------------------------------------------------------
    # Exact availability
    # ------------------------------------------------------------------
    def joint_cover_line_pmf(self, p: float) -> Dict[Tuple[int, int], float]:
        """Joint pmf of (row-cover, full-line) availability at the root.

        Keys are ``(rc, fl)`` indicator pairs.  Used directly by the
        hierarchical triangle (§5), whose sub-grids contribute through
        exactly this joint distribution.
        """
        pmf = joint_cover_line_pmf_of(self._root, 1.0 - p)
        return {key: pmf.get(key, 0.0) for key in ((0, 0), (0, 1), (1, 0), (1, 1))}

    def failure_probability_exact(self, p: float) -> float:
        """Read-write failure: no (cover AND line) simultaneously formable."""
        return 1.0 - self.joint_cover_line_pmf(p)[(1, 1)]

    def read_failure_probability(self, p: float) -> float:
        """Probability no hierarchical row-cover is alive."""
        pmf = self.joint_cover_line_pmf(p)
        return 1.0 - pmf[(1, 0)] - pmf[(1, 1)]

    def write_failure_probability(self, p: float) -> float:
        """Probability no hierarchical full-line is alive."""
        pmf = self.joint_cover_line_pmf(p)
        return 1.0 - pmf[(0, 1)] - pmf[(1, 1)]

    def availability_heterogeneous(self, survive) -> float:
        """Exact read-write availability under per-element survival
        probabilities (the joint recursion evaluated leaf-wise)."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        pmf = joint_cover_line_pmf_of(self._root, dict(enumerate(survive)))
        return pmf.get((1, 1), 0.0)

# ----------------------------------------------------------------------
# Node-level recursions, shared with the hierarchical triangle (§5),
# whose sub-grids are h-grid objects embedded in a larger universe.
# ----------------------------------------------------------------------

def build_node(spec: GridSpec, leaf_ids) -> _Node:
    """Resolve a spec into an id-carrying node tree.

    ``leaf_ids`` is an iterator producing the element id for each leaf in
    row-major spec order — :class:`HierarchicalGrid` passes a fresh
    counter, the hierarchical triangle passes the ids of the sub-grid
    region it is carving out of the triangle.
    """
    if spec == LEAF:
        return _Node(None, next(leaf_ids))
    if not spec or any(not row for row in spec):
        raise ConstructionError("grid spec rows must be non-empty")
    rows = [[build_node(child, leaf_ids) for child in row] for row in spec]
    return _Node(rows, None)


def full_lines_of(node: _Node) -> List[Quorum]:
    """All hierarchical full-lines of the object rooted at ``node``."""
    if node.is_leaf:
        return [frozenset({node.leaf_id})]
    lines: List[Quorum] = []
    for row in node.rows:
        child_lines = [full_lines_of(child) for child in row]
        for pick in itertools.product(*child_lines):
            combined: frozenset = frozenset()
            for part in pick:
                combined |= part
            lines.append(combined)
    return lines


def row_covers_of(node: _Node) -> List[Quorum]:
    """All minimal hierarchical row-covers of the object at ``node``."""
    if node.is_leaf:
        return [frozenset({node.leaf_id})]
    per_row: List[List[Quorum]] = []
    for row in node.rows:
        choices: List[Quorum] = []
        for child in row:
            choices.extend(row_covers_of(child))
        per_row.append(choices)
    covers: List[Quorum] = []
    for pick in itertools.product(*per_row):
        combined = frozenset()
        for part in pick:
            combined |= part
        covers.append(combined)
    return covers


def joint_cover_line_pmf_of(node: _Node, q) -> Dict[Tuple[int, int], float]:
    """Joint pmf of (row-cover formable, full-line formable) at ``node``.

    Sibling objects are element-disjoint, hence independent: within a row
    we track (some child coverable, all children line-able); across rows
    (every row coverable, some row line-able).

    ``q`` is either a float (iid survival probability) or a mapping from
    leaf element id to survival probability (heterogeneous model).
    """
    # Integer literals keep the recursion generic over the number type
    # (floats normally, fractions.Fraction for the exact-rational mode).
    if node.is_leaf:
        leaf_q = q[node.leaf_id] if not isinstance(q, float) else q
        return {(1, 1): leaf_q, (0, 0): 1 - leaf_q}
    across = {(1, 0): 1}
    for row in node.rows:
        within = {(0, 1): 1}
        for child in row:
            child_pmf = joint_cover_line_pmf_of(child, q)
            merged: Dict[Tuple[int, int], float] = {}
            for (any_rc, all_fl), prob in within.items():
                for (c_rc, c_fl), c_prob in child_pmf.items():
                    key = (any_rc | c_rc, all_fl & c_fl)
                    merged[key] = merged.get(key, 0) + prob * c_prob
            within = merged
        merged_across: Dict[Tuple[int, int], float] = {}
        for (all_rc, any_fl), prob in across.items():
            for (row_rc, row_fl), row_prob in within.items():
                key = (all_rc & row_rc, any_fl | row_fl)
                merged_across[key] = merged_across.get(key, 0) + prob * row_prob
        across = merged_across
    return across


def global_rows_spanned(node: _Node) -> int:
    """Number of level-0 rows the object spans (its layout height)."""
    if node.is_leaf:
        return 1
    return sum(
        max(global_rows_spanned(child) for child in row) for row in node.rows
    )


def global_cols_spanned(node: _Node) -> int:
    """Number of level-0 columns the object spans (its layout width)."""
    if node.is_leaf:
        return 1
    return max(
        sum(global_cols_spanned(child) for child in row) for row in node.rows
    )


def line_inclusion_probabilities(node: _Node, out: Dict[int, float], scale: float = 1.0) -> None:
    """Per-element probability of being in a randomly chosen full-line.

    Rows are selected with probability proportional to the number of
    level-0 rows they span (the §5 rule: "full-lines are selected
    randomly, at each level, with probability proportional to the number
    of represented level 0 lines"); within the chosen row every child
    contributes its own full-line.
    """
    if node.is_leaf:
        out[node.leaf_id] = out.get(node.leaf_id, 0.0) + scale
        return
    row_spans = [max(global_rows_spanned(child) for child in row) for row in node.rows]
    total = sum(row_spans)
    for row, span in zip(node.rows, row_spans):
        for child in row:
            line_inclusion_probabilities(child, out, scale * span / total)


def cover_inclusion_probabilities(node: _Node, out: Dict[int, float], scale: float = 1.0) -> None:
    """Per-element probability of being in a randomly chosen row-cover.

    Within every row, one child is selected with probability proportional
    to the number of level-0 columns it spans (§5: "row-covers ...
    proportional to the number of represented columns"), recursively.
    """
    if node.is_leaf:
        out[node.leaf_id] = out.get(node.leaf_id, 0.0) + scale
        return
    for row in node.rows:
        spans = [global_cols_spanned(child) for child in row]
        total = sum(spans)
        for child, span in zip(row, spans):
            cover_inclusion_probabilities(child, out, scale * span / total)


def line_distribution(node: _Node) -> Dict[Quorum, float]:
    """Distribution over full-lines under the §5 proportional rule.

    Rows are picked with probability proportional to the number of
    level-0 rows they span; within the chosen row every child contributes
    an independently drawn full-line of its own.
    """
    if node.is_leaf:
        return {frozenset({node.leaf_id}): 1.0}
    row_spans = [max(global_rows_spanned(child) for child in row) for row in node.rows]
    total = sum(row_spans)
    distribution: Dict[Quorum, float] = {}
    for row, span in zip(node.rows, row_spans):
        row_probability = span / total
        partial: Dict[Quorum, float] = {frozenset(): 1.0}
        for child in row:
            child_lines = line_distribution(child)
            merged: Dict[Quorum, float] = {}
            for base, base_prob in partial.items():
                for line, line_prob in child_lines.items():
                    key = base | line
                    merged[key] = merged.get(key, 0.0) + base_prob * line_prob
            partial = merged
        for line, prob in partial.items():
            distribution[line] = distribution.get(line, 0.0) + row_probability * prob
    return distribution


def cover_distribution(node: _Node) -> Dict[Quorum, float]:
    """Distribution over row-covers under the §5 proportional rule.

    Within every row one child is picked with probability proportional to
    the level-0 columns it spans, recursively.
    """
    if node.is_leaf:
        return {frozenset({node.leaf_id}): 1.0}
    distribution: Dict[Quorum, float] = {frozenset(): 1.0}
    for row in node.rows:
        spans = [global_cols_spanned(child) for child in row]
        total = sum(spans)
        row_choices: Dict[Quorum, float] = {}
        for child, span in zip(row, spans):
            for cover, prob in cover_distribution(child).items():
                row_choices[cover] = row_choices.get(cover, 0.0) + prob * span / total
        merged: Dict[Quorum, float] = {}
        for base, base_prob in distribution.items():
            for cover, prob in row_choices.items():
                key = base | cover
                merged[key] = merged.get(key, 0.0) + base_prob * prob
        distribution = merged
    return distribution
