"""Hierarchical Quorum System (HQS) of Kumar [8].

Elements are the leaves of a tree; a quorum is assembled recursively by
taking quorums in a *majority* of the children of each node.  With the
ternary recursion the quorum size is ``n^{log_3 2+...} = O(n^0.63)``; the
paper's Tables 2-4 use HQS instances with 15 and 27 elements (quorum sizes
6 and 8).

The construction is parameterised by the full branching structure, so
both the balanced ``3 x 5`` (15 leaves) and ``3 x 3 x 3`` (27 leaves)
instances of the paper, and arbitrary irregular trees, are expressible.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe

#: A tree spec is either the leaf sentinel or a sequence of child specs.
TreeSpec = Union[str, Sequence]

LEAF = "leaf"


def balanced_spec(branching: Sequence[int]) -> TreeSpec:
    """Spec of a balanced tree: ``branching[0]`` children at the root, each
    with ``branching[1:]`` below, leaves at the bottom.

    ``balanced_spec([3, 5])`` is the paper's 15-element HQS;
    ``balanced_spec([3, 3, 3])`` the 27-element one.
    """
    if not branching:
        return LEAF
    head, *rest = branching
    if head < 1:
        raise ConstructionError(f"branching factors must be >= 1, got {head}")
    return [balanced_spec(rest) for _ in range(head)]


def _count_leaves(spec: TreeSpec) -> int:
    if spec == LEAF:
        return 1
    return sum(_count_leaves(child) for child in spec)


def _majority_of(k: int) -> int:
    """Number of children needed at a node with ``k`` children."""
    return k // 2 + 1


class HQSQuorumSystem(QuorumSystem):
    """Kumar's hierarchical quorum consensus over an arbitrary tree.

    Parameters
    ----------
    spec:
        Nested-list tree description (see :data:`LEAF`,
        :func:`balanced_spec`).
    """

    system_name = "hqs"

    def __init__(self, spec: TreeSpec) -> None:
        self._spec = spec
        n = _count_leaves(spec)
        super().__init__(Universe.of_size(n))
        self._leaf_ranges = {}

    @classmethod
    def balanced(cls, branching: Sequence[int]) -> "HQSQuorumSystem":
        """Balanced HQS, e.g. ``balanced([3, 5])`` for the paper's n=15."""
        system = cls(balanced_spec(branching))
        system.system_name = f"hqs{list(branching)}"
        return system

    # ------------------------------------------------------------------
    @property
    def spec(self) -> TreeSpec:
        """The tree description."""
        return self._spec

    def _quorums_of(self, spec: TreeSpec, offset: int) -> Tuple[List[Quorum], int]:
        """Minimal quorums of the subtree starting at leaf id ``offset``.

        Returns the quorums and the number of leaves consumed.
        """
        if spec == LEAF:
            return [frozenset({offset})], 1
        child_quorums: List[List[Quorum]] = []
        consumed = 0
        for child in spec:
            quorums, used = self._quorums_of(child, offset + consumed)
            child_quorums.append(quorums)
            consumed += used
        k = len(child_quorums)
        need = _majority_of(k)
        result: List[Quorum] = []
        for subset in itertools.combinations(range(k), need):
            for pick in itertools.product(*(child_quorums[i] for i in subset)):
                combined: frozenset = frozenset()
                for part in pick:
                    combined |= part
                result.append(combined)
        return result, consumed

    def _generate_quorums(self) -> Iterator[Quorum]:
        quorums, consumed = self._quorums_of(self._spec, 0)
        assert consumed == self.n
        return iter(quorums)

    # ------------------------------------------------------------------
    def _availability_of(self, spec: TreeSpec, q: float) -> float:
        """Probability a quorum can be formed in the subtree."""
        if spec == LEAF:
            return q
        child_avail = [self._availability_of(child, q) for child in spec]
        k = len(child_avail)
        need = _majority_of(k)
        # Probability that at least `need` independent children succeed:
        # convolve the success-count distribution.
        distribution = np.zeros(k + 1)
        distribution[0] = 1.0
        for a in child_avail:
            distribution[1:] = distribution[1:] * (1 - a) + distribution[:-1] * a
            distribution[0] *= 1 - a
        return float(distribution[need:].sum())

    def failure_probability_exact(self, p: float) -> float:
        """Exact recursion: child subtrees are element-disjoint, hence
        independent; each node needs a majority of its children."""
        return 1.0 - self._availability_of(self._spec, 1.0 - p)

    def availability_heterogeneous(self, survive) -> float:
        """Tree-majority recursion at per-leaf survival probabilities."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        leaves = iter(survive)

        def recurse(spec) -> float:
            if spec == LEAF:
                return float(next(leaves))
            child_avail = [recurse(child) for child in spec]
            k = len(child_avail)
            need = _majority_of(k)
            distribution = np.zeros(k + 1)
            distribution[0] = 1.0
            for a in child_avail:
                distribution[1:] = distribution[1:] * (1 - a) + distribution[:-1] * a
                distribution[0] *= 1 - a
            return float(distribution[need:].sum())

        return recurse(self._spec)

    # ------------------------------------------------------------------
    def _is_balanced(self, spec: Optional[TreeSpec] = None) -> bool:
        spec = self._spec if spec is None else spec
        if spec == LEAF:
            return True
        shapes = {self._shape(child) for child in spec}
        return len(shapes) == 1 and all(self._is_balanced(child) for child in spec)

    def _shape(self, spec: TreeSpec):
        if spec == LEAF:
            return LEAF
        return tuple(self._shape(child) for child in spec)

    def load_exact(self) -> Optional[float]:
        """For balanced trees, symmetry makes the uniform strategy optimal
        and the load equals ``quorum_size / n`` (all quorums have equal
        size in a balanced HQS)."""
        if not self._is_balanced():
            return None
        return self.smallest_quorum_size() / self.n

    def quorum_size_formula(self) -> int:
        """Quorum size of a balanced tree: product of child majorities."""

        def size(spec: TreeSpec) -> int:
            if spec == LEAF:
                return 1
            return _majority_of(len(spec)) * size(spec[0])

        if not self._is_balanced():
            raise ConstructionError("quorum_size_formula requires a balanced tree")
        return size(self._spec)
