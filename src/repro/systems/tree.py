"""Tree quorum protocol of Agrawal and El Abbadi [1].

All ``n`` elements are arranged in a (usually binary) in-tree: *every*
node of the tree is an element (unlike HQS, where only leaves are).  A
quorum of a subtree rooted at ``r`` is either

* ``{r}`` together with a quorum of **one** child subtree, or
* the union of quorums of **all** child subtrees (used when ``r`` failed).

For a leaf the only quorum is the leaf itself.  Quorum sizes therefore
range from a root-to-leaf path (``O(log n)``) up to a leaf-majority
(``O(n)`` in the worst case), which is the "different sizes" property the
paper's related-work section mentions.
"""

from __future__ import annotations

from typing import Iterator, List

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe


class TreeQuorumSystem(QuorumSystem):
    """Agrawal–El Abbadi tree quorums over a complete d-ary tree.

    Parameters
    ----------
    height:
        Height of the tree; a tree of height 0 is a single element.
    arity:
        Number of children per internal node (default 2, the classic
        construction).
    """

    system_name = "tree"

    def __init__(self, height: int, arity: int = 2) -> None:
        if height < 0:
            raise ConstructionError(f"height must be >= 0, got {height}")
        if arity < 2:
            raise ConstructionError(f"arity must be >= 2, got {arity}")
        self.height = height
        self.arity = arity
        count = (arity ** (height + 1) - 1) // (arity - 1)
        super().__init__(Universe.of_size(count))
        self.system_name = f"tree(h={height},d={arity})"

    # ------------------------------------------------------------------
    # Tree addressing: node 0 is the root; children of node v are
    # v*arity + 1 ... v*arity + arity (heap layout).
    # ------------------------------------------------------------------
    def children(self, node: int) -> List[int]:
        """Ids of the children of ``node`` (empty for leaves)."""
        first = node * self.arity + 1
        if first >= self.n:
            return []
        return list(range(first, first + self.arity))

    def _quorums_of(self, node: int) -> List[Quorum]:
        kids = self.children(node)
        if not kids:
            return [frozenset({node})]
        child_quorums = [self._quorums_of(kid) for kid in kids]
        result: List[Quorum] = []
        for quorums in child_quorums:
            for quorum in quorums:
                result.append(quorum | {node})
        # Root replaced: quorums of all children combined.
        import itertools

        for pick in itertools.product(*child_quorums):
            combined: frozenset = frozenset()
            for part in pick:
                combined |= part
            result.append(combined)
        return result

    def _generate_quorums(self) -> Iterator[Quorum]:
        return iter(self._quorums_of(0))

    # ------------------------------------------------------------------
    def _availability_of(self, node: int, q: float) -> float:
        kids = self.children(node)
        if not kids:
            return q
        child_avail = [self._availability_of(kid, q) for kid in kids]
        any_child = 1.0
        all_children = 1.0
        for a in child_avail:
            any_child *= 1.0 - a
            all_children *= a
        any_child = 1.0 - any_child
        # Node alive: need any child quorum (or the node is a leaf-path
        # endpoint already handled above).  Node dead: need all children.
        return q * any_child + (1.0 - q) * all_children

    def failure_probability_exact(self, p: float) -> float:
        """Exact recursion over the tree (subtrees are independent).

        Note the node itself participates in quorums, unlike HQS.
        """
        return 1.0 - self._availability_of(0, 1.0 - p)

    def availability_heterogeneous(self, survive) -> float:
        """Tree recursion at per-node survival probabilities."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )

        def recurse(node: int) -> float:
            q = float(survive[node])
            kids = self.children(node)
            if not kids:
                return q
            child_avail = [recurse(kid) for kid in kids]
            none_child = 1.0
            all_children = 1.0
            for a in child_avail:
                none_child *= 1.0 - a
                all_children *= a
            return q * (1.0 - none_child) + (1.0 - q) * all_children

        return recurse(0)
