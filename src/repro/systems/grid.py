"""The (flat) grid protocol of Cheung, Ammar and Ahamad [3].

Elements are arranged in an ``R x C`` grid.  Following the paper's
orientation (§4.1):

* a **row-cover** contains at least one element of every row — used as a
  *read* quorum;
* a **full-line** is one complete row — used as a *(blind) write* quorum;
* a **read-write quorum** is the union of a row-cover and a full-line and
  is a proper quorum system (any two read-write quorums intersect).

Row-covers alone and full-lines alone are *not* quorum systems (two
covers, or two lines, may be disjoint — which is precisely why concurrent
reads and concurrent blind writes are allowed by the protocol).

The quorum size is ``~ 2 sqrt(n) - 1`` for square grids and the failure
probability tends to 1 as the grid grows (Peleg–Wool) — the weakness the
hierarchical grid of [9] repairs and that this paper's h-T-grid improves
further.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe


class GridQuorumSystem(QuorumSystem):
    """Flat grid read-write quorums over an ``R x C`` grid.

    Element names are ``(row, col)`` pairs, rows numbered top to bottom
    from 0.
    """

    system_name = "grid"

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ConstructionError(f"grid needs positive dims, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        names = [(r, c) for r in range(rows) for c in range(cols)]
        super().__init__(Universe(names))
        self.system_name = f"grid{rows}x{cols}"

    # ------------------------------------------------------------------
    def element(self, row: int, col: int) -> int:
        """Dense id of grid position ``(row, col)``."""
        return self.universe.id_of((row, col))

    def row_elements(self, row: int) -> Tuple[int, ...]:
        """All element ids of one row."""
        return tuple(self.element(row, c) for c in range(self.cols))

    # ------------------------------------------------------------------
    # Quorum families
    # ------------------------------------------------------------------
    def full_lines(self) -> Iterator[Quorum]:
        """Write quorums: each complete row."""
        for row in range(self.rows):
            yield frozenset(self.row_elements(row))

    def row_covers(self) -> Iterator[Quorum]:
        """Minimal read quorums: one element from every row."""
        per_row = [self.row_elements(r) for r in range(self.rows)]
        for pick in itertools.product(*per_row):
            yield frozenset(pick)

    def read_quorums(self) -> List[Quorum]:
        """Minimal read quorums for split read/write serving.

        The uniform protocol hook consumed by
        :func:`repro.analysis.capacity.read_quorums_of`: each row cover
        (size R) intersects every read-write quorum and every full line,
        so reads served from covers always see the newest write.
        """
        return list(self.row_covers())

    def _generate_quorums(self) -> Iterator[Quorum]:
        """Read-write quorums: full row plus one element per other row."""
        for row in range(self.rows):
            line = frozenset(self.row_elements(row))
            other_rows = [self.row_elements(r) for r in range(self.rows) if r != row]
            if not other_rows:
                yield line
                continue
            for pick in itertools.product(*other_rows):
                yield line | frozenset(pick)

    # ------------------------------------------------------------------
    # Closed forms
    # ------------------------------------------------------------------
    def read_failure_probability(self, p: float) -> float:
        """Probability no row-cover is alive: some row entirely failed."""
        alive_row = 1.0 - p**self.cols
        return 1.0 - alive_row**self.rows

    def write_failure_probability(self, p: float) -> float:
        """Probability no full line is alive: every row has a failure."""
        full_row = (1.0 - p) ** self.cols
        return (1.0 - full_row) ** self.rows

    def failure_probability_exact(self, p: float) -> float:
        """Read-write availability needs every row live *and* some row
        full; rows are independent, so

        ``A = prod(1 - p^C) - prod(1 - p^C - q^C)``.
        """
        q = 1.0 - p
        live = 1.0 - p**self.cols
        live_not_full = live - q**self.cols
        return 1.0 - (live**self.rows - live_not_full**self.rows)

    def availability_heterogeneous(self, survive) -> float:
        """Per-row products at per-element survival probabilities."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        all_live = 1.0
        live_not_full = 1.0
        for row in range(self.rows):
            probs = [survive[self.element(row, c)] for c in range(self.cols)]
            full = 1.0
            dead = 1.0
            for value in probs:
                full *= value
                dead *= 1.0 - value
            live = 1.0 - dead
            all_live *= live
            live_not_full *= live - full
        return all_live - live_not_full

    def load_exact(self) -> float:
        """Exact load of the read-write grid.

        All minimal quorums have size ``C + R - 1``; picking the full row
        uniformly and cover elements uniformly loads every element equally
        (each element is in the full line w.p. ``1/R`` and in the cover
        w.p. ``(R-1)/R * 1/C``), so the load is ``(C + R - 1) / (R*C)``.
        """
        return (self.cols + self.rows - 1) / (self.rows * self.cols)
