"""Byzantine quorum-system analysis (the paper's §2/§7 outlook).

The paper notes that its constructions "can also be adapted and used in
Byzantine quorum systems" in the sense of Malkhi–Reiter [12].  This
module provides the analysis side of that outlook:

* a **b-dissemination** system needs every pairwise quorum intersection
  to contain at least ``b+1`` elements (some correct element is shared,
  enough for self-verifying data);
* a **b-masking** system needs intersections of at least ``2b+1``
  elements (correct copies outvote the ``b`` liars).

Given any crash-model construction from :mod:`repro.systems`, the
functions below compute its *Byzantine thresholds* (the largest tolerable
``b`` of each kind), and :func:`boost` mechanically thickens a system to
reach a requested threshold by replacing each element with a group of
``2b+1`` replicas — the composition route the paper's remark suggests
(every pairwise intersection then contains a full group).  This is an
*extension* beyond the paper's evaluation, flagged as such in
EXPERIMENTS.md and exercised by `bench_ext_byzantine.py`.
"""

from __future__ import annotations

import itertools
from typing import Tuple

from ..core.composition import ComposedQuorumSystem
from ..core.errors import AnalysisError, ConstructionError
from ..core.quorum_system import ExplicitQuorumSystem, QuorumSystem
from ..core.universe import Universe


def min_pairwise_intersection(system: QuorumSystem) -> int:
    """Smallest ``|Q1 ∩ Q2|`` over distinct minimal quorums.

    Quadratic in the number of minimal quorums, computed as a blocked
    boolean matrix product so families with tens of thousands of quorums
    (e.g. masking majorities) finish in seconds.  A single quorum counts
    as intersection with itself (its own size).
    """
    import numpy as np

    quorums = system.minimal_quorums()
    if len(quorums) == 1:
        return len(quorums[0])
    if len(quorums) <= 200:
        return min(
            len(first & second)
            for first, second in itertools.combinations(quorums, 2)
        )
    matrix = np.zeros((len(quorums), system.n), dtype=np.float32)
    for row, quorum in enumerate(quorums):
        matrix[row, sorted(quorum)] = 1.0
    best = system.n
    block = 2048
    for start in range(0, len(quorums), block):
        chunk = matrix[start : start + block]
        overlaps = chunk @ matrix.T  # (block, m) intersection sizes
        # Mask the diagonal (self-intersections) inside this chunk.
        for offset in range(chunk.shape[0]):
            overlaps[offset, start + offset] = np.inf
        best = min(best, int(overlaps.min()))
        if best == 0:
            break
    return best


def dissemination_threshold(system: QuorumSystem) -> int:
    """Largest ``b`` for which the system is b-dissemination
    (``|Q1 ∩ Q2| >= b + 1``)."""
    return min_pairwise_intersection(system) - 1


def masking_threshold(system: QuorumSystem) -> int:
    """Largest ``b`` for which the system is b-masking
    (``|Q1 ∩ Q2| >= 2b + 1``)."""
    return (min_pairwise_intersection(system) - 1) // 2


def is_b_dissemination(system: QuorumSystem, b: int) -> bool:
    """Whether every pairwise intersection has more than ``b`` elements."""
    if b < 0:
        raise AnalysisError(f"b must be >= 0, got {b}")
    return min_pairwise_intersection(system) >= b + 1


def is_b_masking(system: QuorumSystem, b: int) -> bool:
    """Whether every pairwise intersection has at least ``2b+1`` elements."""
    if b < 0:
        raise AnalysisError(f"b must be >= 0, got {b}")
    return min_pairwise_intersection(system) >= 2 * b + 1


def _replica_group(size: int) -> ExplicitQuorumSystem:
    """Inner system whose single quorum is the whole group.

    Replacing an element by this group turns a shared element into
    ``size`` shared replicas in every pairwise intersection.
    """
    universe = Universe.of_size(size)
    return ExplicitQuorumSystem(
        universe, [frozenset(range(size))], name=f"group{size}"
    )


def boost(system: QuorumSystem, b: int) -> ComposedQuorumSystem:
    """Thicken a crash-model system into a b-masking Byzantine one.

    Every element becomes a group of ``2b+1`` replicas, all of which must
    be contacted.  Any two boosted quorums then share at least one whole
    group, i.e. at least ``2b+1`` replicas, so the result is b-masking
    (and (2b)-dissemination) whatever the base construction — at a
    ``(2b+1)x`` size/load cost, which the benchmark quantifies against
    the masking-majority baseline.
    """
    if b < 0:
        raise ConstructionError(f"b must be >= 0, got {b}")
    group = 2 * b + 1
    return ComposedQuorumSystem(system, [_replica_group(group)] * system.n)


def validate_masking(system: QuorumSystem, b: int) -> int:
    """Check a system is b-masking; the serving path's startup gate.

    Returns the system's masking threshold when it is at least ``b``.
    Raises :class:`AnalysisError` otherwise, naming the actual bound and
    the :func:`boost` call that would reach the requested one — the
    coordinator surfaces that message verbatim so a misconfigured
    deployment learns the fix, not just the failure.
    """
    if b < 0:
        raise AnalysisError(f"b must be >= 0, got {b}")
    threshold = masking_threshold(system)
    if threshold < b:
        raise AnalysisError(
            f"{system.system_name} is only {threshold}-masking (min pairwise "
            f"intersection {min_pairwise_intersection(system)} < {2 * b + 1}); "
            f"b={b} needs a thicker system — e.g. "
            f"analysis.byzantine.boost(system, {b})"
        )
    return threshold


def masking_majority(n: int, b: int) -> ExplicitQuorumSystem:
    """The Malkhi–Reiter masking-majority baseline.

    Quorums are all subsets of size ``ceil((n + 2b + 1) / 2)``; any two
    intersect in at least ``2b+1`` elements.  Requires ``n >= 4b + 1``.
    """
    if b < 0:
        raise ConstructionError(f"b must be >= 0, got {b}")
    if n < 4 * b + 1:
        raise ConstructionError(
            f"masking majority needs n >= 4b+1 = {4 * b + 1}, got {n}"
        )
    size = -((-(n + 2 * b + 1)) // 2)  # ceil
    universe = Universe.of_size(n)
    quorums = [frozenset(c) for c in itertools.combinations(range(n), size)]
    # Any two size-k subsets of [n] share >= 2k - n >= 2b + 1 elements, so
    # the quadratic eager validation is provably unnecessary (and would
    # dominate construction time for the larger instances).
    system = ExplicitQuorumSystem(
        universe, quorums, name=f"masking-majority(n={n},b={b})", validate=False
    )
    return system


def byzantine_profile(system: QuorumSystem) -> Tuple[int, int, int]:
    """(min pairwise intersection, dissemination b, masking b)."""
    overlap = min_pairwise_intersection(system)
    return overlap, overlap - 1, (overlap - 1) // 2
