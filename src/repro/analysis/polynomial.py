"""Reliability polynomial and transversal counts (Proposition 3.1).

The paper computes failure probabilities through the *transversals* of a
system: a size-``i`` transversal is a set of ``i`` elements hitting every
quorum, and with ``a_i`` the number of such sets,

    ``F_p(S) = sum_i a_i * p^i * q^(n-i)``.

This module computes the exact transversal profile ``(a_0, ..., a_n)`` by
bitmask enumeration (n <= 22) and exposes the failure probability as an
explicit polynomial, which makes properties like monotonicity in ``p`` and
the self-duality identity ``F_{1/2} = 1/2`` directly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.quorum_system import QuorumSystem
from .exhaustive import MAX_EXHAUSTIVE_N, usable_states
from ..core.errors import AnalysisError


@dataclass(frozen=True)
class ReliabilityPolynomial:
    """Failure probability of a system as a polynomial in ``p``.

    ``transversal_counts[i]`` is ``a_i`` of Proposition 3.1: the number of
    element sets of size ``i`` whose failure makes every quorum unusable.
    """

    n: int
    transversal_counts: Tuple[int, ...]

    def failure_probability(self, p: float) -> float:
        """Evaluate ``F_p = sum_i a_i p^i (1-p)^(n-i)``."""
        q = 1.0 - p
        total = 0.0
        for i, count in enumerate(self.transversal_counts):
            if count:
                total += count * (p**i) * (q ** (self.n - i))
        return total

    def availability(self, p: float) -> float:
        """``1 - F_p``."""
        return 1.0 - self.failure_probability(p)

    @property
    def minimum_transversal_size(self) -> int:
        """Size of the smallest transversal (the dual's ``c(S*)``)."""
        for i, count in enumerate(self.transversal_counts):
            if count:
                return i
        raise AnalysisError("system has no transversal; not a quorum system?")

    def is_self_complementary(self) -> bool:
        """True when ``a_i + a_{n-i} = C(n, i)`` for all ``i``.

        This combinatorial identity characterises self-dual systems and
        implies ``F_{1/2} = 1/2`` — the fixed point visible for majority,
        HQS, CWlog, Y and h-triang in Tables 2 and 3 of the paper.
        """
        from math import comb

        return all(
            self.transversal_counts[i] + self.transversal_counts[self.n - i]
            == comb(self.n, i)
            for i in range(self.n + 1)
        )


def popcount_table(n: int) -> np.ndarray:
    """Number of set bits for every mask in ``range(2**n)``."""
    states = np.arange(1 << n, dtype=np.uint64)
    counts = np.zeros(1 << n, dtype=np.uint8)
    for bit in range(n):
        counts += ((states >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)
    return counts


def reliability_polynomial(system: QuorumSystem) -> ReliabilityPolynomial:
    """Exact transversal profile of the system by 2^n enumeration."""
    n = system.n
    if n > MAX_EXHAUSTIVE_N:
        raise AnalysisError(
            f"polynomial engine supports n <= {MAX_EXHAUSTIVE_N}, got {n}"
        )
    usable = usable_states(system)
    alive_counts = popcount_table(n)
    # A failed set T is a transversal iff the complementary alive set
    # contains no quorum; failed-set size = n - popcount(alive mask).
    failed_sizes = n - alive_counts[~usable]
    counts = np.bincount(failed_sizes, minlength=n + 1)
    return ReliabilityPolynomial(n=n, transversal_counts=tuple(int(c) for c in counts))
