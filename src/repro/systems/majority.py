"""Voting-based quorum systems: majority and weighted voting (Gifford).

The earliest quorum systems define quorums through votes [Gifford 1979]:
a quorum is any set whose combined votes exceed half of the total.  With
one vote per element this is the *majority* system, which has the best
possible failure probability for ``p < 1/2`` (Prop. 3.2) but linear
quorum size ``(n+1)/2`` and load ``~ 1/2`` — the baseline of Tables 2-5.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Sequence

from ..core.errors import ConstructionError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.universe import Universe


class WeightedVotingQuorumSystem(QuorumSystem):
    """Gifford-style weighted voting.

    A set is a quorum when its votes are strictly more than half the total
    (ties broken upward).  Minimal quorums are enumerated directly, so the
    class targets the small/medium universes of the paper.

    Parameters
    ----------
    universe:
        Universe of elements.
    votes:
        Non-negative integer vote count per element.
    """

    system_name = "weighted-voting"

    def __init__(self, universe: Universe, votes: Sequence[int]) -> None:
        super().__init__(universe)
        if len(votes) != universe.size:
            raise ConstructionError(
                f"{universe.size} elements but {len(votes)} vote counts"
            )
        if any(v < 0 for v in votes):
            raise ConstructionError("votes must be non-negative")
        if sum(votes) <= 0:
            raise ConstructionError("total votes must be positive")
        self.votes = tuple(int(v) for v in votes)
        self.threshold = sum(self.votes) // 2 + 1

    def _generate_quorums(self) -> Iterator[Quorum]:
        elements = sorted(
            (e for e in self.universe.ids if self.votes[e] > 0),
            key=lambda e: -self.votes[e],
        )

        def grow(start: int, chosen: tuple, total: int) -> Iterator[Quorum]:
            if total >= self.threshold:
                yield frozenset(chosen)
                return
            for k in range(start, len(elements)):
                element = elements[k]
                yield from grow(k + 1, chosen + (element,), total + self.votes[element])

        yield from grow(0, (), 0)


class MajorityQuorumSystem(WeightedVotingQuorumSystem):
    """One element, one vote: quorums are the ``floor(n/2)+1``-subsets.

    For odd ``n`` the system is self-dual, hence ``F_{1/2} = 1/2`` exactly
    (visible in Tables 2 and 3 of the paper).
    """

    system_name = "majority"

    def __init__(self, universe: Universe) -> None:
        super().__init__(universe, [1] * universe.size)
        self.quorum_size = universe.size // 2 + 1

    @classmethod
    def of_size(cls, n: int) -> "MajorityQuorumSystem":
        """Majority over an anonymous universe of ``n`` elements."""
        return cls(Universe.of_size(n))

    def _generate_quorums(self) -> Iterator[Quorum]:
        for combo in itertools.combinations(self.universe.ids, self.quorum_size):
            yield frozenset(combo)

    def minimal_quorums(self):
        """Refuse accidental enumeration blow-ups.

        ``C(n, n//2+1)`` explodes quickly; all metrics of the majority
        system have closed forms, so enumeration is only allowed where it
        is actually feasible.
        """
        self._check_enumerable(self.quorum_size)
        return super().minimal_quorums()

    def read_quorums(self) -> List[Quorum]:
        """Minimal read quorums for split read/write serving: the
        ``n - floor(n/2)``-subsets, the smallest sets that meet every
        quorum.  The same list, in the same order, as the dual system's
        minimal quorums, without enumerating the dual."""
        size = self.n - self.n // 2
        self._check_enumerable(size)
        return [
            frozenset(combo) for combo in itertools.combinations(sorted(self.universe.ids), size)
        ]

    def _check_enumerable(self, size: int) -> None:
        if self.n > 30:
            raise ConstructionError(
                f"refusing to enumerate C({self.n}, {size}) majority"
                " quorums; use the closed-form metrics instead"
            )

    def failure_probability_exact(self, p: float) -> float:
        """Binomial tail: the system fails iff at least ``n - q + 1``
        elements fail, i.e. fewer than ``q = floor(n/2)+1`` survive.

        Computed term-by-term for small ``n`` (bit-exact against the
        exhaustive engine) and through the scipy survival function for
        large ``n``, where ``math.comb`` overflows floats.
        """
        n = self.n
        min_failures = n - self.quorum_size + 1
        q = 1.0 - p
        if n <= 500:
            return sum(
                math.comb(n, k) * (p**k) * (q ** (n - k))
                for k in range(min_failures, n + 1)
            )
        from scipy.stats import binom

        return float(binom.sf(min_failures - 1, n, p))

    def availability_heterogeneous(self, survive) -> float:
        """Poisson-binomial tail: DP over the survivor-count distribution."""
        if len(survive) != self.n:
            raise ConstructionError(
                f"expected {self.n} survival probabilities, got {len(survive)}"
            )
        import numpy as np

        distribution = np.zeros(self.n + 1)
        distribution[0] = 1.0
        for q in survive:
            distribution[1:] = distribution[1:] * (1 - q) + distribution[:-1] * q
            distribution[0] *= 1 - q
        return float(distribution[self.quorum_size :].sum())

    def load_exact(self) -> float:
        """By symmetry the uniform strategy is optimal: ``L = (n//2+1)/n``."""
        return self.quorum_size / self.n

    def smallest_quorum_size(self) -> int:
        return self.quorum_size

    def largest_quorum_size(self) -> int:
        return self.quorum_size

    def has_uniform_quorum_size(self) -> bool:
        return True
