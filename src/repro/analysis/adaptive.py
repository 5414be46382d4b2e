"""Failure-aware quorum selection.

§4.3 of the paper closes its strategy discussion with: "In real
situations, the strategy to be used should be adapted taking into
consideration the elements that are failed (as it should also be done in
h-grid)."  This module implements that adaptation:

* :func:`live_quorums` / :func:`find_live_quorum` — exact search for
  quorums avoiding a known-failed set (the clairvoyant baseline whose
  success probability *is* the paper's availability);
* :class:`FailureAwareSelector` — a practical selector that starts from
  a base strategy, skips quorums hitting suspected-failed elements, and
  falls back to an exact scan; it keeps the base strategy's load profile
  while failures are absent and degrades to best-possible availability
  when they are present.

The ablation benchmark quantifies the gap this closes versus blindly
sampling quorums.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

import numpy as np

from ..core.errors import AnalysisError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.strategy import Strategy


def live_quorums(system: QuorumSystem, failed: Iterable[int]) -> List[Quorum]:
    """All minimal quorums that avoid every element of ``failed``."""
    failed_set = frozenset(failed)
    return [q for q in system.minimal_quorums() if not (q & failed_set)]


def find_live_quorum(
    system: QuorumSystem,
    failed: Iterable[int],
    prefer: str = "smallest",
) -> Optional[Quorum]:
    """One quorum avoiding the failed set, or ``None`` when the system is
    unavailable under these failures (the Def. 3.2 failure event).

    ``prefer`` selects among the survivors: ``"smallest"`` (fewest
    messages) or ``"first"`` (deterministic order).
    """
    candidates = live_quorums(system, failed)
    if not candidates:
        return None
    if prefer == "smallest":
        return min(candidates, key=lambda q: (len(q), sorted(q)))
    if prefer == "first":
        return candidates[0]
    raise AnalysisError(f"unknown preference {prefer!r}")


class FailureAwareSelector:
    """Quorum selector that adapts to suspected failures.

    Parameters
    ----------
    strategy:
        Base strategy used while no failures are suspected (e.g. the §5
        balanced strategy), preserving its load profile.
    max_resamples:
        How many strategy samples to try before falling back to the
        exact live-quorum scan.

    The selector maintains a *suspicion set* fed by the caller (timeouts,
    failure detectors).  Suspicions are soft state: :meth:`clear` or
    :meth:`unsuspect` withdraw them, matching the paper's transient
    failures.
    """

    def __init__(self, strategy: Strategy, max_resamples: int = 8) -> None:
        if max_resamples < 1:
            raise AnalysisError("max_resamples must be >= 1")
        self.strategy = strategy
        self.max_resamples = max_resamples
        self._suspected: set = set()
        self.samples_drawn = 0
        self.fallback_scans = 0

    # ------------------------------------------------------------------
    @property
    def system(self) -> QuorumSystem:
        """The underlying quorum system."""
        return self.strategy.system

    @property
    def suspected(self) -> FrozenSet[int]:
        """Currently suspected-failed elements."""
        return frozenset(self._suspected)

    def suspect(self, element: int) -> None:
        """Mark an element as suspected failed."""
        self._suspected.add(element)

    def unsuspect(self, element: int) -> None:
        """Withdraw a suspicion (element responded again)."""
        self._suspected.discard(element)

    def clear(self) -> None:
        """Forget all suspicions."""
        self._suspected.clear()

    # ------------------------------------------------------------------
    def pick(self, rng: np.random.Generator) -> Optional[Quorum]:
        """A quorum avoiding all suspected elements, or ``None``.

        Draws from the base strategy first (cheap, load-preserving);
        after ``max_resamples`` collisions with the suspicion set it
        switches to the exact scan, which finds a live quorum whenever
        one exists.
        """
        if not self._suspected:
            self.samples_drawn += 1
            return self.strategy.sample(rng)
        for _ in range(self.max_resamples):
            self.samples_drawn += 1
            quorum = self.strategy.sample(rng)
            if not (quorum & self._suspected):
                return quorum
        self.fallback_scans += 1
        candidates = live_quorums(self.system, self._suspected)
        if not candidates:
            return None
        index = int(rng.integers(len(candidates)))
        return candidates[index]


def availability_with_selector(
    system: QuorumSystem,
    p: float,
    trials: int,
    rng: np.random.Generator,
    strategy: Optional[Strategy] = None,
    blind_attempts: Optional[int] = None,
) -> float:
    """Monte-Carlo success rate of quorum selection under iid crashes.

    With ``blind_attempts`` set, models a non-adaptive client that
    samples that many quorums and succeeds if one is fully alive; without
    it, models the failure-aware selector with a perfect failure
    detector, whose success rate equals the analytic availability.
    """
    strategy = strategy or Strategy.uniform(system)
    successes = 0
    n = system.n
    for _ in range(trials):
        alive = frozenset(int(e) for e in np.flatnonzero(rng.random(n) >= p))
        if blind_attempts is None:
            selector = FailureAwareSelector(strategy)
            for element in range(n):
                if element not in alive:
                    selector.suspect(element)
            quorum = selector.pick(rng)
            if quorum is not None and quorum <= alive:
                successes += 1
        else:
            for _ in range(blind_attempts):
                if strategy.sample(rng) <= alive:
                    successes += 1
                    break
    return successes / trials
