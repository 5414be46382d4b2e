"""Rare-event estimation of tiny failure probabilities.

At small ``p`` the failure probabilities of the hierarchical systems are
minuscule (h-triang(28) at p = 0.05 is ~1e-7), so naive Monte Carlo sees
zero failures in any reasonable budget.  *Failure biasing* fixes this:
sample crashes from an inflated probability ``p'`` and weight each
sample by its likelihood ratio

    LR(x) = prod_i (p/p')^{x_i} ((1-p)/(1-p'))^{1-x_i},

an unbiased estimator of ``F_p`` whose variance collapses because the
biased sampler actually visits failure states.  Used to validate the
structural recursions deep in their tails, where neither exhaustive
enumeration (n too big) nor naive sampling works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.errors import AnalysisError
from ..core.quorum_system import QuorumSystem
from .montecarlo import sample_failures


@dataclass(frozen=True)
class RareEventEstimate:
    """A failure-probability estimate from biased sampling."""

    #: Unbiased point estimate of F_p.
    value: float
    #: Standard error of the estimate.
    standard_error: float
    #: Number of samples drawn under the biased measure.
    samples: int
    #: The inflated crash probability used for sampling.
    biased_p: float
    #: Fraction of biased samples that hit the failure event.
    hit_rate: float

    def relative_error(self) -> float:
        """Standard error over the estimate (NaN when the estimate is 0)."""
        if self.value == 0.0:
            return float("nan")
        return self.standard_error / self.value


def failure_probability_rare(
    system: QuorumSystem,
    p: float,
    biased_p: Optional[float] = None,
    samples: int = 100_000,
    seed: int = 0,
) -> RareEventEstimate:
    """Estimate ``F_p`` by failure-biased importance sampling.

    Parameters
    ----------
    system:
        The quorum system (minimal quorums must be enumerable).
    p:
        The true (small) crash probability.
    biased_p:
        Sampling crash probability; defaults to a heuristic that puts the
        expected number of crashes near the dual's smallest transversal.
    samples:
        Number of biased samples.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"p must be in (0, 1), got {p}")
    if samples <= 0:
        raise AnalysisError("samples must be positive")
    n = system.n
    if biased_p is None:
        # Push the sampler towards states with enough failures to hit
        # every quorum: c(S) failures are necessary, so aim the mean
        # failure count there (capped away from the extremes).
        biased_p = min(0.5, max(p, system.smallest_quorum_size() / n))
    if not p <= biased_p < 1.0:
        raise AnalysisError(
            f"biased_p must satisfy p <= biased_p < 1, got {biased_p}"
        )

    log_fail_ratio = math.log(p / biased_p)
    log_ok_ratio = math.log((1 - p) / (1 - biased_p))

    total = 0.0
    total_sq = 0.0
    hits = 0
    for alive, failure in sample_failures(system, biased_p, samples, seed):
        survivors = alive.sum(axis=1)
        log_weights = (n - survivors) * log_fail_ratio + survivors * log_ok_ratio
        weights = np.where(failure, np.exp(log_weights), 0.0)
        total += float(weights.sum())
        total_sq += float((weights**2).sum())
        hits += int(failure.sum())

    mean = total / samples
    variance = max(total_sq / samples - mean**2, 0.0)
    return RareEventEstimate(
        value=mean,
        standard_error=math.sqrt(variance / samples),
        samples=samples,
        biased_p=biased_p,
        hit_rate=hits / samples,
    )
