"""Monte-Carlo estimation of quorum-system failure probability.

Used (a) as an independent cross-check of the exact engines in tests and
(b) for systems too large or too unstructured for exact evaluation.
Returns estimates with binomial confidence intervals so callers can make
principled comparisons.
Both samplers of F_p, this one and :mod:`repro.analysis.rare`, count
through one kernel, :func:`sample_failures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import bitpack
from ..core.errors import AnalysisError
from ..core.quorum_system import QuorumSystem

#: Configurations drawn and tested per vectorised pass.
BATCH = 65_536


def validate_probability(p: float) -> None:
    """Reject a crash probability outside [0, 1] (NaN included)."""
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"crash probability must be in [0, 1], got {p}")


@dataclass(frozen=True)
class MonteCarloEstimate:
    """How many of ``samples`` crash configurations held no live quorum.

    The failure rate estimates ``F_p`` (Def. 3.2); the interval is the
    normal approximation at ``confidence``.
    """

    #: Number of sampled failure configurations.
    samples: int
    #: How many of them contained no quorum.
    failures: int
    #: Confidence level of the interval (e.g. 0.99).
    confidence: float = 0.99

    @property
    def value(self) -> float:
        """Point estimate of F_p (0.0 when nothing was sampled)."""
        if self.samples == 0:
            return 0.0
        return self.failures / self.samples

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval (1.0 when nothing was
        sampled)."""
        if self.samples == 0:
            return 1.0
        value = self.value
        return _z_for(self.confidence) * math.sqrt(
            max(value * (1 - value), 1e-12) / self.samples
        )

    @property
    def low(self) -> float:
        """Lower end of the confidence interval, clipped to [0, 1]."""
        return max(0.0, self.value - self.half_width)

    @property
    def high(self) -> float:
        """Upper end of the confidence interval, clipped to [0, 1]."""
        return min(1.0, self.value + self.half_width)

    def contains(self, exact: float) -> bool:
        """Whether the interval covers the given exact value."""
        return self.low <= exact <= self.high


# Two-sided z-scores for the common confidence levels (fast path — no
# scipy import on the default code path).
_Z_SCORES = {0.9: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.999: 3.2905}


def _z_for(confidence: float) -> float:
    """Two-sided z-score for an arbitrary confidence level in (0, 1).

    The common levels come from the precomputed table; anything else is
    resolved through ``scipy.stats.norm.ppf`` on demand.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must be strictly between 0 and 1, got {confidence}"
        )
    z = _Z_SCORES.get(confidence)
    if z is None:
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + confidence / 2.0))
    return z


def sample_failures(
    system: QuorumSystem, crash: Union[float, np.ndarray], samples: int, seed: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Draw ``samples`` iid crash configurations in batches of :data:`BATCH`.

    ``crash`` is the crash probability of every element, or one per
    element.  Yields, per batch, the boolean ``alive`` matrix (one row
    per configuration) and which of its rows contain no minimal quorum.
    The draws are one ``rng.random()`` per element per configuration in
    id order from ``numpy.random.default_rng(seed)``, so counts are
    bit-stable per seed whatever the batch size.
    """
    rng = np.random.default_rng(seed)
    quorums = system.packed_minimal_quorums()
    for first in range(0, samples, BATCH):
        alive = rng.random((min(BATCH, samples - first), system.n)) >= crash
        yield alive, ~bitpack.contains_any(bitpack.pack_bool_rows(alive), quorums)


def failure_probability_montecarlo(
    system: QuorumSystem,
    p: float,
    samples: int = 200_000,
    seed: int = 0,
    per_element: Optional[Sequence[float]] = None,
    confidence: float = 0.99,
) -> MonteCarloEstimate:
    """Estimate ``F_p(S)`` by sampling iid crash configurations.

    Parameters
    ----------
    system:
        The quorum system under study.
    p:
        Common crash probability (paper's failure model).
    samples:
        Total number of sampled configurations.
    seed:
        Seed of the numpy PCG64 generator — estimates are reproducible.
    per_element:
        Optional heterogeneous crash probabilities.
    confidence:
        Confidence level for the reported interval — any value in
        (0, 1); common levels hit a precomputed z-table, others go
        through the normal quantile function.
    """
    _z_for(confidence)  # reject a bad level before sampling
    validate_probability(p)
    if samples <= 0:
        raise AnalysisError("samples must be positive")
    crash = p
    if per_element is not None:
        if len(per_element) != system.n:
            raise AnalysisError(
                f"expected {system.n} element probabilities, got {len(per_element)}"
            )
        for value in per_element:
            validate_probability(value)
        crash = np.asarray(per_element, dtype=float)
    failures = sum(
        int(failed.sum()) for _, failed in sample_failures(system, crash, samples, seed)
    )
    return MonteCarloEstimate(samples=samples, failures=failures, confidence=confidence)
