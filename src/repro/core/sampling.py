"""O(1) discrete sampling via Walker's alias method.

``numpy``'s ``Generator.choice(p=...)`` rebuilds a cumulative
distribution and binary-searches it on every call — O(m) work per
sample over a support of size m.  A strategy-serving coordinator samples
a quorum per operation, so that per-op O(m) dominates once supports get
large (wall systems have tens of thousands of quorums).  The alias
method spends O(m) once at build time and then answers every draw with
one uniform variate, one table lookup and one comparison.

The implementation is Vose's numerically-stable variant.  Draws consume
exactly one ``rng.random()`` per sample (the uniform is split into slot
and coin), so sample streams are reproducible under a fixed seed and
cheap to vectorise.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import StrategyError


class AliasTable:
    """Preprocessed sampler for a fixed discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative weights (need not be normalised; must not all be
        zero).

    Vose's loop runs over Python lists (the weights are scaled by their
    numpy sum first, so a table is bit-identical to one built over
    arrays), and :meth:`sample` indexes the lists ``_prob`` and
    ``_alias``.  Array copies for :meth:`sample_many` and
    :meth:`probabilities` are built on their first call, so a table
    that only serves single draws never pays for them.

    Attributes
    ----------
    samples_drawn:
        Total draws served (single and vectorised), for tests asserting
        that sampling work is table lookups rather than rebuilds.
    """

    __slots__ = ("size", "_prob", "_alias", "_as_arrays", "samples_drawn")

    def __init__(self, weights: Sequence[float]) -> None:
        array = np.asarray(weights, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise StrategyError("alias table needs a non-empty weight vector")
        if (array < 0).any() or not np.isfinite(array).all():
            raise StrategyError("alias weights must be finite and non-negative")
        total = float(array.sum())
        if total <= 0:
            raise StrategyError("alias weights must not all be zero")
        size = array.size
        scale = size / total
        if not math.isfinite(scale):
            # A subnormal total overflows the scale, and 0 * inf would
            # hand zero weights a NaN share: normalise first instead.
            array = array / total
            scale = size / float(array.sum())
        scaled = (array * scale).tolist()
        prob = [1.0] * size
        alias = list(range(size))
        small = [i for i, weight in enumerate(scaled) if weight < 1.0]
        large = [i for i, weight in enumerate(scaled) if weight >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            prob[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] -= 1.0 - scaled[lo]
            (small if scaled[hi] < 1.0 else large).append(hi)
        # Leftovers in either list are 1.0 up to rounding: keep prob=1.
        self.size = size
        self._prob = prob
        self._alias = alias
        self._as_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.samples_drawn = 0

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The table as ``(prob, alias)`` arrays, built on first use."""
        if self._as_arrays is None:
            self._as_arrays = (
                np.array(self._prob, dtype=float),
                np.array(self._alias, dtype=np.intp),
            )
        return self._as_arrays

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index; O(1) and exactly one uniform variate."""
        self.samples_drawn += 1
        u = rng.random() * self.size
        slot = min(int(u), self.size - 1)
        return slot if (u - slot) < self._prob[slot] else self._alias[slot]

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorised draw of ``count`` iid indices (one RNG call)."""
        if count < 0:
            raise StrategyError(f"sample count must be >= 0, got {count}")
        prob, alias = self._arrays()
        self.samples_drawn += count
        u = rng.random(count) * self.size
        slots = np.minimum(u.astype(np.intp), self.size - 1)
        coins = u - slots
        take_alias = coins >= prob[slots]
        return np.where(take_alias, alias[slots], slots)

    def probabilities(self) -> np.ndarray:
        """The exact distribution the table encodes (sums to 1)."""
        probs, alias = self._arrays()
        out = probs / self.size
        np.add.at(out, alias, (1.0 - probs) / self.size)
        return out

    def __repr__(self) -> str:
        return f"<AliasTable size={self.size} drawn={self.samples_drawn}>"
