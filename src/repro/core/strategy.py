"""Strategies over quorum systems and the loads they induce.

Definitions 3.3 and 3.4 of the paper: a *strategy* is a probability
distribution over the quorums of a system; it induces on each element a
*load* (the probability the element is part of the picked quorum), and the
*system load* is the maximal element load under the best possible strategy.

This module provides the strategy object, exact evaluation of induced
loads and quorum-size statistics, and convenience constructors (uniform,
single-quorum, weighted).  Computing the *optimal* strategy is an LP and
lives in :mod:`repro.analysis.load`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import bitpack
from .errors import StrategyError
from .quorum_system import Quorum, QuorumSystem
from .sampling import AliasTable

_PROBABILITY_TOLERANCE = 1e-9

#: Most entries in each level of a strategy's :meth:`Strategy.avoiding`
#: memo (blocked sets, and survivor sets).  Each level is cleared on its
#: own when it reaches the limit, so the restrictions, fewer than the
#: blocked sets that lead to them, outlive a turnover of blocked sets.
RESTRICTION_MEMO_LIMIT = 256

_MISSING = object()


class Strategy:
    """A probability distribution over an explicit list of quorums.

    Parameters
    ----------
    system:
        The quorum system the strategy belongs to.  Quorums need not be
        the system's minimal quorums (the paper evaluates strategies over
        non-minimal quorums too, e.g. the h-T-grid randomized variant),
        but every quorum must contain some minimal quorum of the system so
        the strategy only ever picks valid quorums.
    quorums:
        The support of the distribution.
    weights:
        Probabilities, same length as ``quorums``; must sum to 1.
    validate_quorums:
        When ``True`` (default) every support set must contain a minimal
        quorum of the system.  Read-side distributions of a
        :class:`~repro.core.rwstrategy.ReadWriteStrategy` set this to
        ``False``: read quorums (row covers, hierarchical covers) are
        deliberately *not* quorums of the combined system — their only
        obligation is to intersect every write quorum, which the
        read/write pair validates instead.
    """

    def __init__(
        self,
        system: QuorumSystem,
        quorums: Sequence[Iterable[int]],
        weights: Sequence[float],
        *,
        validate_quorums: bool = True,
    ) -> None:
        if len(quorums) != len(weights):
            raise StrategyError(
                f"{len(quorums)} quorums but {len(weights)} weights"
            )
        if not quorums:
            raise StrategyError("strategy needs a non-empty support")
        frozen = [frozenset(q) for q in quorums]
        weight_array = np.asarray(weights, dtype=float)
        if (weight_array < -_PROBABILITY_TOLERANCE).any():
            raise StrategyError("strategy weights must be non-negative")
        total = float(weight_array.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise StrategyError(f"strategy weights sum to {total}, expected 1")
        packed = None
        if validate_quorums:
            packed = bitpack.pack_rows(frozen, system.n)
            valid = bitpack.contains_any(packed, system.packed_minimal_quorums())
            if not valid.all():
                quorum = frozen[int(np.argmin(valid))]
                raise StrategyError(
                    f"support set {sorted(quorum)} is not a quorum of the system"
                )
        self._adopt(system, tuple(frozen), weight_array / total)
        self._packed = packed

    def _adopt(
        self, system: QuorumSystem, quorums: Tuple[Quorum, ...], weights: np.ndarray
    ) -> None:
        """Take a checked support and its normalised weights."""
        self._system = system
        self._quorums = quorums
        self._weights = weights
        # Lazily-built, per-strategy caches for the serving hot path: an
        # alias table for O(1) sampling, packed membership bitmasks shared
        # with coterie reduction, per-quorum member tuples, the ranked
        # fallback order and the restriction memo of :meth:`avoiding`.
        # None of these are built until first use, so strategies that
        # exist only as LP intermediates stay cheap.
        self._alias: Optional[AliasTable] = None
        self._alias_builds = 0
        self._packed: Optional[np.ndarray] = None
        self._membership: Optional[np.ndarray] = None
        self._members: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._ranked_order: Optional[Tuple[int, ...]] = None
        self._ranked_index: Optional[np.ndarray] = None
        self._avoiding_blocked: Dict[frozenset, Optional[Strategy]] = {}
        self._avoiding_survivors: Dict[bytes, Optional[Strategy]] = {}

    # ------------------------------------------------------------------
    @property
    def system(self) -> QuorumSystem:
        """The underlying quorum system."""
        return self._system

    @property
    def quorums(self) -> Tuple[Quorum, ...]:
        """Support of the distribution."""
        return self._quorums

    @property
    def weights(self) -> np.ndarray:
        """Probability of each support quorum (sums to 1)."""
        return self._weights.copy()

    # ------------------------------------------------------------------
    # Hot-path caches (built once per strategy, on demand)
    # ------------------------------------------------------------------
    def _alias_table(self) -> AliasTable:
        if self._alias is None:
            self._alias = AliasTable(self._weights)
            self._alias_builds += 1
        return self._alias

    @property
    def sampler_stats(self) -> Dict[str, int]:
        """Work counters for the O(1) sampler: table builds and draws.

        Coordinators sample a quorum per operation; these counters let
        tests assert that per-op sampling is alias-table lookups
        (``alias_builds`` stays 1 no matter how many draws happen).
        """
        return {
            "alias_builds": self._alias_builds,
            "samples_drawn": 0 if self._alias is None else self._alias.samples_drawn,
        }

    def packed_quorums(self) -> np.ndarray:
        """Per-quorum membership bitmasks (``(m, lanes)`` uint64, cached).

        The same packing :func:`repro.core.quorum_system.reduce_to_coterie`
        uses for domination checks; here it vectorises
        :meth:`avoiding` / :meth:`least_damaged` over the whole support.
        A validated strategy keeps the rows its validation packed.
        """
        if self._packed is None:
            self._packed = bitpack.pack_rows(self._quorums, self._system.n)
        return self._packed

    def quorum_members(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted member tuple of every support quorum (cached).

        Serving code resolves the sampled index to replica ids through
        this table instead of re-sorting a frozenset per operation.
        """
        if self._members is None:
            self._members = tuple(tuple(sorted(q)) for q in self._quorums)
        return self._members

    # ------------------------------------------------------------------
    # Induced metrics
    # ------------------------------------------------------------------
    def _blocked_mask(self, blocked: Iterable[int]) -> np.ndarray:
        """Pack a down-set into one mask row, ignoring out-of-universe ids.

        The bits are OR-ed into a Python int whose little-endian bytes are
        exactly the ``uint64`` lanes :func:`bitpack.pack_rows` lays out
        (bit ``e % 64`` of lane ``e // 64``).
        """
        n = self._system.n
        bits = 0
        for element in blocked:
            if 0 <= element < n:
                bits |= 1 << int(element)
        width = 8 * bitpack.lanes_for(n)
        return np.frombuffer(bits.to_bytes(width, "little"), dtype="<u8")

    def _membership_matrix(self) -> np.ndarray:
        if self._membership is None:
            self._membership = bitpack.membership_matrix(
                self._quorums, self._system.n
            )
        return self._membership

    def element_loads(self) -> np.ndarray:
        """Load induced on every element (Def. 3.4): ``l_w(i)``.

        Entry ``i`` is the probability that element ``i`` belongs to the
        picked quorum; one weighted reduction over the cached membership
        matrix rather than a Python double loop.
        """
        return self._weights @ self._membership_matrix()

    def induced_load(self) -> float:
        """``L_w(S)``: the load of the busiest element under this strategy."""
        return float(self.element_loads().max())

    def average_quorum_size(self) -> float:
        """Expected cardinality of the picked quorum.

        The paper reports this for the h-T-grid strategies (5.8 / 5.9 on
        the 4x4 grid) and for CWlog (4 at n=14, 5.25 at n=29).
        """
        sizes = np.array([len(q) for q in self._quorums], dtype=float)
        return float(sizes @ self._weights)

    def load_imbalance(self) -> float:
        """Ratio between the busiest and the average element load.

        Equals 1.0 for perfectly balanced strategies (e.g. the h-triang
        strategy of §5 of the paper).
        """
        loads = self.element_loads()
        mean = loads.mean()
        if mean == 0:
            raise StrategyError("strategy induces zero load everywhere")
        return float(loads.max() / mean)

    def sample(self, rng: np.random.Generator) -> Quorum:
        """Draw a quorum according to the distribution."""
        return self._quorums[self.sample_index(rng)]

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw the index of a support quorum according to the distribution.

        O(1) per draw via a cached alias table (one uniform variate, one
        lookup) — ``rng.choice`` would redo O(m) CDF work per call.
        Coordinators that keep per-quorum statistics (hit rates, latencies)
        want the index rather than the frozenset; :meth:`sample` wraps this.
        """
        return self._alias_table().sample(rng)

    def sample_many(self, rng: np.random.Generator, count: int) -> List[Quorum]:
        """Draw ``count`` iid quorums in one vectorised pass.

        Equivalent to ``[self.sample(rng) for _ in range(count)]`` but one
        RNG call, which matters for load generators issuing thousands of
        operations.
        """
        if count < 0:
            raise StrategyError(f"sample count must be >= 0, got {count}")
        indices = self._alias_table().sample_many(rng, count)
        return [self._quorums[int(i)] for i in indices]

    def ranked_order(self) -> Tuple[int, ...]:
        """Support indices sorted by descending weight (ties: small first),
        computed once and cached."""
        if self._ranked_order is None:
            self._ranked_order = tuple(
                sorted(
                    range(len(self._quorums)),
                    key=lambda j: (-self._weights[j], len(self._quorums[j]),
                                   sorted(self._quorums[j])),
                )
            )
        return self._ranked_order

    def _ranked_array(self) -> np.ndarray:
        """:meth:`ranked_order` as an index array (cached)."""
        if self._ranked_index is None:
            self._ranked_index = np.array(self.ranked_order(), dtype=np.intp)
        return self._ranked_index

    def ranked_quorums(self) -> List[Quorum]:
        """Support quorums sorted by descending weight (ties: small first).

        The deterministic fallback order used by coordinators when
        sampling keeps hitting crashed elements: try the most-preferred
        quorums first.
        """
        return [self._quorums[j] for j in self.ranked_order()]

    def least_damaged(self, down: Iterable[int]) -> Quorum:
        """The support quorum with the fewest members in ``down``.

        Unlike :meth:`avoiding` this always returns a quorum, even when
        every support quorum touches a down element — it is the degraded
        fan-out set used by coordinators serving best-effort stale reads
        when no fully-live quorum exists.  Ties break toward higher
        weight, then smaller quorums, then lexicographic order, so the
        result is deterministic.
        """
        damage = bitpack.intersection_sizes(
            self.packed_quorums(), self._blocked_mask(frozenset(down))
        )
        # The tie-break is exactly the ranked order's key, so the answer
        # is the first quorum of minimal damage in ranked order.
        ranked = self._ranked_array()
        return self._quorums[int(ranked[int(np.argmin(damage[ranked]))])]

    def avoiding(self, down: Iterable[int]) -> Optional["Strategy"]:
        """The strategy conditioned on quorums disjoint from ``down``.

        Returns ``None`` when every support quorum touches a down element
        (the caller must then wait for recoveries or widen its support).
        Surviving weights are renormalised; if they all carry zero weight
        the restriction falls back to uniform over the survivors, so a
        crash can never resurrect an empty distribution.

        Memoised, so every caller sharing this strategy shares each
        restriction and its alias table.  A repeated blocked set is one
        dictionary lookup; a new one costs a vectorised intersection
        test, and builds a restriction only if no earlier blocked set
        left the same quorums standing (the restriction depends on the
        survivors alone).  ``None`` is memoised too.  Each level holds
        at most :data:`RESTRICTION_MEMO_LIMIT` entries and is cleared on
        its own at the limit.
        """
        blocked = down if isinstance(down, frozenset) else frozenset(down)
        restricted = self._avoiding_blocked.get(blocked, _MISSING)
        if restricted is not _MISSING:
            return restricted
        if len(self._avoiding_blocked) >= RESTRICTION_MEMO_LIMIT:
            self._avoiding_blocked.clear()
        touched = bitpack.intersects(self.packed_quorums(), self._blocked_mask(blocked))
        survivors = touched.tobytes()
        restricted = self._avoiding_survivors.get(survivors, _MISSING)
        if restricted is _MISSING:
            if len(self._avoiding_survivors) >= RESTRICTION_MEMO_LIMIT:
                self._avoiding_survivors.clear()
            restricted = self._avoiding_survivors[survivors] = self._restrict(touched)
        self._avoiding_blocked[blocked] = restricted
        return restricted

    def _restrict(self, touched: np.ndarray) -> Optional["Strategy"]:
        """The restriction to the support quorums ``touched`` marks False."""
        survivors = np.flatnonzero(~touched)
        if not survivors.size:
            return None
        kept = self._weights[survivors]
        total = sum(kept.tolist())
        if total <= _PROBABILITY_TOLERANCE:
            kept = np.full(survivors.size, 1.0 / survivors.size)
        else:
            kept = kept / total
        # The survivors are a subset of this support, which was checked
        # at construction (or exempted from the check), so the restriction
        # skips the checks; its weights are normalised as __init__ does.
        quorums = self._quorums
        restricted = Strategy.__new__(Strategy)
        restricted._adopt(
            self._system,
            tuple([quorums[j] for j in survivors.tolist()]),
            kept / float(kept.sum()),
        )
        return restricted

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, system: QuorumSystem) -> "Strategy":
        """Uniform distribution over the system's minimal quorums."""
        quorums = system.minimal_quorums()
        weight = 1.0 / len(quorums)
        return cls(system, quorums, [weight] * len(quorums))

    @classmethod
    def single(cls, system: QuorumSystem, quorum: Iterable[int]) -> "Strategy":
        """Degenerate strategy that always picks the given quorum."""
        return cls(system, [frozenset(quorum)], [1.0])

    @classmethod
    def from_mapping(
        cls, system: QuorumSystem, mapping: Mapping[Quorum, float]
    ) -> "Strategy":
        """Build from a {quorum: probability} mapping."""
        items = sorted(mapping.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        return cls(system, [q for q, _ in items], [w for _, w in items])

    def __repr__(self) -> str:
        return (
            f"<Strategy over {self._system.system_name!r}"
            f" support={len(self._quorums)}"
            f" load={self.induced_load():.4f}>"
        )


def balanced_strategy_over(
    system: QuorumSystem, quorums: Optional[Sequence[Quorum]] = None
) -> Strategy:
    """Least-max-load strategy restricted to the given support, via LP.

    Convenience wrapper used by constructions that know a good support but
    not the exact weights; delegates to :mod:`repro.analysis.load`.
    """
    from ..analysis.load import optimal_strategy

    return optimal_strategy(system, quorums=quorums)
