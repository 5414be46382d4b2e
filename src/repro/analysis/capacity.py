"""Workload-aware capacity LP for read/write strategy pairs.

"Read-Write Quorum Systems Made Practical" (Whittaker-Charapko-
Hellerstein) observes that once reads and writes draw from separate
quorum families, the throughput-maximising pair of distributions is a
linear program over the workload.  With read weights ``x_r``, write
weights ``y_w``, per-node read/write capacities ``rc_i`` / ``wc_i`` and
a read-fraction distribution ``{fr_k: p_k}``:

    minimise   sum_k p_k t_k
    subject to sum_r x_r = 1,   sum_w y_w = 1,   x, y, t >= 0,
               for every fraction k and node i:
                   fr_k  * sum_{r: i in r} x_r / rc_i
                 + (1-fr_k) * sum_{w: i in w} y_w / wc_i  <=  t_k

The objective is the expected busiest-node work per client operation;
its reciprocal is the system *capacity* in per-node-throughput units (a
node serving ``mu`` ops/s sustains ``mu / load`` client ops/s overall).
A point workload is the single-fraction special case; the f-resilient
variant only weights quorums that remain functional after any ``f``
crashes, trading capacity for fault-tolerant predictability.

The read family comes from the construction's ``read_quorums()`` hook
(grids expose row covers, h-triang its recursive cover/line families,
majority its ``n - floor(n/2)``-subsets); systems without one fall back
to the minimal transversals of the write family — the dual — which for
self-dual systems (odd majority) honestly yields no capacity gain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import linprog

from ..core import bitpack
from ..core.errors import AnalysisError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.rwstrategy import PathStrategy, ReadWriteStrategy
from ..core.strategy import Strategy
from .load import MAX_LP_QUORUMS, optimal_strategy

#: Cap on f-resilient candidate generation (unions of base quorums).
MAX_RESILIENT_CANDIDATES = 4096

ReadFraction = Union[float, Mapping[float, float]]
Capacities = Union[float, Sequence[float]]


def read_quorums_of(system: QuorumSystem) -> List[Quorum]:
    """The read-quorum family a system serves split reads from.

    Prefers the construction's own ``read_quorums()`` (row covers,
    hierarchical covers, the h-triang recursive families, majority's
    smallest transversals); otherwise
    falls back to the minimal quorums of the dual system — the minimal
    transversals of the write family, i.e. the smallest sets guaranteed
    to intersect every write quorum.
    """
    hook = getattr(system, "read_quorums", None)
    if hook is not None:
        return [frozenset(q) for q in hook()]
    return [frozenset(q) for q in system.dual().minimal_quorums()]


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of the capacity LP.

    ``capacity`` is in per-node-throughput units: multiply by a node's
    service rate (ops/s) to predict sustainable client ops/s.  ``load``
    is its reciprocal — the expected busiest-node work per client op.
    """

    strategy: ReadWriteStrategy
    capacity: float
    load: float
    read_fraction: Dict[float, float]
    per_fraction_loads: Dict[float, float]
    read_quorum_count: int
    write_quorum_count: int
    f: int
    min_intersection: int
    unified_read_fallback: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary (without the strategy object)."""
        return {
            "capacity": self.capacity,
            "load": self.load,
            "read_fraction": {str(k): v for k, v in self.read_fraction.items()},
            "per_fraction_loads": {
                str(k): v for k, v in self.per_fraction_loads.items()
            },
            "read_quorum_count": self.read_quorum_count,
            "write_quorum_count": self.write_quorum_count,
            "f": self.f,
            "min_intersection": self.min_intersection,
            "unified_read_fallback": self.unified_read_fallback,
        }


def _normalize_fractions(read_fraction: ReadFraction) -> Dict[float, float]:
    if isinstance(read_fraction, Mapping):
        items = {float(k): float(v) for k, v in read_fraction.items()}
    else:
        items = {float(read_fraction): 1.0}
    if not items:
        raise AnalysisError("read fraction distribution is empty")
    for fr, weight in items.items():
        if not 0.0 <= fr <= 1.0:
            raise AnalysisError(f"read fraction {fr} outside [0, 1]")
        if weight < 0.0:
            raise AnalysisError(f"read fraction weight {weight} is negative")
    total = sum(items.values())
    if total <= 0.0:
        raise AnalysisError("read fraction weights sum to zero")
    return {fr: weight / total for fr, weight in sorted(items.items())}


def _normalize_capacity(capacity: Capacities, n: int, label: str) -> np.ndarray:
    array = (
        np.full(n, float(capacity))
        if np.isscalar(capacity)
        else np.asarray(capacity, dtype=float)
    )
    if array.shape != (n,):
        raise AnalysisError(
            f"{label} capacity must be a scalar or length-{n} sequence"
        )
    if (array <= 0.0).any():
        raise AnalysisError(f"{label} capacities must be positive")
    return array


def _min_intersections(
    reads: Sequence[Quorum], writes: Sequence[Quorum], n: int
) -> np.ndarray:
    """Per-read-quorum minimum intersection size with the write family."""
    packed_writes = bitpack.pack_rows(writes, n)
    return np.array(
        [
            int(
                bitpack.intersection_sizes(
                    packed_writes, bitpack.pack_one(q, n)
                ).min()
            )
            for q in reads
        ]
    )


def _resilient_candidates(base: Sequence[Quorum], f: int) -> List[Quorum]:
    """Base quorums plus unions of up to ``f + 1`` of them (deduplicated).

    A single minimal quorum rarely survives crashes; unions of a few
    fatten the support enough for the resilience filter to keep
    something.  Candidate growth is capped — the LP does not need every
    resilient set, just a reasonable support.

    The unions are OR-ed on packed rows, up to the cap's worth of
    combinations at a time, and each joins in combination order at its
    first occurrence until the list holds :data:`MAX_RESILIENT_CANDIDATES`.
    A base family already at the cap still tries its first union, so
    ``majority:15`` (6,435 minimal quorums, none of which survives a
    crash) keeps one write candidate that does.
    """
    packed = bitpack.pack_rows(base)
    rows = packed  # every candidate so far
    for count in range(2, f + 2):
        combos = itertools.combinations(range(len(base)), count)
        while True:
            room = MAX_RESILIENT_CANDIDATES - len(rows)
            # At or over the cap, one combination: the first union is
            # tried before the cap is checked.
            size = MAX_RESILIENT_CANDIDATES if room > 0 else 1
            block = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, size)),
                dtype=np.intp,
            )
            if not block.size:
                break
            unions = np.bitwise_or.reduce(packed[block.reshape(-1, count)], axis=1)
            # A first occurrence past ``rows`` is a union met for the
            # first time here.
            first = bitpack.first_occurrences(np.concatenate([rows, unions]))
            fresh = first[first >= len(rows)] - len(rows)
            rows = np.concatenate([rows, unions[fresh[: max(room, 1)]]])
            if len(rows) >= MAX_RESILIENT_CANDIDATES:
                return list(base) + bitpack.unpack_rows(rows[len(base) :])
    return list(base) + bitpack.unpack_rows(rows[len(base) :])


def _crash_variants(
    candidates: Sequence[Quorum], n: int, f: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every candidate with every choice of ``min(f, size)`` members crashed.

    Returns ``(owner, variants)``: packed row ``variants[i]`` is candidate
    ``owner[i]`` less one crash pattern.  Candidates of one size share
    their index combinations, so each size class is packed in one go.
    """
    packed = bitpack.pack_rows(candidates, n)
    by_size: Dict[int, List[int]] = {}
    for index, quorum in enumerate(candidates):
        by_size.setdefault(len(quorum), []).append(index)
    owners, variants = [], []
    for size, indices in by_size.items():
        drop = min(f, size)
        combos = np.array(
            list(itertools.combinations(range(size), drop)), dtype=np.intp
        ).reshape(-1, drop)
        members = np.array(
            [sorted(candidates[index]) for index in indices], dtype=np.int64
        ).reshape(len(indices), size)
        owner = np.repeat(np.array(indices, dtype=np.intp), len(combos))
        gone = bitpack.pack_rows(members[:, combos].reshape(len(owner), drop), n)
        owners.append(owner)
        variants.append(packed[owner] & ~gone)
    return np.concatenate(owners), np.concatenate(variants)


def _surviving(
    candidates: Sequence[Quorum], owner: np.ndarray, failed: np.ndarray
) -> List[Quorum]:
    """The candidates, in order, none of whose variants ``failed`` marks."""
    broken = np.zeros(len(candidates), dtype=bool)
    broken[owner[failed]] = True
    return [quorum for quorum, bad in zip(candidates, broken.tolist()) if not bad]


def _filter_resilient_reads(
    candidates: Sequence[Quorum], writes: Sequence[Quorum], n: int, f: int
) -> List[Quorum]:
    """Read candidates that intersect every write quorum after any f crashes."""
    owner, variants = _crash_variants(candidates, n, f)
    # A set meets every write quorum iff its complement contains none.
    missed = bitpack.contains_any(~variants, bitpack.pack_rows(writes, n))
    return _surviving(candidates, owner, missed)


def _filter_resilient_writes(
    candidates: Sequence[Quorum], system: QuorumSystem, f: int
) -> List[Quorum]:
    """Write candidates that still contain a quorum after any f crashes."""
    owner, variants = _crash_variants(candidates, system.n, f)
    alive = bitpack.contains_any(variants, system.packed_minimal_quorums())
    return _surviving(candidates, owner, ~alive)


def read_write_capacity(
    system: QuorumSystem,
    *,
    read_fraction: ReadFraction = 0.9,
    read_quorums: Optional[Sequence[Quorum]] = None,
    write_quorums: Optional[Sequence[Quorum]] = None,
    read_capacity: Capacities = 1.0,
    write_capacity: Optional[Capacities] = None,
    f: int = 0,
    min_intersection: int = 1,
) -> CapacityResult:
    """Throughput-optimal read/write strategy pair via the capacity LP.

    Parameters
    ----------
    system:
        The quorum system to serve.
    read_fraction:
        Point fraction (``0.9``) or weighted mixture (``{0.5: 1, 0.9: 2}``)
        of reads in the workload.
    read_quorums / write_quorums:
        Explicit families; default to :func:`read_quorums_of` and the
        system's minimal quorums.
    read_capacity / write_capacity:
        Per-node service rates (scalar or per-element).  ``write_capacity``
        defaults to ``read_capacity`` (reads and writes cost the same).
    f:
        Only weight quorums that stay functional after any ``f`` crashes.
    min_intersection:
        Require ``|R ∩ W| >= min_intersection`` for every support pair.
        Byzantine voted reads pass ``2b + 1``; if no read quorum
        qualifies, reads fall back to the write family (which a
        validated b-masking system guarantees to pairwise intersect
        deeply enough) and ``unified_read_fallback`` is set.
    """
    if f < 0:
        raise AnalysisError(f"f must be >= 0, got {f}")
    if min_intersection < 1:
        raise AnalysisError(
            f"min_intersection must be >= 1, got {min_intersection}"
        )
    n = system.n
    fractions = _normalize_fractions(read_fraction)
    read_caps = _normalize_capacity(read_capacity, n, "read")
    write_caps = _normalize_capacity(
        read_capacity if write_capacity is None else write_capacity, n, "write"
    )

    writes = [
        frozenset(q)
        for q in (write_quorums if write_quorums is not None else system.minimal_quorums())
    ]
    reads = [
        frozenset(q)
        for q in (read_quorums if read_quorums is not None else read_quorums_of(system))
    ]
    if not writes or not reads:
        raise AnalysisError("capacity LP needs non-empty read and write families")

    if f > 0:
        writes = _filter_resilient_writes(_resilient_candidates(writes, f), system, f)
        if not writes:
            raise AnalysisError(f"no write quorum survives every {f}-crash pattern")
        reads = _filter_resilient_reads(_resilient_candidates(reads, f), writes, n, f)
        if not reads:
            raise AnalysisError(f"no read quorum survives every {f}-crash pattern")

    unified_read_fallback = False
    if min_intersection > 1:
        depths = _min_intersections(reads, writes, n)
        deep_enough = [q for q, d in zip(reads, depths) if d >= min_intersection]
        if not deep_enough:
            # Voted reads need |R ∩ W| >= 2b+1; when the read family is
            # too shallow (masking systems' duals are), serve reads from
            # the write family instead — still a split pair, the LP just
            # optimises both distributions over the same support.
            write_depths = _min_intersections(writes, writes, n)
            deep_enough = [
                q for q, d in zip(writes, write_depths) if d >= min_intersection
            ]
            unified_read_fallback = True
            if not deep_enough:
                raise AnalysisError(
                    f"no quorum family reaches pairwise intersection"
                    f" {min_intersection}; the system cannot serve voted reads"
                )
        reads = deep_enough

    m_reads, m_writes, k = len(reads), len(writes), len(fractions)
    if m_reads + m_writes > MAX_LP_QUORUMS:
        raise AnalysisError(
            f"capacity LP over {m_reads + m_writes} quorums exceeds the"
            f" {MAX_LP_QUORUMS} cap; restrict the families first"
        )

    read_membership = bitpack.membership_matrix(reads, n)  # (m_reads, n)
    write_membership = bitpack.membership_matrix(writes, n)
    # Variables: x (m_reads), y (m_writes), t (k).  Minimise sum p_k t_k.
    total = m_reads + m_writes + k
    cost = np.zeros(total)
    weights = list(fractions.values())
    cost[m_reads + m_writes :] = weights
    a_ub = np.zeros((n * k, total))
    for idx, fr in enumerate(fractions):
        rows = slice(idx * n, (idx + 1) * n)
        a_ub[rows, :m_reads] = fr * (read_membership / read_caps[None, :]).T
        a_ub[rows, m_reads : m_reads + m_writes] = (1.0 - fr) * (
            write_membership / write_caps[None, :]
        ).T
        a_ub[rows, m_reads + m_writes + idx] = -1.0
    b_ub = np.zeros(n * k)
    a_eq = np.zeros((2, total))
    a_eq[0, :m_reads] = 1.0
    a_eq[1, m_reads : m_reads + m_writes] = 1.0
    b_eq = np.ones(2)
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * total,
        method="highs",
    )
    if not result.success:
        raise AnalysisError(f"capacity LP failed: {result.message}")
    x = np.clip(result.x[:m_reads], 0.0, None)
    y = np.clip(result.x[m_reads : m_reads + m_writes], 0.0, None)
    t = result.x[m_reads + m_writes :]
    load = float(cost[m_reads + m_writes :] @ t)
    if load <= 0.0:
        raise AnalysisError("capacity LP produced a degenerate zero load")
    strategy = ReadWriteStrategy(
        system,
        Strategy(system, reads, x / x.sum(), validate_quorums=False),
        Strategy(system, writes, y / y.sum()),
    )
    return CapacityResult(
        strategy=strategy,
        capacity=1.0 / load,
        load=load,
        read_fraction=fractions,
        per_fraction_loads={
            fr: float(t[idx]) for idx, fr in enumerate(fractions)
        },
        read_quorum_count=m_reads,
        write_quorum_count=m_writes,
        f=f,
        min_intersection=min_intersection,
        unified_read_fallback=unified_read_fallback,
    )


def serving_strategy(
    system: QuorumSystem,
    read_fraction: Optional[float] = None,
    min_intersection: int = 1,
) -> PathStrategy:
    """The strategy a serving harness runs when its caller names none.

    ``read_fraction=None`` serves the unified write-legal optimum
    (:func:`~repro.analysis.load.optimal_strategy`).  A fraction serves
    the read/write pair :func:`read_write_capacity` optimises at it, with
    every read/write support pair meeting in ``min_intersection``
    elements — Byzantine voted reads pass ``2b + 1``, and when no read
    family is that deep the LP splits over the write family instead.
    """
    if read_fraction is None:
        return optimal_strategy(system)
    return read_write_capacity(
        system, read_fraction=read_fraction, min_intersection=min_intersection
    ).strategy
