"""System load: lower bounds, LP-exact computation, strategy evaluation.

Definition 3.4 of the paper: the load of a strategy is the access
probability of the busiest element; the *system load* minimises this over
all strategies.  Finding the minimising strategy is a linear program

    minimise t
    subject to   sum_j w_j = 1,   w_j >= 0,
                 for every element i:  sum_{j : i in S_j} w_j <= t,

solved here with ``scipy.optimize.linprog``.  Proposition 3.3 gives the
lower bounds ``L(S) >= c(S)/n`` and ``L(S) >= 1/c(S)`` (hence
``L(S) >= 1/sqrt(n)``), which we expose for tests and for the Table 4/5
reproductions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..core import bitpack
from ..core.errors import AnalysisError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.strategy import Strategy

#: LP sizes beyond this are refused in "auto" mode (callers should rely on
#: a structural ``load_exact`` override or an explicit strategy instead).
MAX_LP_QUORUMS = 200_000


def load_lower_bounds(system: QuorumSystem) -> Tuple[float, float]:
    """Proposition 3.3 bounds ``(c(S)/n, 1/c(S))``."""
    c = system.smallest_quorum_size()
    return c / system.n, 1.0 / c


def load_lower_bound(system: QuorumSystem) -> float:
    """The binding Prop. 3.3 bound, ``max(c/n, 1/c) >= 1/sqrt(n)``."""
    return max(load_lower_bounds(system))


def optimal_strategy(
    system: QuorumSystem, quorums: Optional[Sequence[Quorum]] = None
) -> Strategy:
    """Load-minimising strategy over the given support via linear programming.

    This optimises the *unified* (write-legal) load: every operation —
    read or write — draws from one distribution over full quorums of the
    system, which is what Definition 3.4's ``L(S)`` measures.  Workloads
    that are mostly reads can do strictly better by serving reads from
    the smaller read-quorum family; use :func:`read_write_optimal` (the
    capacity LP of :mod:`repro.analysis.capacity`) for that split.

    Parameters
    ----------
    system:
        The quorum system.
    quorums:
        Support of the strategy; defaults to all minimal quorums, which
        yields the true system load ``L(S)`` (restricting to minimal
        quorums never hurts: shrinking a quorum only lowers loads).
    """
    support = tuple(frozenset(q) for q in (quorums or system.minimal_quorums()))
    m = len(support)
    if m > MAX_LP_QUORUMS:
        raise AnalysisError(
            f"LP over {m} quorums exceeds the {MAX_LP_QUORUMS} cap;"
            " use a structural load formula or an explicit strategy"
        )
    n = system.n
    # Variables: w_0..w_{m-1}, t.  Minimise t.
    c = np.zeros(m + 1)
    c[m] = 1.0
    # Inequalities: for each element i, sum_{j: i in S_j} w_j - t <= 0.
    a_ub = np.zeros((n, m + 1))
    a_ub[:, :m] = bitpack.membership_matrix(support, n).T
    a_ub[:, m] = -1.0
    b_ub = np.zeros(n)
    # Equality: weights sum to one.
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * m + [(0.0, 1.0)]
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not result.success:
        raise AnalysisError(f"load LP failed: {result.message}")
    weights = np.clip(result.x[:m], 0.0, None)
    weights /= weights.sum()
    return Strategy(system, support, weights)


def read_write_optimal(system: QuorumSystem, **kwargs):
    """Throughput-optimal read/write strategy pair for a mixed workload.

    Convenience façade over the capacity LP: accepts the same keyword
    arguments as :func:`repro.analysis.capacity.read_write_capacity`
    (``read_fraction``, per-node capacities, ``f``, ``min_intersection``)
    and returns the optimal
    :class:`~repro.core.rwstrategy.ReadWriteStrategy`.  Use the capacity
    module directly when the predicted capacity itself is needed.
    """
    from .capacity import read_write_capacity

    return read_write_capacity(system, **kwargs).strategy


def system_load(
    system: QuorumSystem,
    method: str = "auto",
    quorums: Optional[Sequence[Quorum]] = None,
) -> float:
    """System load ``L(S)``.

    Methods
    -------
    ``auto``
        Structural formula if the construction provides one, else LP.
    ``lp``
        Force the LP over minimal quorums (or the given support).
    ``lower-bound``
        The Prop. 3.3 bound only (cheap, always valid).
    """
    if method == "auto":
        structural = load_exact_structural(system)
        if structural is not None:
            return structural
        method = "lp"
    if method == "lp":
        return optimal_strategy(system, quorums=quorums).induced_load()
    if method == "lower-bound":
        return load_lower_bound(system)
    raise AnalysisError(f"unknown load method {method!r}")


def load_exact_structural(system: QuorumSystem) -> Optional[float]:
    """Structural load override, when the construction defines one."""
    exact = getattr(system, "load_exact", None)
    if exact is None:
        return None
    return exact()


def verify_load_bounds(system: QuorumSystem, load: float, tolerance: float = 1e-7) -> bool:
    """Check a claimed load value against Prop. 3.3 (used in tests)."""
    bound = load_lower_bound(system)
    return load >= bound - tolerance and load <= 1.0 + tolerance


def element_transitive_load(system: QuorumSystem) -> float:
    """Load of a system whose automorphism group is transitive on elements
    *and* whose minimal quorums all have the same size ``s``: the uniform
    strategy balances perfectly and the load is exactly ``s / n``.

    Used by symmetric constructions (majority, balanced HQS, h-triang) to
    avoid the LP; the caller is responsible for the symmetry claim, which
    the test suite validates against the LP on small instances.
    """
    sizes = system.quorum_sizes()
    if sizes[0] != sizes[-1]:
        raise AnalysisError(
            "element_transitive_load requires uniform quorum size"
        )
    return sizes[0] / system.n
