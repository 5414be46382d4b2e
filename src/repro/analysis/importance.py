"""Element criticality: Birnbaum importance of quorum-system members.

Availability is a multilinear function of the per-element survival
probabilities, so the *Birnbaum importance* of element ``i``,

    I_i  =  dA/dq_i  =  A(q_i = 1) - A(q_i = 0),

measures how much system availability gains per unit of element-``i``
reliability — the right metric for deciding which replica to place on
better hardware, which the paper's symmetric constructions make
deliciously boring (every element of h-triang matters exactly equally)
and the asymmetric ones make interesting (a wall's top row is nearly
irrelevant at small ``p``; the h-T-grid's bottom rows dominate).

Computed through :meth:`QuorumSystem.availability_heterogeneous`, so
structured systems get exact importances at any size.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.errors import AnalysisError
from ..core.quorum_system import QuorumSystem


def birnbaum_importance(
    system: QuorumSystem, p: float, element: int
) -> float:
    """``dA/dq_i`` at the iid point ``q = 1 - p``."""
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"crash probability must be in [0, 1], got {p}")
    if not 0 <= element < system.n:
        raise AnalysisError(f"element {element} outside universe of size {system.n}")
    survive = [1.0 - p] * system.n
    survive[element] = 1.0
    high = system.availability_heterogeneous(survive)
    survive[element] = 0.0
    low = system.availability_heterogeneous(survive)
    return high - low


def importance_profile(system: QuorumSystem, p: float) -> np.ndarray:
    """Birnbaum importance of every element at the iid point."""
    return np.array(
        [birnbaum_importance(system, p, element) for element in system.universe.ids]
    )


def most_critical_elements(
    system: QuorumSystem, p: float, count: int = 3
) -> List[Tuple[int, float]]:
    """The ``count`` highest-importance elements as ``(id, importance)``."""
    profile = importance_profile(system, p)
    order = np.argsort(-profile)[:count]
    return [(int(i), float(profile[i])) for i in order]


def importance_identity_check(system: QuorumSystem, p: float) -> Tuple[float, float]:
    """Both sides of the multilinearity identity

        dA/dp = - sum_i I_i   (chain rule through q_i = 1 - p),

    returned as (finite-difference derivative, -sum of importances).
    Used by tests to validate every structured heterogeneous recursion.
    """
    step = 1e-6
    a_plus = 1.0 - system.failure_probability(min(1.0, p + step))
    a_minus = 1.0 - system.failure_probability(max(0.0, p - step))
    derivative = (a_plus - a_minus) / (2 * step)
    return derivative, -float(importance_profile(system, p).sum())


def improvement_potential(system: QuorumSystem, p: float, element: int) -> float:
    """Availability gained by making one element perfectly reliable."""
    survive = [1.0 - p] * system.n
    baseline = system.availability_heterogeneous(survive)
    survive[element] = 1.0
    return system.availability_heterogeneous(survive) - baseline
