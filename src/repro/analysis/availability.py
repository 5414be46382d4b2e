"""Front-end for failure-probability computation.

Dispatches between the structured closed forms provided by the
constructions themselves, the exhaustive 2^n engine, the Shannon-expansion
engine and Monte Carlo, following the paper's failure model (Def. 3.2):
independent transient crashes, identical probability ``p`` per element.

Methods
-------
``auto``
    Structured closed form if the system provides one, else exhaustive for
    small universes, else Shannon, else an error advising Monte Carlo.
``exact`` / ``structural`` / ``exhaustive`` / ``shannon`` / ``montecarlo``
    Force a particular engine.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import AnalysisError
from ..core.quorum_system import QuorumSystem
from .exhaustive import MAX_EXHAUSTIVE_N, failure_probability_exhaustive
from .montecarlo import failure_probability_montecarlo
from .shannon import failure_probability_shannon


def _validate_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"crash probability must be in [0, 1], got {p}")


def failure_probability(
    system: QuorumSystem,
    p: float,
    method: str = "auto",
    **kwargs,
) -> float:
    """Failure probability ``F_p(S)`` of a quorum system.

    Parameters
    ----------
    system:
        The quorum system.
    p:
        Per-element crash probability.
    method:
        Engine selector, see module docstring.
    kwargs:
        Extra options forwarded to the chosen engine (``samples``/``seed``
        for Monte Carlo, ``max_states`` for Shannon).
    """
    _validate_probability(p)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0

    if method == "auto":
        structural = system.failure_probability_exact(p)
        if structural is not None:
            return structural
        if system.n <= MAX_EXHAUSTIVE_N:
            return failure_probability_exhaustive(system, p)
        return failure_probability_shannon(system, p, **kwargs)
    if method in ("structural", "exact"):
        structural = system.failure_probability_exact(p)
        if structural is None:
            raise AnalysisError(
                f"{system.system_name} provides no structural closed form"
            )
        return structural
    if method == "exhaustive":
        return failure_probability_exhaustive(system, p)
    if method == "shannon":
        return failure_probability_shannon(system, p, **kwargs)
    if method == "montecarlo":
        return failure_probability_montecarlo(system, p, **kwargs).value
    raise AnalysisError(f"unknown failure-probability method {method!r}")


def availability(system: QuorumSystem, p: float, method: str = "auto", **kwargs) -> float:
    """``1 - F_p(S)``: probability some quorum is fully alive."""
    return 1.0 - failure_probability(system, p, method=method, **kwargs)


def availability_comparison(
    system: QuorumSystem,
    p: float,
    measured: float,
    method: str = "auto",
    **kwargs,
) -> dict:
    """Measured availability next to the exact ``1 - F_p(S)``.

    The closing-the-loop summary used by the chaos harness and service
    benchmarks: ``measured`` is an empirical fraction of epochs (or
    operations) in which a quorum was fully alive, compared against the
    exact failure probability of the same iid crash model.
    """
    if not 0.0 <= measured <= 1.0:
        raise AnalysisError(f"measured availability must be in [0, 1], got {measured}")
    exact = availability(system, p, method=method, **kwargs)
    return {
        "crash_rate": p,
        "exact": exact,
        "measured": measured,
        "abs_error": abs(measured - exact),
    }


def failure_probability_heterogeneous(
    system: QuorumSystem, per_element: Sequence[float], method: str = "auto"
) -> float:
    """Failure probability with a distinct crash probability per element.

    Used by hierarchical decompositions where "elements" are logical
    objects with their own (already computed) failure probabilities.
    """
    for crash in per_element:
        _validate_probability(crash)
    if method == "auto":
        if system.n <= MAX_EXHAUSTIVE_N:
            method = "exhaustive"
        else:
            method = "shannon"
    if method == "exhaustive":
        return failure_probability_exhaustive(system, 0.0, per_element=per_element)
    if method == "shannon":
        return failure_probability_shannon(system, 0.0, per_element=per_element)
    if method == "montecarlo":
        return failure_probability_montecarlo(
            system, 0.0, per_element=per_element
        ).value
    raise AnalysisError(f"unknown heterogeneous method {method!r}")
