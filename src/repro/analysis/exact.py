"""Exact rational failure probabilities.

Every structural recursion in this library uses only field operations
(+, -, *), so evaluating it over :class:`fractions.Fraction` instead of
floats yields the failure probability as an **exact rational number** —
no accumulation error, no rounding luck.  This module provides those
evaluations for the constructions with closed recursions and uses them
to certify the reproduction: rounding the exact rational to the paper's
six decimals must reproduce the printed string.

(The generic engines work over exact arithmetic too: the exhaustive
engine's sum of monomials is evaluated here directly from the minimal
quorums via inclusion–exclusion-free state enumeration for small ``n``.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

from ..core.errors import AnalysisError
from ..core.quorum_system import QuorumSystem

Rational = Union[Fraction, int]


def _as_fraction(p: Union[str, float, Fraction]) -> Fraction:
    """Accept '1/10', 0.1 (converted via its decimal string) or Fraction."""
    if isinstance(p, Fraction):
        return p
    if isinstance(p, str):
        return Fraction(p)
    # Going through the decimal representation keeps 0.1 meaning 1/10
    # rather than its binary-float neighbour.
    return Fraction(str(p))


def exact_failure_majority(n: int, p: Union[str, float, Fraction]) -> Fraction:
    """Exact binomial tail of the majority system."""
    from math import comb

    crash = _as_fraction(p)
    survive = 1 - crash
    quorum = n // 2 + 1
    min_failures = n - quorum + 1
    return sum(
        Fraction(comb(n, k)) * crash**k * survive ** (n - k)
        for k in range(min_failures, n + 1)
    )


def exact_failure_wall(widths: Sequence[int], p: Union[str, float, Fraction]) -> Fraction:
    """Exact wall DP (CWlog, flat T-grid, triangle, diamond)."""
    crash = _as_fraction(p)
    survive = 1 - crash
    b: Fraction = Fraction(0)
    u: Fraction = Fraction(1)
    for width in reversed(list(widths)):
        full = survive**width
        alive = 1 - crash**width
        b, u = full * u + (1 - full) * b, alive * u + (1 - alive) * b
    return 1 - b


def exact_failure_hqs(spec, p: Union[str, float, Fraction]) -> Fraction:
    """Exact tree-majority recursion (HQS)."""
    crash = _as_fraction(p)
    survive = 1 - crash

    def recurse(node) -> Fraction:
        if node == "leaf":
            return survive
        child_avail = [recurse(child) for child in node]
        k = len(child_avail)
        need = k // 2 + 1
        # Exact success-count convolution.
        distribution: List[Fraction] = [Fraction(1)] + [Fraction(0)] * k
        for a in child_avail:
            updated = [distribution[0] * (1 - a)] + [
                distribution[i] * (1 - a) + distribution[i - 1] * a
                for i in range(1, k + 1)
            ]
            distribution = updated
        return sum(distribution[need:], Fraction(0))

    return 1 - recurse(spec)


def exact_failure_hgrid(system, p: Union[str, float, Fraction]) -> Fraction:
    """Exact hierarchical-grid joint recursion.

    Reuses the library's joint pmf recursion, which is generic over the
    number type: passing a Fraction-valued leaf mapping keeps every
    intermediate value rational.
    """
    from ..systems.hgrid import joint_cover_line_pmf_of

    crash = _as_fraction(p)
    survive = 1 - crash
    leaf_values = {element: survive for element in system.universe.ids}
    pmf = joint_cover_line_pmf_of(system._root, leaf_values)
    return 1 - pmf.get((1, 1), Fraction(0))


def exact_failure_htriangle(system, p: Union[str, float, Fraction]) -> Fraction:
    """Exact hierarchical-triangle recursion (same genericity trick)."""
    crash = _as_fraction(p)
    survive = 1 - crash
    leaf_values = {element: survive for element in system.universe.ids}
    return 1 - system._availability_of(system._root, leaf_values)


def exact_failure_enumeration(
    system: QuorumSystem, p: Union[str, float, Fraction]
) -> Fraction:
    """Exact failure probability by rational state enumeration (n <= 16)."""
    n = system.n
    if n > 16:
        raise AnalysisError(f"rational enumeration supports n <= 16, got {n}")
    crash = _as_fraction(p)
    survive = 1 - crash
    quorums = system.minimal_quorums()
    masks = []
    for quorum in quorums:
        mask = 0
        for element in quorum:
            mask |= 1 << element
        masks.append(mask)
    total = Fraction(0)
    for state in range(1 << n):
        if any((state & mask) == mask for mask in masks):
            continue
        alive = bin(state).count("1")
        total += survive**alive * crash ** (n - alive)
    return total


def rounds_to(value: Fraction, printed: str) -> bool:
    """Whether the exact rational rounds (half-up) to the printed decimal.

    The paper prints six decimals; ties are resolved either way to
    accommodate its unknown rounding mode.
    """
    if "." not in printed:
        printed += "."
    digits = len(printed.split(".")[1])
    scale = 10**digits
    scaled = value * scale
    floor = scaled.__floor__()
    candidates = {floor, floor + 1}
    printed_int = int(printed.replace(".", ""))
    if printed_int not in candidates:
        return False
    # The printed value must be within half a unit in the last place.
    return abs(scaled - printed_int) <= Fraction(1, 2)
