"""Shared fixtures and reference implementations for the test suite.

The reference implementations here are deliberately naive (brute force)
and independent from the library code they validate.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List

import pytest
from hypothesis import settings

from repro.core import ExplicitQuorumSystem, Universe

# A longer, derandomised search for CI (``--hypothesis-profile=ci``);
# plain runs keep hypothesis' default profile.
settings.register_profile("ci", max_examples=1000, deadline=None, derandomize=True)


def brute_force_failure_probability(system, p: float) -> float:
    """Reference F_p: direct sum over all 2^n crash configurations."""
    n = system.n
    quorums = system.minimal_quorums()
    q = 1.0 - p
    total = 0.0
    for mask in range(1 << n):
        alive = {i for i in range(n) if mask >> i & 1}
        probability = (q ** len(alive)) * (p ** (n - len(alive)))
        if not any(quorum <= alive for quorum in quorums):
            total += probability
    return total


def brute_force_minimal_transversals(system) -> set:
    """Reference dual computation by subset enumeration."""
    n = system.n
    quorums = system.minimal_quorums()
    hitting = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            candidate = frozenset(combo)
            if all(candidate & quorum for quorum in quorums):
                if not any(kept < candidate for kept in hitting):
                    hitting.append(candidate)
    return set(hitting)


def tiny_majority(n: int = 5) -> ExplicitQuorumSystem:
    """Explicit majority-of-n used as a well-understood guinea pig."""
    need = n // 2 + 1
    quorums = [frozenset(c) for c in itertools.combinations(range(n), need)]
    return ExplicitQuorumSystem(Universe.of_size(n), quorums, name=f"maj{n}")


@pytest.fixture
def maj5() -> ExplicitQuorumSystem:
    """Majority-of-5 fixture."""
    return tiny_majority(5)
