"""Composition of quorum systems.

Hierarchical quorum constructions are compositions: an *outer* system is
defined over logical objects, and each logical object is itself realised
by an *inner* quorum system over real elements.  A quorum of the composite
picks an outer quorum and, inside every logical object of that outer
quorum, an inner quorum.

This operator underlies the paper's constructions:

* HQS (Kumar) is majority composed with majority, recursively;
* the hierarchical grid composes grid full-lines / row-covers level by
  level;
* the hierarchical triangle composes triangle quorums with sub-triangles
  and sub-grids.

Composition preserves the intersection property: two composite quorums
pick two outer quorums which share a logical object ``o``; inside ``o``
both picked an inner quorum of the same inner system, and those intersect.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import ConstructionError
from .quorum_system import Quorum, QuorumSystem
from .universe import Universe


def compose_universes(inner_universes: Sequence[Universe]) -> Tuple[Universe, List[Dict[int, int]]]:
    """Concatenate inner universes into one composite universe.

    Returns the composite universe plus, for each inner universe, a map
    from inner element id to composite element id.  Names are tagged with
    the inner index to keep them distinct: element ``x`` of inner ``k``
    becomes ``(k, x)``.
    """
    names = []
    offsets: List[Dict[int, int]] = []
    base = 0
    for index, inner in enumerate(inner_universes):
        offsets.append({i: base + i for i in inner.ids})
        names.extend((index, name) for name in inner.names)
        base += inner.size
    return Universe(names), offsets


class ComposedQuorumSystem(QuorumSystem):
    """The composition of an outer system with one inner system per object.

    Parameters
    ----------
    outer:
        Quorum system over logical objects ``0..k-1``.
    inners:
        One inner quorum system per logical object; ``len(inners)`` must
        equal ``outer.n``.

    Notes
    -----
    The number of minimal quorums is the product of inner counts over each
    outer quorum, so this explicit composition is intended for the small /
    medium systems the paper evaluates (n <= ~105).  Structured
    constructions avoid materialisation via closed-form availability.
    """

    def __init__(self, outer: QuorumSystem, inners: Sequence[QuorumSystem]) -> None:
        if len(inners) != outer.n:
            raise ConstructionError(
                f"outer system has {outer.n} objects but {len(inners)} inner"
                " systems were supplied"
            )
        universe, offsets = compose_universes([s.universe for s in inners])
        super().__init__(universe)
        self._outer = outer
        self._inners = tuple(inners)
        self._offsets = offsets
        self.system_name = (
            f"compose({outer.system_name}; "
            + ", ".join(s.system_name for s in inners)
            + ")"
        )

    @property
    def outer(self) -> QuorumSystem:
        """The outer (logical-object level) system."""
        return self._outer

    @property
    def inners(self) -> Tuple[QuorumSystem, ...]:
        """The inner systems, one per logical object."""
        return self._inners

    def lift_inner_quorum(self, object_index: int, quorum: Quorum) -> Quorum:
        """Translate an inner quorum of the given object to composite ids."""
        offset = self._offsets[object_index]
        return frozenset(offset[e] for e in quorum)

    def _generate_quorums(self) -> Iterator[Quorum]:
        for outer_quorum in self._outer.minimal_quorums():
            objects = sorted(outer_quorum)
            inner_choices = [
                [self.lift_inner_quorum(o, q) for q in self._inners[o].minimal_quorums()]
                for o in objects
            ]
            for pick in itertools.product(*inner_choices):
                combined: frozenset = frozenset()
                for part in pick:
                    combined |= part
                yield combined

    def failure_probability_exact(self, p: float) -> float:
        """Exact failure probability by two-level decomposition.

        Logical objects fail independently of each other (their element
        sets are disjoint), each with its inner failure probability, so the
        composite failure probability is the outer system's failure event
        evaluated under *heterogeneous* object failure probabilities.
        """
        from ..analysis.availability import (
            failure_probability,
            failure_probability_heterogeneous,
        )

        inner_failures = [
            failure_probability(inner, p) for inner in self._inners
        ]
        return failure_probability_heterogeneous(self._outer, inner_failures)
