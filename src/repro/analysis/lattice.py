"""Exact reliability of connectivity events on lattice graphs.

The Paths system of Naor–Wool and the Y system of Kuo–Huang define quorums
through *crossing paths* on planar lattices.  Their availability events
are therefore site-percolation connectivity events:

* Paths: the alive vertex set contains a left–right crossing **and** a
  top–bottom crossing;
* Y: the alive vertex set contains a connected component touching all
  three sides of a triangle.

For the universe sizes in the paper (13–113 vertices) enumeration over
``2^n`` states is impossible, but these events are computable exactly with
a *frontier* (path-decomposition / transfer-matrix) dynamic program: we
sweep the vertices in a fixed order, maintaining for every reachable
configuration the partition of the alive frontier vertices into connected
blocks, the set of terminal groups each block has touched, and the set of
requirements already satisfied by retired blocks.

The engine is generic: callers supply the adjacency, a sweep order, the
terminal groups, and a list of requirements (each a set of groups that one
component must jointly touch).  It also returns the full joint
distribution over satisfied-requirement subsets, which tests use to verify
inclusion–exclusion identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Tuple

from ..core.errors import AnalysisError

Vertex = Hashable

#: Sentinel used in frontier assignments for a dead / absent vertex.
_DEAD = -1


@dataclass(frozen=True)
class ConnectivityProblem:
    """A lattice reliability question.

    Attributes
    ----------
    vertices:
        All lattice sites, in the sweep order used by the DP.  A good
        order keeps the *frontier* (processed vertices that still have
        unprocessed neighbours) small; for grids and triangles, row- or
        column-major order gives frontiers bounded by one row/column.
    adjacency:
        Undirected adjacency mapping.  Only pairs where both endpoints are
        in ``vertices`` are considered.
    groups:
        Terminal groups: name -> vertices belonging to the group (e.g. the
        left border of a grid).
    requirements:
        Each requirement is a set of group names; it is satisfied when a
        single alive connected component touches every named group.
    """

    vertices: Tuple[Vertex, ...]
    adjacency: Mapping[Vertex, FrozenSet[Vertex]]
    groups: Mapping[str, FrozenSet[Vertex]]
    requirements: Tuple[FrozenSet[str], ...]

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise AnalysisError("duplicate vertices in sweep order")
        for name, members in self.groups.items():
            missing = set(members) - vertex_set
            if missing:
                raise AnalysisError(
                    f"group {name!r} references unknown vertices {missing}"
                )
        for requirement in self.requirements:
            unknown = set(requirement) - set(self.groups)
            if unknown:
                raise AnalysisError(f"requirement uses unknown groups {unknown}")


def solve(
    problem: ConnectivityProblem,
    survive: Mapping[Vertex, float],
) -> Dict[FrozenSet[int], float]:
    """Joint distribution over the set of satisfied requirement indices.

    Parameters
    ----------
    problem:
        The connectivity problem.
    survive:
        Per-vertex survival probability ``q_v``.

    Returns
    -------
    dict mapping each ``frozenset`` of requirement indices to the
    probability that *exactly* those requirements end up satisfied.
    """
    order = problem.vertices
    index_of = {v: i for i, v in enumerate(order)}
    group_names = sorted(problem.groups)
    group_bit = {name: 1 << k for k, name in enumerate(group_names)}
    vertex_group_mask = {
        v: sum(group_bit[name] for name in group_names if v in problem.groups[name])
        for v in order
    }
    requirement_masks = [
        sum(group_bit[name] for name in requirement)
        for requirement in problem.requirements
    ]

    # last_step[v]: index after which v can never matter again.
    last_step: Dict[Vertex, int] = {}
    for v in order:
        latest = index_of[v]
        for neighbour in problem.adjacency.get(v, ()):  # type: ignore[arg-type]
            if neighbour in index_of:
                latest = max(latest, index_of[neighbour])
        last_step[v] = latest

    # A state is (assignment, block_masks, satisfied):
    #   assignment: tuple aligned with the current frontier vertex list,
    #     entries are _DEAD or a canonical block id;
    #   block_masks: tuple of touched-group bitmasks indexed by block id;
    #   satisfied: bitmask over requirements already locked in.
    State = Tuple[Tuple[int, ...], Tuple[int, ...], int]
    states: Dict[State, float] = {((), (), 0): 1.0}
    frontier: List[Vertex] = []

    def canonicalise(
        assignment: List[int], block_masks: Dict[int, int], satisfied: int
    ) -> State:
        relabel: Dict[int, int] = {}
        canon_assignment = []
        canon_masks: List[int] = []
        for block in assignment:
            if block == _DEAD:
                canon_assignment.append(_DEAD)
                continue
            if block not in relabel:
                relabel[block] = len(canon_masks)
                canon_masks.append(block_masks[block])
            canon_assignment.append(relabel[block])
        return tuple(canon_assignment), tuple(canon_masks), satisfied

    def retire_block(mask: int, satisfied: int) -> int:
        for req_index, req_mask in enumerate(requirement_masks):
            if (mask & req_mask) == req_mask:
                satisfied |= 1 << req_index
        return satisfied

    for step, vertex in enumerate(order):
        q_v = survive[vertex]
        if not 0.0 <= q_v <= 1.0:
            raise AnalysisError(f"survival probability of {vertex!r} is {q_v}")
        neighbour_slots = [
            slot
            for slot, frontier_vertex in enumerate(frontier)
            if frontier_vertex in problem.adjacency.get(vertex, frozenset())
        ]
        new_states: Dict[State, float] = {}

        def emit(state: State, probability: float) -> None:
            if probability > 0.0:
                new_states[state] = new_states.get(state, 0.0) + probability

        retiring = [
            slot
            for slot, frontier_vertex in enumerate(frontier)
            if last_step[frontier_vertex] <= step
        ]
        vertex_retires = last_step[vertex] <= step

        for (assignment, block_masks, satisfied), probability in states.items():
            # --- vertex dies -------------------------------------------------
            dead_assignment = list(assignment) + ([] if vertex_retires else [_DEAD])
            dead_masks = dict(enumerate(block_masks))
            dead_satisfied = satisfied
            dead_assignment, dead_masks, dead_satisfied = _drop_slots(
                dead_assignment, dead_masks, dead_satisfied, retiring, retire_block
            )
            emit(
                canonicalise(dead_assignment, dead_masks, dead_satisfied),
                probability * (1.0 - q_v),
            )

            # --- vertex survives ---------------------------------------------
            masks = dict(enumerate(block_masks))
            merged_blocks = sorted(
                {assignment[slot] for slot in neighbour_slots if assignment[slot] != _DEAD}
            )
            new_mask = vertex_group_mask[vertex]
            for block in merged_blocks:
                new_mask |= masks[block]
            if merged_blocks:
                target = merged_blocks[0]
            else:
                target = max(masks, default=-1) + 1
            masks[target] = new_mask
            alive_assignment = [
                target if block in merged_blocks else block for block in assignment
            ]
            for block in merged_blocks[1:]:
                masks.pop(block, None)
            alive_satisfied = satisfied
            if vertex_retires:
                # The vertex leaves immediately; its block may still live on
                # through merged frontier vertices.
                if target not in alive_assignment:
                    alive_satisfied = retire_block(masks.pop(target), alive_satisfied)
            else:
                alive_assignment.append(target)
            alive_assignment, masks, alive_satisfied = _drop_slots(
                alive_assignment, masks, alive_satisfied, retiring, retire_block
            )
            emit(
                canonicalise(alive_assignment, masks, alive_satisfied),
                probability * q_v,
            )

        frontier = [
            frontier_vertex
            for frontier_vertex in frontier
            if last_step[frontier_vertex] > step
        ]
        if not vertex_retires:
            frontier.append(vertex)
        states = new_states

    distribution: Dict[FrozenSet[int], float] = {}
    for (assignment, block_masks, satisfied), probability in states.items():
        # All vertices processed: any remaining blocks retire now.
        final_satisfied = satisfied
        for mask in block_masks:
            final_satisfied = retire_block(mask, final_satisfied)
        key = frozenset(
            i for i in range(len(requirement_masks)) if final_satisfied & (1 << i)
        )
        distribution[key] = distribution.get(key, 0.0) + probability
    return distribution


def _drop_slots(assignment, masks, satisfied, retiring, retire_block):
    """Remove retiring frontier slots, finalising emptied blocks."""
    if not retiring:
        return assignment, masks, satisfied
    retiring_set = set(retiring)
    kept = [block for slot, block in enumerate(assignment) if slot not in retiring_set]
    for slot in retiring:
        block = assignment[slot]
        if block != _DEAD and block not in kept:
            if block in masks:
                satisfied = retire_block(masks.pop(block), satisfied)
    return kept, masks, satisfied


def probability_all_satisfied(
    problem: ConnectivityProblem, survive: Mapping[Vertex, float]
) -> float:
    """Probability that every requirement is satisfied."""
    everything = frozenset(range(len(problem.requirements)))
    distribution = solve(problem, survive)
    return sum(
        probability
        for satisfied, probability in distribution.items()
        if satisfied == everything
    )


def uniform_survival(vertices: Iterable[Vertex], q: float) -> Dict[Vertex, float]:
    """Convenience: identical survival probability for every vertex."""
    return {v: q for v in vertices}
