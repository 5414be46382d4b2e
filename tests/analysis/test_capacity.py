"""Tests for the read/write capacity LP and the read-quorum families.

Two kinds of guarantees:

* **Safety** — every construction-provided read quorum intersects every
  minimal (write) quorum, on the base families and on §5-grown
  h-triangles alike; the LP's output pair re-checks the invariant at
  construction, so a successful solve is itself a proof.
* **Capacity** — the LP's optimum beats the unified write-legal optimum
  on read-heavy workloads for grid-shaped families (reads are row
  covers, a fraction of a full quorum), and honestly reports ~no gain
  for self-dual systems (majority, h-triangle) whose read quorums are
  as large as their write quorums.
"""

import hashlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    optimal_strategy,
    read_quorums_of,
    read_write_optimal,
)
from repro.analysis.byzantine import masking_majority
from repro.analysis.capacity import (
    MAX_RESILIENT_CANDIDATES,
    _filter_resilient_reads,
    _filter_resilient_writes,
    _resilient_candidates,
    read_write_capacity,
)
from repro.cli import build_system
from repro.core import bitpack
from repro.core.errors import AnalysisError
from repro.core.rwstrategy import ReadWriteStrategy
from repro.systems import (
    GridQuorumSystem,
    HierarchicalGrid,
    HierarchicalTGrid,
    HierarchicalTriangle,
    MajorityQuorumSystem,
)


def assert_two_intersection(system, reads):
    writes = list(system.minimal_quorums())
    for read_quorum in reads:
        for write_quorum in writes:
            assert read_quorum & write_quorum, (
                f"{system.system_name}: read {sorted(read_quorum)} misses"
                f" write {sorted(write_quorum)}"
            )


class TestReadQuorumFamilies:
    @pytest.mark.parametrize(
        "system",
        [
            GridQuorumSystem(3, 4),
            GridQuorumSystem(4, 4),
            HierarchicalGrid.halving(4, 4),
            HierarchicalTGrid.halving(4, 4),
            HierarchicalTriangle.of_size(15),
        ],
        ids=lambda s: s.system_name,
    )
    def test_reads_intersect_every_write_quorum(self, system):
        reads = read_quorums_of(system)
        assert reads
        assert_two_intersection(system, reads)

    def test_grown_triangles_keep_the_invariant(self):
        # §5 growth is defined on flat sub-grids only.
        base = HierarchicalTriangle.of_size(15, subgrid="flat")
        for construction in ("t1", "t2", "grid"):
            grown = base.grown(construction)
            assert_two_intersection(grown, read_quorums_of(grown))

    def test_grid_reads_are_row_covers(self):
        system = GridQuorumSystem(4, 4)
        reads = read_quorums_of(system)
        # One element per row: strictly smaller than any quorum.
        assert all(len(q) == 4 for q in reads)
        assert system.smallest_quorum_size() > 4

    def test_dual_fallback_for_systems_without_a_hook(self):
        system = MajorityQuorumSystem.of_size(5)
        reads = read_quorums_of(system)
        # Majority is self-dual: the fallback returns majorities again.
        assert sorted(map(sorted, reads)) == sorted(
            map(sorted, system.minimal_quorums())
        )


class TestCapacityLP:
    def test_grid_read_heavy_capacity_beats_unified(self):
        system = GridQuorumSystem(4, 4)
        unified_capacity = 1.0 / optimal_strategy(system).induced_load()
        result = read_write_capacity(system, read_fraction=0.9)
        assert result.capacity >= 1.3 * unified_capacity
        assert isinstance(result.strategy, ReadWriteStrategy)
        assert result.strategy.is_split
        # The result's load is the strategy's own induced load.
        assert result.load == pytest.approx(
            result.strategy.induced_load(0.9), rel=1e-6
        )

    def test_capacity_grows_with_read_fraction(self):
        system = HierarchicalGrid.halving(4, 4)
        capacities = [
            read_write_capacity(system, read_fraction=fr).capacity
            for fr in (0.5, 0.9, 0.99)
        ]
        assert capacities[0] < capacities[1] < capacities[2]

    def test_self_dual_family_gains_nothing(self):
        system = MajorityQuorumSystem.of_size(5)
        unified_capacity = 1.0 / optimal_strategy(system).induced_load()
        result = read_write_capacity(system, read_fraction=0.99)
        assert result.capacity == pytest.approx(unified_capacity, rel=1e-6)

    def test_mixture_workload(self):
        system = GridQuorumSystem(4, 4)
        result = read_write_capacity(system, read_fraction={0.5: 1.0, 0.9: 3.0})
        assert set(result.per_fraction_loads) == {0.5, 0.9}
        expected = sum(
            weight * result.per_fraction_loads[fr]
            for fr, weight in result.read_fraction.items()
        )
        assert result.load == pytest.approx(expected, rel=1e-9)
        # Mixture weights arrive normalised.
        assert sum(result.read_fraction.values()) == pytest.approx(1.0)

    def test_f_resilience_costs_capacity(self):
        system = MajorityQuorumSystem.of_size(5)
        base = read_write_capacity(system, read_fraction=0.9)
        resilient = read_write_capacity(system, read_fraction=0.9, f=1)
        assert resilient.f == 1
        assert resilient.capacity <= base.capacity + 1e-9
        # Every weighted read quorum must still intersect all writes
        # after any single crash — spot check via the pair invariant.
        strategy = resilient.strategy
        for read_quorum in strategy.reads.quorums:
            for gone in read_quorum:
                rest = read_quorum - {gone}
                assert all(rest & w for w in strategy.writes.quorums)

    def test_min_intersection_falls_back_to_write_family(self):
        system = masking_majority(5, 1)
        result = read_write_capacity(system, read_fraction=0.9, min_intersection=3)
        assert result.unified_read_fallback
        assert result.strategy.min_read_write_intersection() >= 3

    def test_min_intersection_unreachable_raises(self):
        system = MajorityQuorumSystem.of_size(3)
        with pytest.raises(AnalysisError, match="pairwise intersection"):
            read_write_capacity(system, read_fraction=0.9, min_intersection=3)

    def test_heterogeneous_capacities_shift_weight(self):
        system = GridQuorumSystem(2, 2)
        slow = [1.0, 1.0, 1.0, 0.05]
        fast = read_write_capacity(
            system, read_fraction=0.9, read_capacity=slow, write_capacity=slow
        )
        uniform = read_write_capacity(system, read_fraction=0.9)
        loads = fast.strategy.element_loads(0.9)
        # The crippled element must not be the busiest one.
        assert loads[3] < loads.max() + 1e-12
        assert fast.capacity < uniform.capacity

    def test_input_validation(self):
        system = MajorityQuorumSystem.of_size(3)
        with pytest.raises(AnalysisError):
            read_write_capacity(system, f=-1)
        with pytest.raises(AnalysisError):
            read_write_capacity(system, min_intersection=0)
        with pytest.raises(AnalysisError):
            read_write_capacity(system, read_fraction=1.5)
        with pytest.raises(AnalysisError):
            read_write_capacity(system, read_fraction={})
        with pytest.raises(AnalysisError):
            read_write_capacity(system, read_capacity=0.0)

    def test_to_dict_is_json_shaped(self):
        result = read_write_capacity(
            GridQuorumSystem(3, 3), read_fraction=0.9
        )
        blob = result.to_dict()
        assert blob["capacity"] == pytest.approx(result.capacity)
        assert blob["read_quorum_count"] == result.read_quorum_count
        assert blob["unified_read_fallback"] is False
        assert "0.9" in blob["read_fraction"]

    def test_read_write_optimal_returns_the_pair(self):
        system = GridQuorumSystem(3, 3)
        strategy = read_write_optimal(system, read_fraction=0.9)
        assert isinstance(strategy, ReadWriteStrategy)
        assert strategy.is_split


# ----------------------------------------------------------------------
# Batched f-resilient filters and pinned LP outcomes
# ----------------------------------------------------------------------
def reference_resilient_writes(candidates, system, f):
    """The per-candidate, per-crash-pattern loop the batched filter replaced."""
    kept = []
    for quorum in candidates:
        members = sorted(quorum)
        if all(
            system.contains_quorum(frozenset(members) - frozenset(gone))
            for gone in itertools.combinations(members, min(f, len(members)))
        ):
            kept.append(quorum)
    return kept


def reference_resilient_reads(candidates, writes, n, f):
    packed_writes = bitpack.pack_rows(writes, n)
    kept = []
    for quorum in candidates:
        members = sorted(quorum)
        if all(
            bitpack.intersects(
                packed_writes, bitpack.pack_one(set(members) - set(gone), n)
            ).all()
            for gone in itertools.combinations(members, min(f, len(members)))
        ):
            kept.append(quorum)
    return kept


@pytest.mark.parametrize(
    "spec, f",
    [("hgrid:4x4", 1), ("htgrid:4x4", 1), ("htriang:15", 1), ("majority:5", 1), ("majority:5", 2)],
)
def test_batched_resilience_filters_equal_the_per_pattern_loops(spec, f):
    system = build_system(spec)
    write_candidates = _resilient_candidates(system.minimal_quorums(), f)
    writes = _filter_resilient_writes(write_candidates, system, f)
    assert writes == reference_resilient_writes(write_candidates, system, f)
    assert writes
    read_candidates = _resilient_candidates(read_quorums_of(system), f)
    reads = _filter_resilient_reads(read_candidates, writes, system.n, f)
    assert reads == reference_resilient_reads(read_candidates, writes, system.n, f)
    assert reads


def reference_resilient_candidates(base, f, cap=MAX_RESILIENT_CANDIDATES):
    """The one-frozenset-at-a-time union loop the packed builder replaced."""
    seen = set(base)
    candidates = list(base)
    for count in range(2, f + 2):
        for combo in itertools.combinations(base, count):
            union = frozenset().union(*combo)
            if union not in seen:
                seen.add(union)
                candidates.append(union)
            if len(candidates) >= cap:
                return candidates
    return candidates


@pytest.mark.parametrize("spec", ["hgrid:4x4", "htgrid:4x4", "htriang:15", "majority:5"])
@pytest.mark.parametrize("f", [1, 2])
def test_packed_candidate_unions_equal_the_frozenset_loop(spec, f):
    system = build_system(spec)
    for base in (list(system.minimal_quorums()), read_quorums_of(system)):
        assert _resilient_candidates(base, f) == reference_resilient_candidates(base, f)


@given(
    st.lists(st.frozensets(st.integers(0, 69), max_size=6), max_size=14),
    st.integers(0, 3),
    st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_packed_candidate_unions_equal_the_frozenset_loop_at_any_cap(base, f, cap):
    # Small caps reach the cut mid-block, at a count boundary and before
    # any union; repeated and nested base sets make unions that are not
    # fresh.
    with mock.patch.dict(_resilient_candidates.__globals__, MAX_RESILIENT_CANDIDATES=cap):
        got = _resilient_candidates(base, f)
    assert got == reference_resilient_candidates(base, f, cap)


def test_a_base_family_over_the_cap_keeps_its_one_resilient_write():
    # majority:15 has 6,435 minimal quorums, none of which survives a
    # crash: only the first union (9 members) does.
    system = build_system("majority:15")
    minimal = list(system.minimal_quorums())
    assert len(minimal) > MAX_RESILIENT_CANDIDATES
    for f in (1, 2):
        candidates = _resilient_candidates(minimal, f)
        assert candidates == reference_resilient_candidates(minimal, f)
        assert len(candidates) == len(minimal) + 1
    assert _filter_resilient_writes(candidates, system, 1) == [candidates[-1]]


def strategy_digest(strategy):
    support = repr([sorted(q) for q in strategy.quorums]).encode()
    return hashlib.sha256(support + strategy.weights.tobytes()).hexdigest()[:16]


#: Digests of (optimal_strategy, f=0 reads, f=0 writes, f=1 reads,
#: f=1 writes) at read fraction 0.9: support order and the weights'
#: bytes.  A different but equally optimal LP vertex changes them, and
#: with them every digest of a run that solves its own strategy.
PINNED_STRATEGIES = {
    "hgrid:4x4": ("ff2f9340bac1629b", "867af00e09d7b7ac", "71e13c00eb4f0dfe", "a3ddd53442e8940f", "035cf602e5c161d5"),
    "htgrid:4x4": ("68d082b77fa6ed43", "6fcf2bba5df34aed", "1d0294f6cff38dbf", "104fdacfb6626837", "2bf8dcb7494dbc69"),
    "htriang:15": ("f8e73d4a9aef2892", "d0e8d8288abfe1c9", "b52e1e69e5ffbb87", "6f381de1bd3b5ec9", "9587045275d876d2"),
    "majority:5": ("63bc26b2355911f4", "1894b47b184207c2", "c28d5d43cc7b23f4", "7b0cf027e5384ffa", "09ad831a03b5163e"),
}


@pytest.mark.parametrize("spec", sorted(PINNED_STRATEGIES))
def test_lp_strategies_are_byte_identical_to_the_pinned_ones(spec):
    got = [strategy_digest(optimal_strategy(build_system(spec)))]
    for f in (0, 1):
        pair = read_write_capacity(build_system(spec), f=f).strategy
        got += [strategy_digest(pair.reads), strategy_digest(pair.writes)]
    assert tuple(got) == PINNED_STRATEGIES[spec]
