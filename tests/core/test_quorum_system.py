"""Tests for repro.core.quorum_system."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_system
from repro.core import (
    ConstructionError,
    ExplicitQuorumSystem,
    IntersectionViolation,
    Universe,
    bitpack,
    reduce_to_coterie,
)
from ..conftest import brute_force_minimal_transversals, tiny_majority


class TestReduceToCoterie:
    def test_removes_duplicates(self):
        quorums = [frozenset({0, 1}), frozenset({0, 1})]
        assert reduce_to_coterie(quorums) == (frozenset({0, 1}),)

    def test_removes_dominated(self):
        quorums = [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]
        assert set(reduce_to_coterie(quorums)) == {frozenset({0}), frozenset({1, 2})}

    def test_antichain_preserved(self):
        quorums = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
        assert set(reduce_to_coterie(quorums)) == set(quorums)

    def test_deterministic_order(self):
        quorums = [frozenset({2, 3}), frozenset({0, 1}), frozenset({1, 2})]
        assert reduce_to_coterie(quorums) == reduce_to_coterie(reversed(quorums))


def sequential_reduction(quorums):
    """The candidate-at-a-time reduction the size-class batches replaced:
    each candidate is tested against the strictly smaller quorums kept
    before it."""
    unique = sorted(set(quorums), key=lambda q: (len(q), sorted(q)))
    kept, kept_sizes = [], []
    for candidate in unique:
        prefix = bisect.bisect_left(kept_sizes, len(candidate))
        if any(q <= candidate for q in kept[:prefix]):
            continue
        kept.append(candidate)
        kept_sizes.append(len(candidate))
    return tuple(kept)


class TestBatchedReduction:
    @settings(max_examples=150, deadline=None)
    @given(
        quorums=st.lists(
            st.frozensets(st.integers(0, 80), max_size=6), max_size=30
        ),
        block_pairs=st.sampled_from([1, 4, bitpack.BLOCK_PAIRS]),
    )
    def test_equals_the_sequential_reduction(self, quorums, block_pairs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitpack, "BLOCK_PAIRS", block_pairs)
            assert reduce_to_coterie(quorums) == sequential_reduction(quorums)

    @pytest.mark.parametrize(
        "spec", ["hgrid:4x4", "htgrid:4x4", "triangle:5", "cwlog:14", "tree:2"]
    )
    def test_construction_streams_reduce_as_before(self, spec):
        system = build_system(spec)
        generated = list(system._generate_quorums())
        assert system.minimal_quorums() == sequential_reduction(generated)
        np.testing.assert_array_equal(
            system.packed_minimal_quorums(),
            bitpack.pack_rows(system.minimal_quorums(), system.n),
        )


class TestExplicitSystem:
    def test_basic(self, maj5):
        assert maj5.n == 5
        assert maj5.num_minimal_quorums == 10
        assert maj5.smallest_quorum_size() == 3
        assert maj5.largest_quorum_size() == 3
        assert maj5.has_uniform_quorum_size()

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ConstructionError):
            ExplicitQuorumSystem(Universe.of_size(2), [{0, 5}])

    def test_empty_rejected(self):
        with pytest.raises(ConstructionError):
            ExplicitQuorumSystem(Universe.of_size(2), [])

    def test_intersection_validated_eagerly(self):
        with pytest.raises(IntersectionViolation):
            ExplicitQuorumSystem(Universe.of_size(4), [{0, 1}, {2, 3}])

    def test_validation_can_be_skipped(self):
        system = ExplicitQuorumSystem(
            Universe.of_size(4), [{0, 1}, {2, 3}], validate=False
        )
        assert not system.is_coterie()

    def test_from_names(self):
        u = Universe(["a", "b", "c"])
        system = ExplicitQuorumSystem.from_names(u, [["a", "b"], ["b", "c"]])
        assert frozenset({0, 1}) in system.minimal_quorums()

    def test_named_quorums(self):
        u = Universe(["a", "b", "c"])
        system = ExplicitQuorumSystem.from_names(u, [["a", "b"], ["b", "c"]])
        assert frozenset({"a", "b"}) in system.named_quorums()


class TestMembership:
    def test_contains_quorum(self, maj5):
        assert maj5.contains_quorum({0, 1, 2})
        assert maj5.contains_quorum({0, 1, 2, 3})
        assert not maj5.contains_quorum({0, 1})

    def test_is_transversal(self, maj5):
        assert maj5.is_transversal({0, 1, 2})  # hits every 3-of-5
        assert not maj5.is_transversal({0, 1})

    def test_singleton_quorum_membership(self):
        system = ExplicitQuorumSystem(Universe.of_size(3), [{1}])
        assert system.contains_quorum({1})
        assert not system.contains_quorum({0, 2})


class TestContainsQuorumMany:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from([3, 9, 64, 70, 130]))
    def test_equals_the_minimal_quorum_scan(self, data, n):
        # The top element is in no quorum; n > 64 spans several lanes.
        element = st.integers(0, n - 2)
        quorums = data.draw(
            st.lists(st.frozensets(element, min_size=1, max_size=5), min_size=1, max_size=8)
        )
        system = ExplicitQuorumSystem(Universe.of_size(n), quorums, validate=False)
        sets = data.draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=20), max_size=15))
        sets += [frozenset(), frozenset({n - 1}), frozenset(range(n))]
        minimal = system.minimal_quorums()
        assert system.contains_quorum_many(sets).tolist() == [
            any(q <= s for q in minimal) for s in sets
        ]

    def test_accepts_iterators_of_members(self, maj5):
        got = maj5.contains_quorum_many(iter([range(3), iter([0, 4]), (1, 2, 3, 4)]))
        assert got.tolist() == [True, False, True]

    def test_no_sets(self, maj5):
        assert maj5.contains_quorum_many([]).shape == (0,)


class TestDuality:
    def test_dual_matches_brute_force(self, maj5):
        dual = maj5.dual()
        assert set(dual.minimal_quorums()) == brute_force_minimal_transversals(maj5)

    def test_majority_odd_self_dual(self, maj5):
        assert maj5.is_self_dual()

    def test_majority_even_not_self_dual(self):
        system = tiny_majority(4)
        assert not system.is_self_dual()

    def test_dual_of_dual_is_identity(self):
        system = ExplicitQuorumSystem(
            Universe.of_size(4), [{0, 1}, {1, 2}, {0, 2, 3}]
        )
        double_dual = system.dual().dual()
        assert set(double_dual.minimal_quorums()) == set(system.minimal_quorums())

    def test_singleton_self_dual(self):
        system = ExplicitQuorumSystem(Universe.of_size(1), [{0}])
        assert system.is_self_dual()


class TestConversions:
    def test_to_explicit(self, maj5):
        frozen = maj5.to_explicit()
        assert set(frozen.minimal_quorums()) == set(maj5.minimal_quorums())

    def test_repr(self, maj5):
        assert "maj5" in repr(maj5)
