"""Tests for repro.core.bitpack: the shared packed-bitmask helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitpack


def reference_pack(sets, size):
    """Naive per-element packing (the double loop bitpack replaces)."""
    lanes = bitpack.lanes_for(size)
    packed = np.zeros((len(sets), lanes), dtype=np.uint64)
    for row, members in enumerate(sets):
        for element in members:
            packed[row, element // 64] |= np.uint64(1) << np.uint64(element % 64)
    return packed


class TestPacking:
    def test_lanes_for(self):
        assert bitpack.lanes_for(0) == 1
        assert bitpack.lanes_for(1) == 1
        assert bitpack.lanes_for(64) == 1
        assert bitpack.lanes_for(65) == 2
        assert bitpack.lanes_for(128) == 2
        assert bitpack.lanes_for(129) == 3

    def test_matches_reference_single_lane(self):
        sets = [{0, 3, 5}, {1}, set(), {0, 1, 2, 3, 4, 5, 6, 7}]
        got = bitpack.pack_rows(sets, 8)
        assert got.shape == (4, 1)
        np.testing.assert_array_equal(got, reference_pack(sets, 8))

    def test_matches_reference_multi_lane(self):
        rng = np.random.default_rng(17)
        size = 200  # 4 lanes
        sets = [
            set(rng.choice(size, size=rng.integers(0, 40), replace=False).tolist())
            for _ in range(50)
        ]
        got = bitpack.pack_rows(sets, size)
        assert got.shape == (50, 4)
        np.testing.assert_array_equal(got, reference_pack(sets, size))

    def test_size_inferred_from_largest_element(self):
        packed = bitpack.pack_rows([{70}])
        assert packed.shape == (1, 2)
        assert packed[0, 1] == np.uint64(1) << np.uint64(6)

    def test_pack_one_is_first_row(self):
        members = {2, 9, 63}
        np.testing.assert_array_equal(
            bitpack.pack_one(members, 64), bitpack.pack_rows([members], 64)[0]
        )

    def test_empty_family(self):
        packed = bitpack.pack_rows([], 10)
        assert packed.shape == (0, 1)

    @given(
        st.lists(st.frozensets(st.integers(0, 199), max_size=12), max_size=30),
        st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_unpack_inverts_pack(self, sets, size):
        assert bitpack.unpack_rows(bitpack.pack_rows(sets, size)) == sets

    @given(st.lists(st.frozensets(st.integers(0, 99), max_size=4), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_first_occurrences_match_a_seen_set(self, sets):
        seen, expected = set(), []
        for index, members in enumerate(sets):
            if members not in seen:
                seen.add(members)
                expected.append(index)
        got = bitpack.first_occurrences(bitpack.pack_rows(sets, 100))
        assert got.tolist() == expected


class TestQueries:
    def test_popcounts(self):
        sets = [{0, 3, 5}, set(), set(range(100))]
        counts = bitpack.popcounts(bitpack.pack_rows(sets, 100))
        np.testing.assert_array_equal(counts, [3, 0, 100])

    def test_intersects_and_sizes(self):
        sets = [{0, 1}, {2, 3}, {1, 2}]
        packed = bitpack.pack_rows(sets, 4)
        mask = bitpack.pack_one({1, 3}, 4)
        np.testing.assert_array_equal(
            bitpack.intersects(packed, mask), [True, True, True]
        )
        np.testing.assert_array_equal(
            bitpack.intersection_sizes(packed, mask), [1, 1, 1]
        )
        empty = bitpack.pack_one(set(), 4)
        assert not bitpack.intersects(packed, empty).any()

    def test_contains_any(self):
        rows = bitpack.pack_rows([{0, 1}, {2, 3}], 4)
        candidates = bitpack.pack_rows([{0, 1, 2}, {0, 2}, set()], 4)
        np.testing.assert_array_equal(
            bitpack.contains_any(candidates, rows), [True, False, False]
        )
        nothing = bitpack.pack_rows([], 4)
        assert not bitpack.contains_any(candidates, nothing).any()
        assert bitpack.contains_any(nothing, rows).shape == (0,)


def sets_over(size):
    return st.frozensets(st.integers(0, size - 1), max_size=12)


class TestContainsAnyProperty:
    """Batched containment against the per-set Python scan it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        size=st.sampled_from([1, 5, 16, 64, 65, 150]),
        block_pairs=st.sampled_from([1, 3, 7, bitpack.BLOCK_PAIRS]),
    )
    def test_matches_any_subset_scan(self, data, size, block_pairs):
        family = data.draw(st.lists(sets_over(size), max_size=10))
        sets = data.draw(st.lists(sets_over(size), max_size=12))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitpack, "BLOCK_PAIRS", block_pairs)
            got = bitpack.contains_any(
                bitpack.pack_rows(sets, size), bitpack.pack_rows(family, size)
            )
        expected = [any(q <= s for q in family) for s in sets]
        assert got.tolist() == expected

    def test_rows_wider_or_narrower_than_the_family(self):
        family = bitpack.pack_rows([{1, 2}], 3)  # one lane
        wide = bitpack.pack_rows([{1, 2, 100}, {1, 100}], 101)  # two lanes
        np.testing.assert_array_equal(bitpack.contains_any(wide, family), [True, False])
        family = bitpack.pack_rows([{1}, {1, 70}], 71)  # two lanes
        narrow = bitpack.pack_rows([{1, 2}, {2}], 3)  # one lane
        np.testing.assert_array_equal(bitpack.contains_any(narrow, family), [True, False])

    def test_two_dimensional_array_packs_like_sets(self):
        rows = np.array([[0, 70], [3, 5], [64, 1]])
        np.testing.assert_array_equal(
            bitpack.pack_rows(rows, 71),
            reference_pack([{0, 70}, {3, 5}, {64, 1}], 71),
        )
        assert bitpack.pack_rows(np.zeros((2, 0), dtype=int), 8).tolist() == [[0], [0]]


class TestMembershipMatrix:
    def test_matrix_contents(self):
        sets = [{0, 2}, {1}]
        matrix = bitpack.membership_matrix(sets, 3)
        np.testing.assert_array_equal(
            matrix, [[True, False, True], [False, True, False]]
        )

    def test_out_of_universe_element_rejected(self):
        with pytest.raises(ValueError):
            bitpack.membership_matrix([{5}], 3)
