"""Tests for the voting-based systems and the singleton."""

import math

import pytest

from repro.analysis import failure_probability_exhaustive
from repro.core import ConstructionError, Universe
from repro.systems import (
    MajorityQuorumSystem,
    SingletonQuorumSystem,
    WeightedVotingQuorumSystem,
)


class TestSingleton:
    def test_structure(self):
        system = SingletonQuorumSystem.of_size(5, center=2)
        assert system.minimal_quorums() == (frozenset({2}),)
        assert system.smallest_quorum_size() == 1

    def test_failure_probability_is_p(self):
        system = SingletonQuorumSystem.of_size(3)
        for p in (0.0, 0.2, 0.9):
            assert system.failure_probability_exact(p) == p
            assert failure_probability_exhaustive(system, p) == pytest.approx(p)

    def test_load_is_one(self):
        assert SingletonQuorumSystem.of_size(4).load_exact() == 1.0

    def test_bad_center(self):
        with pytest.raises(ConstructionError):
            SingletonQuorumSystem.of_size(3, center=7)

    def test_best_for_large_p(self):
        # Prop. 3.2: for p > 1/2 the singleton beats the majority.
        singleton = SingletonQuorumSystem.of_size(5)
        majority = MajorityQuorumSystem.of_size(5)
        for p in (0.6, 0.8):
            assert singleton.failure_probability_exact(
                p
            ) < majority.failure_probability_exact(p)


class TestMajority:
    def test_quorum_size(self):
        assert MajorityQuorumSystem.of_size(15).quorum_size == 8
        assert MajorityQuorumSystem.of_size(28).quorum_size == 15

    def test_enumeration_matches_binomial(self):
        system = MajorityQuorumSystem.of_size(7)
        assert system.num_minimal_quorums == math.comb(7, 4)
        system.verify_intersection()

    def test_closed_form_vs_exhaustive(self):
        system = MajorityQuorumSystem.of_size(9)
        for p in (0.1, 0.3, 0.5):
            assert system.failure_probability_exact(p) == pytest.approx(
                failure_probability_exhaustive(system, p), abs=1e-12
            )

    def test_half_is_fixed_point_for_odd(self):
        for n in (5, 15, 29):
            system = MajorityQuorumSystem.of_size(n)
            assert system.failure_probability_exact(0.5) == pytest.approx(0.5)

    def test_load(self):
        assert MajorityQuorumSystem.of_size(15).load_exact() == pytest.approx(8 / 15)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_read_quorums_are_the_dual_minimal_quorums_in_order(self, n):
        system = MajorityQuorumSystem.of_size(n)
        assert system.read_quorums() == list(system.dual().minimal_quorums())

    def test_big_enumeration_guarded(self):
        system = MajorityQuorumSystem.of_size(31)
        with pytest.raises(ConstructionError):
            system.minimal_quorums()
        with pytest.raises(ConstructionError):
            system.read_quorums()
        # Closed forms still work.
        assert system.failure_probability_exact(0.5) == pytest.approx(0.5)
        assert system.load_exact() == pytest.approx(16 / 31)

    def test_availability_improves_with_n_below_half(self):
        values = [
            MajorityQuorumSystem.of_size(n).failure_probability_exact(0.2)
            for n in (5, 9, 15, 21)
        ]
        assert values == sorted(values, reverse=True)


class TestWeightedVoting:
    def test_weighted_dictator(self):
        # One element holds a strict vote majority: it is a dictator.
        system = WeightedVotingQuorumSystem(Universe.of_size(3), [5, 1, 1])
        assert frozenset({0}) in system.minimal_quorums()
        system.verify_intersection()

    def test_equal_votes_is_majority(self):
        weighted = WeightedVotingQuorumSystem(Universe.of_size(5), [1] * 5)
        majority = MajorityQuorumSystem.of_size(5)
        assert set(weighted.minimal_quorums()) == set(majority.minimal_quorums())

    def test_zero_vote_elements_excluded(self):
        system = WeightedVotingQuorumSystem(Universe.of_size(4), [1, 1, 1, 0])
        for quorum in system.minimal_quorums():
            assert 3 not in quorum

    def test_vote_count_mismatch(self):
        with pytest.raises(ConstructionError):
            WeightedVotingQuorumSystem(Universe.of_size(3), [1, 1])

    def test_negative_votes_rejected(self):
        with pytest.raises(ConstructionError):
            WeightedVotingQuorumSystem(Universe.of_size(2), [1, -1])

    def test_all_zero_votes_rejected(self):
        with pytest.raises(ConstructionError):
            WeightedVotingQuorumSystem(Universe.of_size(2), [0, 0])

    def test_weighted_failure_vs_exhaustive(self):
        system = WeightedVotingQuorumSystem(Universe.of_size(5), [3, 2, 2, 1, 1])
        for p in (0.2, 0.5):
            got = failure_probability_exhaustive(system, p)
            assert 0.0 <= got <= 1.0
        system.verify_intersection()
