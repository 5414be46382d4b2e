"""Tests for read/write strategy pairs (the 2-intersection invariant).

The deterministic fixture is a 4-element explicit system with quorums
``{0, 1}`` and ``{0, 2}``; the read support ``{0, 3}`` is *not* a quorum
of the system (it misses ``{1, 2}``-style transversals entirely) but it
does intersect every write support used below — exactly the situation
split read quorums are for.
"""

import numpy as np
import pytest

from repro.core import ExplicitQuorumSystem, ReadWriteStrategy, Strategy, Universe, rwstrategy
from repro.core.errors import StrategyError


@pytest.fixture
def system():
    return ExplicitQuorumSystem(
        Universe.of_size(4), [{0, 1}, {0, 2}], name="explicit4"
    )


@pytest.fixture
def pair(system):
    return ReadWriteStrategy.from_quorums(
        system,
        [{0, 3}, {0, 1}],
        [0.5, 0.5],
        [{0, 1}, {0, 2}],
        [0.25, 0.75],
    )


class TestConstruction:
    def test_from_quorums_accepts_non_quorum_reads(self, system, pair):
        assert pair.is_split
        assert pair.system is system
        # {0, 3} is not a quorum — the write side would reject it.
        with pytest.raises(StrategyError):
            Strategy(system, [frozenset({0, 3})], [1.0])

    def test_two_intersection_violation_is_rejected(self, system):
        # {1, 3} misses the write quorum {0, 2} entirely.
        with pytest.raises(StrategyError, match="2-intersection"):
            ReadWriteStrategy.from_quorums(
                system, [{1, 3}], [1.0], [{0, 1}, {0, 2}], [0.5, 0.5]
            )

    @pytest.mark.parametrize("block_cells", [1, 3, 1 << 16])
    def test_violation_names_the_first_broken_pair(self, system, monkeypatch, block_cells):
        # Blocks of one read quorum, of one read quorum against three
        # writes, and one block for the whole pair: the first read quorum
        # in support order that misses a write quorum is named, with the
        # first write quorum it misses.
        monkeypatch.setattr(rwstrategy, "_OVERLAP_BLOCK_CELLS", block_cells)
        reads = [{0, 1}, {0, 2}, {1, 3}, {2, 3}]
        writes = [{0, 1}, {0, 1, 2}, {0, 2}, {0, 1, 3}]
        with pytest.raises(
            StrategyError,
            match=r"read quorum \[1, 3\] misses write quorum \[0, 2\]: the 2-intersection",
        ):
            ReadWriteStrategy.from_quorums(system, reads, [0.25] * 4, writes, [0.25] * 4)

    @pytest.mark.parametrize("block_cells", [1, 5, 1 << 16])
    def test_blocked_checks_match_every_pair(self, system, monkeypatch, block_cells):
        monkeypatch.setattr(rwstrategy, "_OVERLAP_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(11)
        writes = [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})]
        for _ in range(40):
            reads = [
                frozenset(int(e) for e in rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
                for _ in range(int(rng.integers(1, 7)))
            ]
            legal = all(r & w for r in reads for w in writes)
            weights = [1.0 / len(reads)] * len(reads)
            if not legal:
                with pytest.raises(StrategyError, match="2-intersection"):
                    ReadWriteStrategy.from_quorums(system, reads, weights, writes, [1 / 3] * 3)
                continue
            pair = ReadWriteStrategy.from_quorums(system, reads, weights, writes, [1 / 3] * 3)
            assert pair.min_read_write_intersection() == min(
                len(r & w) for r in reads for w in writes
            )

    def test_strategies_must_share_the_system(self, system):
        other = ExplicitQuorumSystem(
            Universe.of_size(4), [{0, 1}, {0, 2}], name="other"
        )
        reads = Strategy(other, [frozenset({0, 1})], [1.0])
        writes = Strategy(system, [frozenset({0, 1})], [1.0])
        with pytest.raises(StrategyError, match="same system"):
            ReadWriteStrategy(system, reads, writes)

    def test_lift_plain_strategy_is_degenerate(self, system):
        unified = Strategy.uniform(system)
        lifted = ReadWriteStrategy.lift(unified)
        assert not lifted.is_split
        assert lifted.reads is unified
        assert lifted.writes is unified

    def test_lift_pair_returns_it_unchanged(self, pair):
        assert ReadWriteStrategy.lift(pair) is pair

    def test_for_path(self, pair):
        assert pair.for_path("read") is pair.reads
        assert pair.for_path("write") is pair.writes
        with pytest.raises(StrategyError, match="unknown path"):
            pair.for_path("repair")


class TestInducedMetrics:
    def test_element_loads_blend_at_the_read_fraction(self, pair):
        reads = pair.reads.element_loads()
        writes = pair.writes.element_loads()
        np.testing.assert_allclose(pair.element_loads(0.0), writes)
        np.testing.assert_allclose(pair.element_loads(1.0), reads)
        np.testing.assert_allclose(
            pair.element_loads(0.25), 0.25 * reads + 0.75 * writes
        )

    def test_capacity_is_reciprocal_load(self, pair):
        for fr in (0.0, 0.4, 1.0):
            assert pair.capacity(fr) == pytest.approx(
                1.0 / pair.induced_load(fr)
            )

    def test_average_quorum_size_blends(self, pair):
        assert pair.average_quorum_size(1.0) == pytest.approx(
            pair.reads.average_quorum_size()
        )
        assert pair.average_quorum_size(0.0) == pytest.approx(
            pair.writes.average_quorum_size()
        )

    def test_fraction_out_of_range_rejected(self, pair):
        for bad in (-0.1, 1.1):
            with pytest.raises(StrategyError, match="read fraction"):
                pair.element_loads(bad)

    def test_min_read_write_intersection(self, system, pair):
        # Every support pair here meets only in element 0 at worst.
        assert pair.min_read_write_intersection() == 1
        deep = ReadWriteStrategy.from_quorums(
            system, [{0, 1, 2}], [1.0], [{0, 1, 2}], [1.0]
        )
        assert deep.min_read_write_intersection() == 3
        assert pair.min_read_quorum_size() == 2


class TestAvoiding:
    def test_both_sides_renormalize(self, pair):
        # Satellite check: restriction renormalises BOTH distributions.
        restricted = pair.avoiding({1})
        assert restricted is not None
        assert restricted.reads.weights.sum() == pytest.approx(1.0)
        assert restricted.writes.weights.sum() == pytest.approx(1.0)
        # Only {0, 3} survives on the read side, only {0, 2} on writes.
        assert list(restricted.reads.quorums) == [frozenset({0, 3})]
        assert restricted.reads.weights[0] == pytest.approx(1.0)
        assert list(restricted.writes.quorums) == [frozenset({0, 2})]
        assert restricted.writes.weights[0] == pytest.approx(1.0)
        assert restricted.is_split

    def test_none_when_either_side_empties(self, pair):
        # Element 0 is in every support set of both sides.
        assert pair.avoiding({0}) is None

    def test_unsplit_pair_stays_unsplit(self, system):
        lifted = ReadWriteStrategy.lift(Strategy.uniform(system))
        restricted = lifted.avoiding({1})
        assert restricted is not None
        assert not restricted.is_split
        assert restricted.reads is restricted.writes

    def test_sides_come_from_the_strategy_memo(self, pair, system):
        restricted = pair.avoiding({1})
        assert restricted.reads is pair.reads.avoiding(frozenset({1}))
        assert restricted.writes is pair.writes.avoiding(frozenset({1}))
        lifted = ReadWriteStrategy.lift(Strategy.uniform(system))
        assert lifted.avoiding([1]).writes is lifted.writes.avoiding({1})

    def test_least_damaged_per_path(self, pair):
        assert pair.least_damaged({3}, path="read") == frozenset({0, 1})
        assert pair.least_damaged({3}, path="write") in (
            frozenset({0, 1}),
            frozenset({0, 2}),
        )
