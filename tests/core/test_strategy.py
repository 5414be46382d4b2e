"""Tests for repro.core.strategy."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExplicitQuorumSystem, Strategy, StrategyError, Universe, bitpack
from repro.core import strategy as strategy_module


@pytest.fixture
def star():
    """Star system: every quorum goes through element 0."""
    return ExplicitQuorumSystem(
        Universe.of_size(4), [{0, 1}, {0, 2}, {0, 3}], name="star"
    )


class TestValidation:
    def test_weights_must_sum_to_one(self, star):
        with pytest.raises(StrategyError):
            Strategy(star, list(star.minimal_quorums()), [0.2, 0.2, 0.2])

    def test_weight_count_must_match(self, star):
        with pytest.raises(StrategyError):
            Strategy(star, list(star.minimal_quorums()), [0.5, 0.5])

    def test_negative_weights_rejected(self, star):
        with pytest.raises(StrategyError):
            Strategy(star, list(star.minimal_quorums()), [1.5, -0.25, -0.25])

    def test_empty_support_rejected(self, star):
        with pytest.raises(StrategyError):
            Strategy(star, [], [])

    def test_non_quorum_support_rejected(self, star):
        with pytest.raises(StrategyError):
            Strategy(star, [frozenset({1, 2})], [1.0])

    def test_superset_support_allowed(self, star):
        strategy = Strategy(star, [frozenset({0, 1, 2})], [1.0])
        assert strategy.induced_load() == 1.0

    def test_error_names_the_first_non_quorum(self, star):
        support = [{0, 1}, {1, 2}, {0, 3}, {2, 3}]
        with pytest.raises(StrategyError, match=r"support set \[1, 2\] is not a quorum"):
            Strategy(star, support, [0.25] * 4)


class TestLoads:
    def test_star_center_load_is_one(self, star):
        strategy = Strategy.uniform(star)
        loads = strategy.element_loads()
        assert loads[0] == pytest.approx(1.0)
        assert loads[1] == pytest.approx(1 / 3)
        assert strategy.induced_load() == pytest.approx(1.0)

    def test_average_quorum_size(self, star):
        strategy = Strategy.uniform(star)
        assert strategy.average_quorum_size() == pytest.approx(2.0)

    def test_load_imbalance(self, star):
        strategy = Strategy.uniform(star)
        # Loads: (1, 1/3, 1/3, 1/3); mean = 0.5; imbalance = 2.
        assert strategy.load_imbalance() == pytest.approx(2.0)

    def test_single_strategy(self, star):
        strategy = Strategy.single(star, {0, 1})
        loads = strategy.element_loads()
        assert loads[0] == loads[1] == 1.0
        assert loads[2] == loads[3] == 0.0

    def test_from_mapping(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy.from_mapping(
            star, {quorums[0]: 0.5, quorums[1]: 0.5}
        )
        assert strategy.average_quorum_size() == pytest.approx(2.0)


class TestSampling:
    def test_sample_respects_support(self, star):
        strategy = Strategy.uniform(star)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert strategy.sample(rng) in strategy.quorums

    def test_sample_distribution(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.8, 0.1, 0.1])
        rng = np.random.default_rng(1)
        draws = [strategy.sample(rng) for _ in range(2000)]
        frequency = draws.count(quorums[0]) / len(draws)
        assert 0.75 < frequency < 0.85

    def test_weights_are_copied(self, star):
        strategy = Strategy.uniform(star)
        weights = strategy.weights
        weights[0] = 99.0
        assert strategy.weights[0] == pytest.approx(1 / 3)

    def test_sample_sequence_deterministic_under_seed(self, star):
        # The coordinator replays benchmarks from a seed: identical seeds
        # must give identical quorum sequences, distinct seeds may not.
        strategy = Strategy.uniform(star)
        first = [strategy.sample(np.random.default_rng(7)) for _ in range(1)]
        runs = [
            [strategy.sample(rng) for _ in range(50)]
            for rng in (np.random.default_rng(42), np.random.default_rng(42))
        ]
        assert runs[0] == runs[1]
        assert first[0] in strategy.quorums

    def test_sample_index_matches_sample(self, star):
        strategy = Strategy.uniform(star)
        via_index = [
            strategy.quorums[strategy.sample_index(np.random.default_rng(3))]
            for _ in range(5)
        ]
        via_sample = [strategy.sample(np.random.default_rng(3)) for _ in range(5)]
        assert via_index == via_sample

    def test_sample_many_matches_weights_within_tolerance(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.6, 0.3, 0.1])
        draws = strategy.sample_many(np.random.default_rng(11), 5000)
        assert len(draws) == 5000
        for quorum, weight in zip(quorums, [0.6, 0.3, 0.1]):
            frequency = draws.count(quorum) / len(draws)
            assert frequency == pytest.approx(weight, abs=0.03)

    def test_sample_many_deterministic_and_validated(self, star):
        strategy = Strategy.uniform(star)
        a = strategy.sample_many(np.random.default_rng(5), 40)
        b = strategy.sample_many(np.random.default_rng(5), 40)
        assert a == b
        assert strategy.sample_many(np.random.default_rng(5), 0) == []
        with pytest.raises(StrategyError):
            strategy.sample_many(np.random.default_rng(5), -1)

    def test_ranked_quorums_by_descending_weight(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.2, 0.7, 0.1])
        ranked = strategy.ranked_quorums()
        assert ranked[0] == quorums[1]
        assert set(ranked) == set(quorums)


class TestAvoiding:
    def test_avoiding_renormalises(self, star):
        quorums = list(star.minimal_quorums())  # {0,1}, {0,2}, {0,3}
        strategy = Strategy(star, quorums, [0.5, 0.25, 0.25])
        restricted = strategy.avoiding({1})
        assert restricted is not None
        assert all(1 not in q for q in restricted.quorums)
        assert restricted.weights.sum() == pytest.approx(1.0)
        # {0,2} and {0,3} keep their 1:1 ratio after renormalisation.
        assert sorted(restricted.weights) == pytest.approx([0.5, 0.5])

    def test_avoiding_the_center_is_impossible(self, star):
        strategy = Strategy.uniform(star)
        assert strategy.avoiding({0}) is None

    def test_avoiding_nothing_keeps_support(self, star):
        strategy = Strategy.uniform(star)
        restricted = strategy.avoiding(set())
        assert restricted is not None
        assert set(restricted.quorums) == set(strategy.quorums)

    def test_avoiding_zero_weight_survivors_falls_back_to_uniform(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [1.0, 0.0, 0.0])
        restricted = strategy.avoiding({1})  # only zero-weight quorums survive
        assert restricted is not None
        assert sorted(restricted.weights) == pytest.approx([0.5, 0.5])

    def test_avoiding_the_whole_universe_is_none(self, star):
        # Down-set equals the universe: no quorum can avoid it, and the
        # coordinator's optimistic-reset path relies on getting None here
        # rather than an error.
        strategy = Strategy.uniform(star)
        assert strategy.avoiding(set(star.universe.ids)) is None

    def test_avoiding_a_superset_of_the_universe_is_none(self, star):
        strategy = Strategy.uniform(star)
        assert strategy.avoiding(set(range(100))) is None

    @pytest.mark.parametrize("down", [set(), {0}, {3, 7}, {1, 5, 14}, {2, 9}])
    def test_avoiding_equals_the_validated_public_construction(self, down):
        # The restriction skips re-validation, but its support and its
        # weights are exactly what the public constructor builds.
        from repro.analysis.load import optimal_strategy
        from repro.cli import build_system

        system = build_system("hgrid:4x4")
        strategy = optimal_strategy(system)
        restricted = strategy.avoiding(down)
        kept = [
            (q, float(w)) for q, w in zip(strategy.quorums, strategy.weights) if not q & down
        ]
        total = sum(w for _, w in kept)
        expected = Strategy(system, [q for q, _ in kept], [w / total for _, w in kept])
        assert restricted.quorums == expected.quorums
        assert np.array_equal(restricted.weights, expected.weights)
        assert restricted.avoiding(down).quorums == expected.quorums

    def test_avoiding_does_not_revalidate_the_survivors(self, star, monkeypatch):
        strategy = Strategy(star, list(star.minimal_quorums()), [0.5, 0.25, 0.25])

        def fail(quorum):
            raise AssertionError("avoiding re-validated a support quorum")

        monkeypatch.setattr(star, "contains_quorum", fail)
        assert sorted(strategy.avoiding({1}).weights) == pytest.approx([0.5, 0.5])
        assert strategy.avoiding({1, 2}).quorums == (frozenset({0, 3}),)


class TestLeastDamaged:
    def test_empty_down_set_returns_heaviest_quorum(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.2, 0.5, 0.3])
        assert strategy.least_damaged(set()) == quorums[1]

    def test_minimal_overlap_wins(self, star):
        quorums = list(star.minimal_quorums())  # {0,1}, {0,2}, {0,3}
        strategy = Strategy(star, quorums, [0.6, 0.3, 0.1])
        # {1} hits only the heaviest quorum; the best untouched one wins.
        assert strategy.least_damaged({1}) == frozenset({0, 2})

    def test_total_outage_still_returns_a_quorum(self, star):
        # Unlike avoiding(), least_damaged() never gives up — degraded
        # reads probe it even when everything looks down.
        strategy = Strategy(star, list(star.minimal_quorums()), [0.2, 0.5, 0.3])
        probe = strategy.least_damaged(set(star.universe.ids))
        assert probe == frozenset({0, 2})  # every overlap ties; weight decides

    def test_weight_breaks_overlap_ties(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.1, 0.1, 0.8])
        # {0} touches every quorum equally: the heaviest is least damaged.
        assert strategy.least_damaged({0}) == frozenset({0, 3})


class TestHotPathCaches:
    """The serving hot path must not redo O(m) work per operation."""

    def test_alias_table_built_once(self, star):
        strategy = Strategy.uniform(star)
        assert strategy.sampler_stats == {"alias_builds": 0, "samples_drawn": 0}
        rng = np.random.default_rng(0)
        for _ in range(500):
            strategy.sample_index(rng)
        stats = strategy.sampler_stats
        assert stats["alias_builds"] == 1
        assert stats["samples_drawn"] == 500

    def test_quorum_members_cached_and_sorted(self, star):
        strategy = Strategy.uniform(star)
        members = strategy.quorum_members()
        assert strategy.quorum_members() is members  # no per-call rebuild
        for quorum, resolved in zip(strategy.quorums, members):
            assert resolved == tuple(sorted(quorum))

    def test_packed_quorums_cached_and_correct(self, star):
        from repro.core import bitpack

        strategy = Strategy.uniform(star)
        packed = strategy.packed_quorums()
        assert strategy.packed_quorums() is packed
        np.testing.assert_array_equal(
            packed, bitpack.pack_rows(strategy.quorums, star.n)
        )

    def test_ranked_order_cached_and_indexes_ranked_quorums(self, star):
        quorums = list(star.minimal_quorums())
        strategy = Strategy(star, quorums, [0.2, 0.7, 0.1])
        order = strategy.ranked_order()
        assert strategy.ranked_order() is order
        assert [strategy.quorums[j] for j in order] == strategy.ranked_quorums()


class TestRestrictionMemo:
    """Strategy.avoiding memoises by blocked set, then by survivors."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        restrict = Strategy._restrict

        def counted(self, touched):
            builds.append(touched.tobytes())
            return restrict(self, touched)

        monkeypatch.setattr(Strategy, "_restrict", counted)
        return builds

    def test_repeated_blocked_set_returns_the_same_object(self, star, monkeypatch):
        builds = self.count_builds(monkeypatch)
        tests = []
        intersects = bitpack.intersects
        monkeypatch.setattr(
            bitpack, "intersects", lambda *args: tests.append(args) or intersects(*args)
        )
        strategy = Strategy.uniform(star)
        restricted = strategy.avoiding({1})
        assert strategy.avoiding(frozenset({1})) is restricted
        assert strategy.avoiding([1]) is restricted
        assert len(builds) == 1
        # A repeat is answered by the blocked-set level, without even the
        # intersection test the survivor level needs.
        assert len(tests) == 1

    def test_blocked_sets_with_the_same_survivors_share_one_restriction(self, monkeypatch):
        _, (lp, _) = _serving_strategies("hgrid:4x4")
        # A support none of whose quorums contains the last element.
        n = lp.system.n
        spare = Strategy(lp.system, lp.quorums, lp.weights).avoiding({n - 1})
        strategy = Strategy(lp.system, spare.quorums, spare.weights)
        builds = self.count_builds(monkeypatch)
        by_survivors = {}
        blocked_sets = [frozenset(pair) for pair in itertools.combinations(range(n), 2)]
        blocked_sets += [frozenset({element}) for element in range(n)]
        for blocked in blocked_sets:
            touched = bitpack.intersects(
                strategy.packed_quorums(), strategy._blocked_mask(blocked)
            ).tobytes()
            by_survivors.setdefault(touched, []).append(strategy.avoiding(blocked))
        # {a} and {a, n - 1} leave the same quorums standing.
        assert len(by_survivors) <= len(blocked_sets) - (n - 1)
        assert len(builds) == len(by_survivors)
        for restrictions in by_survivors.values():
            assert all(r is restrictions[0] for r in restrictions)
        # Out-of-universe ids block nothing: same survivors, same object.
        assert strategy.avoiding({0, n + 3, -1}) is strategy.avoiding({0})

    def test_none_is_cached(self, star, monkeypatch):
        builds = self.count_builds(monkeypatch)
        strategy = Strategy.uniform(star)
        assert strategy.avoiding({0}) is None
        assert strategy.avoiding({0}) is None
        assert strategy.avoiding({0, 1}) is None  # same (empty) survivors
        assert len(builds) == 1

    def test_memo_is_bounded(self, star, monkeypatch):
        builds = self.count_builds(monkeypatch)
        strategy = Strategy.uniform(star)
        limit = strategy_module.RESTRICTION_MEMO_LIMIT
        # Out-of-universe ids make every blocked set new.
        for extra in range(3 * limit):
            restricted = strategy.avoiding({1, 100 + extra})
            assert restricted.quorums == (frozenset({0, 2}), frozenset({0, 3}))
            assert len(strategy._avoiding_blocked) <= limit
            assert len(strategy._avoiding_survivors) <= limit
        # The blocked level is cleared at the limit twice; the survivor
        # level, holding one entry, keeps the one restriction throughout.
        assert len(builds) == 1

    def test_survivor_level_is_bounded_on_its_own(self, star, monkeypatch):
        builds = self.count_builds(monkeypatch)
        monkeypatch.setattr(strategy_module, "RESTRICTION_MEMO_LIMIT", 2)
        strategy = Strategy.uniform(star)
        # Three survivor sets: the third clears the survivor level.
        for blocked in ({1}, {2}, {3}):
            strategy.avoiding(blocked)
            assert len(strategy._avoiding_survivors) <= 2
        assert len(strategy._avoiding_survivors) == 1
        assert len(builds) == 3
        # A new blocked set with the third's survivors reuses its build.
        assert strategy.avoiding({3, 7}) is strategy.avoiding({3})
        assert len(builds) == 3

    def test_restriction_reuses_one_alias_table(self, star):
        strategy = Strategy(star, list(star.minimal_quorums()), [0.5, 0.25, 0.25])
        rng = np.random.default_rng(0)
        for blocked in ({1}, {1, 7}, {1}):
            strategy.avoiding(blocked).sample_index(rng)
        assert strategy.avoiding({1}).sampler_stats == {
            "alias_builds": 1,
            "samples_drawn": 3,
        }


@pytest.mark.parametrize("n", [4, 64, 65, 130])
def test_blocked_mask_matches_pack_one(n):
    system = ExplicitQuorumSystem(Universe.of_size(n), [set(range(n))])
    strategy = Strategy(system, list(system.minimal_quorums()), [1.0])
    rng = np.random.default_rng(n)
    for _ in range(20):
        down = set(int(e) for e in rng.choice(n, size=rng.integers(0, n + 1), replace=False))
        mask = strategy._blocked_mask(down | {-1, n, n + 70})
        assert mask.dtype == np.uint64
        assert np.array_equal(mask, bitpack.pack_one(down, n))


def _least_damaged_by_key(strategy, down):
    """Reference: the full tie-break key, evaluated per quorum."""
    from repro.core import bitpack

    damage = bitpack.intersection_sizes(
        strategy.packed_quorums(), strategy._blocked_mask(frozenset(down))
    )
    weights = strategy.weights
    best = min(
        range(len(strategy.quorums)),
        key=lambda j: (
            int(damage[j]),
            -weights[j],
            len(strategy.quorums[j]),
            sorted(strategy.quorums[j]),
        ),
    )
    return strategy.quorums[best]


def _avoiding_by_comprehension(strategy, down):
    """Reference: survivors and renormalised weights, one quorum at a time."""
    from repro.core import bitpack

    touched = bitpack.intersects(
        strategy.packed_quorums(), strategy._blocked_mask(frozenset(down))
    )
    weights = strategy.weights
    kept = [
        (strategy.quorums[j], float(weights[j]))
        for j in range(len(strategy.quorums))
        if not touched[j]
    ]
    if not kept:
        return None
    total = sum(weight for _, weight in kept)
    if total <= 1e-9:
        weights = [1.0 / len(kept)] * len(kept)
    else:
        weights = [w / total for _, w in kept]
    return Strategy(
        strategy.system, [q for q, _ in kept], weights, validate_quorums=False
    )


@functools.lru_cache(maxsize=None)
def _serving_strategies(spec):
    from repro.analysis.load import optimal_strategy
    from repro.cli import build_system

    system = build_system(spec)
    return system, (optimal_strategy(system), Strategy.uniform(system))


class TestRestrictionMatchesReference:
    """least_damaged/avoiding agree bit for bit with the per-quorum
    formulations on the serving systems, over random blocked sets."""

    @pytest.mark.parametrize("spec", ["hgrid:4x4", "htriang:15"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_least_damaged_and_avoiding(self, spec, data):
        system, strategies = _serving_strategies(spec)
        down = data.draw(st.sets(st.integers(-1, system.n), max_size=system.n))
        for strategy in strategies:
            assert strategy.least_damaged(down) == _least_damaged_by_key(strategy, down)
            restricted = strategy.avoiding(down)
            reference = _avoiding_by_comprehension(strategy, down)
            if reference is None:
                assert restricted is None
                continue
            assert restricted.quorums == reference.quorums
            assert restricted.weights.tolist() == reference.weights.tolist()
            ours, theirs = restricted._alias_table(), reference._alias_table()
            assert ours._prob == theirs._prob
            assert ours._alias == theirs._alias
