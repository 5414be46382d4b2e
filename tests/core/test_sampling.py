"""Tests for repro.core.sampling: the O(1) alias-method sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import StrategyError
from repro.core.sampling import AliasTable


class TestConstruction:
    def test_unnormalised_weights_accepted(self):
        table = AliasTable([2.0, 6.0])
        np.testing.assert_allclose(table.probabilities(), [0.25, 0.75])

    def test_probabilities_roundtrip(self):
        rng = np.random.default_rng(3)
        weights = rng.random(97)
        table = AliasTable(weights)
        np.testing.assert_allclose(
            table.probabilities(), weights / weights.sum(), atol=1e-12
        )

    def test_degenerate_single_outcome(self):
        table = AliasTable([5.0])
        rng = np.random.default_rng(0)
        assert all(table.sample(rng) == 0 for _ in range(10))

    def test_zero_weight_entries_never_drawn(self):
        table = AliasTable([0.0, 1.0, 0.0])
        rng = np.random.default_rng(1)
        draws = table.sample_many(rng, 1000)
        assert set(draws.tolist()) == {1}

    def test_subnormal_total_never_draws_a_zero_weight(self):
        # size / total overflows to inf for a subnormal total; the table
        # normalises first, so 0 * inf never turns into a NaN share.
        table = AliasTable([0.0, 5e-324, 5e-324])
        draws = table.sample_many(np.random.default_rng(0), 3000)
        assert 0 not in draws.tolist()
        assert all(table.sample(np.random.default_rng(seed)) != 0 for seed in range(200))
        np.testing.assert_allclose(table.probabilities(), [0.0, 0.5, 0.5])

    def test_bad_weights_rejected(self):
        for bad in ([], [-1.0, 2.0], [0.0, 0.0], [np.inf, 1.0], [np.nan]):
            with pytest.raises(StrategyError):
                AliasTable(bad)
        with pytest.raises(StrategyError):
            AliasTable(np.ones((2, 2)))


class TestSampling:
    def test_empirical_distribution_matches_weights(self):
        weights = [0.5, 0.3, 0.15, 0.05]
        table = AliasTable(weights)
        rng = np.random.default_rng(42)
        draws = table.sample_many(rng, 200_000)
        observed = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(observed, weights, atol=0.01)

    def test_single_draws_match_weights(self):
        table = AliasTable([0.2, 0.8])
        rng = np.random.default_rng(7)
        draws = [table.sample(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.8, abs=0.02)

    def test_deterministic_under_seed(self):
        table = AliasTable([0.1, 0.2, 0.7])
        a = [table.sample(np.random.default_rng(5)) for _ in range(1)]
        first = table.sample_many(np.random.default_rng(9), 50)
        second = table.sample_many(np.random.default_rng(9), 50)
        np.testing.assert_array_equal(first, second)
        assert a == [AliasTable([0.1, 0.2, 0.7]).sample(np.random.default_rng(5))]

    def test_one_uniform_per_draw(self):
        # The draw stream consumes exactly one rng.random() per sample, so
        # single draws and a vectorised draw agree under the same seed.
        table = AliasTable([0.4, 0.35, 0.25])
        singles = [table.sample(np.random.default_rng(11)) for _ in range(1)]
        batch = table.sample_many(np.random.default_rng(11), 1)
        assert singles[0] == int(batch[0])

    def test_samples_drawn_counter(self):
        table = AliasTable([1.0, 1.0])
        rng = np.random.default_rng(0)
        table.sample(rng)
        table.sample_many(rng, 9)
        assert table.samples_drawn == 10
        assert "drawn=10" in repr(table)

    def test_negative_count_rejected(self):
        with pytest.raises(StrategyError):
            AliasTable([1.0]).sample_many(np.random.default_rng(0), -1)


def vose_over_arrays(weights):
    """Reference: Vose's loop over numpy arrays, one element at a time."""
    scaled = np.asarray(weights, dtype=float).copy()
    size = scaled.size
    scale = size / float(scaled.sum())
    if not np.isfinite(scale):
        scaled /= float(scaled.sum())
        scale = size / float(scaled.sum())
    scaled *= scale
    prob = np.ones(size, dtype=float)
    alias = np.arange(size, dtype=np.intp)
    small = [i for i in range(size) if scaled[i] < 1.0]
    large = [i for i in range(size) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    return prob, alias


class TestMatchesArrayReference:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.floats(0.0, 10.0, allow_nan=False)
            | st.sampled_from([0.0, 1e-12, 1.0 / 3, 5e-324]),
            min_size=1,
            max_size=70,
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_and_draws_are_bit_identical(self, weights, seed):
        table = AliasTable(weights)
        prob, alias = vose_over_arrays(weights)
        assert table._prob == prob.tolist()
        assert table._alias == alias.tolist()
        # Single draws index the list table; they must agree with the
        # same draws read off the reference arrays.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            u = float(theirs.random()) * len(weights)
            slot = min(int(u), len(weights) - 1)
            expected = slot if (u - slot) < prob[slot] else int(alias[slot])
            assert table.sample(ours) == expected
        # Single draws never build the array copies.
        assert table._as_arrays is None
        np.testing.assert_array_equal(table.sample_many(ours, 0), [])
        assert table._as_arrays[0].tolist() == prob.tolist()
        assert table._as_arrays[1].tolist() == alias.tolist()
