"""Tests for the §5 proportional line/cover distributions on grid nodes."""

import numpy as np
import pytest

from repro.systems.hgrid import (
    HierarchicalGrid,
    cover_distribution,
    cover_inclusion_probabilities,
    line_distribution,
    line_inclusion_probabilities,
)


@pytest.fixture(scope="module", params=[(2, 2), (3, 2), (3, 3), (4, 4)])
def grid(request):
    return HierarchicalGrid.halving(*request.param)


class TestDistributions:
    def test_line_distribution_is_probability(self, grid):
        dist = line_distribution(grid._root)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(p > 0 for p in dist.values())

    def test_cover_distribution_is_probability(self, grid):
        dist = cover_distribution(grid._root)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_line_support_is_the_line_family(self, grid):
        dist = line_distribution(grid._root)
        assert set(dist) == set(grid.full_lines())

    def test_cover_support_is_the_cover_family(self, grid):
        dist = cover_distribution(grid._root)
        assert set(dist) == set(grid.row_covers())

    def test_inclusion_matches_distribution(self, grid):
        # The inclusion-probability recursion equals the explicit
        # distribution's marginals.
        dist = line_distribution(grid._root)
        expected = np.zeros(grid.n)
        for line, prob in dist.items():
            for element in line:
                expected[element] += prob
        out = {}
        line_inclusion_probabilities(grid._root, out)
        got = np.zeros(grid.n)
        for element, prob in out.items():
            got[element] = prob
        assert np.allclose(got, expected)

    def test_cover_inclusion_matches_distribution(self, grid):
        dist = cover_distribution(grid._root)
        expected = np.zeros(grid.n)
        for cover, prob in dist.items():
            for element in cover:
                expected[element] += prob
        out = {}
        cover_inclusion_probabilities(grid._root, out)
        got = np.zeros(grid.n)
        for element, prob in out.items():
            got[element] = prob
        assert np.allclose(got, expected)

    def test_uniform_inclusion_on_square_grids(self):
        # On square layouts the proportional rule loads every element
        # equally: 1/rows for lines, 1/cols for covers.
        grid = HierarchicalGrid.halving(4, 4)
        out = {}
        line_inclusion_probabilities(grid._root, out)
        assert np.allclose(list(out.values()), 1 / 4)
        out = {}
        cover_inclusion_probabilities(grid._root, out)
        assert np.allclose(list(out.values()), 1 / 4)
