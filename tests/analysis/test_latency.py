"""Tests for latency-aware quorum selection."""

import pytest

from repro.analysis.latency import (
    fastest_quorum,
    latency_load_frontier,
    latency_optimal_strategy,
    latency_profile,
    quorum_latency,
)
from repro.core import AnalysisError
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


@pytest.fixture(scope="module")
def triangle():
    return HierarchicalTriangle(4)


@pytest.fixture(scope="module")
def rtt(triangle):
    # Element 0 very fast, increasing with id.
    return [1.0 + 0.5 * i for i in range(triangle.n)]


class TestBasics:
    def test_quorum_latency_is_max(self, rtt):
        assert quorum_latency(frozenset({0, 3, 5}), rtt) == pytest.approx(1.0 + 2.5)

    def test_empty_quorum_rejected(self, rtt):
        with pytest.raises(AnalysisError):
            quorum_latency(frozenset(), rtt)

    def test_fastest_quorum(self, triangle, rtt):
        quorum = fastest_quorum(triangle, rtt)
        profile = latency_profile(triangle, rtt)
        assert quorum_latency(quorum, rtt) == pytest.approx(profile.min())

    def test_rtt_validation(self, triangle):
        with pytest.raises(AnalysisError):
            fastest_quorum(triangle, [1.0, 2.0])
        with pytest.raises(AnalysisError):
            fastest_quorum(triangle, [-1.0] * triangle.n)


class TestOptimalStrategy:
    def test_unconstrained_uses_fastest(self, triangle, rtt):
        strategy = latency_optimal_strategy(triangle, rtt)
        best = latency_profile(triangle, rtt).min()
        expected = float(latency_profile(triangle, rtt) @ strategy.weights)
        assert expected == pytest.approx(best, abs=1e-9)

    def test_load_budget_respected(self, triangle, rtt):
        budget = 0.55
        strategy = latency_optimal_strategy(triangle, rtt, max_load=budget)
        assert strategy.induced_load() <= budget + 1e-6

    def test_tight_budget_matches_system_load(self, triangle, rtt):
        tightest = triangle.load(method="lp")
        strategy = latency_optimal_strategy(triangle, rtt, max_load=tightest + 1e-9)
        assert strategy.induced_load() <= tightest + 1e-6

    def test_infeasible_budget_rejected(self, triangle, rtt):
        with pytest.raises(AnalysisError):
            latency_optimal_strategy(triangle, rtt, max_load=0.01)

    def test_bad_budget_rejected(self, triangle, rtt):
        with pytest.raises(AnalysisError):
            latency_optimal_strategy(triangle, rtt, max_load=0.0)


class TestFrontier:
    def test_latency_decreases_as_budget_loosens(self, triangle, rtt):
        frontier = latency_load_frontier(triangle, rtt, points=6)
        latencies = [latency for _, latency in frontier]
        for before, after in zip(latencies, latencies[1:]):
            assert after <= before + 1e-9

    def test_frontier_endpoints(self, triangle, rtt):
        frontier = latency_load_frontier(triangle, rtt, points=5)
        # Loosest budget achieves the global minimum latency.
        best = latency_profile(triangle, rtt).min()
        assert frontier[-1][1] == pytest.approx(best, abs=1e-9)

    def test_points_validation(self, triangle, rtt):
        with pytest.raises(AnalysisError):
            latency_load_frontier(triangle, rtt, points=1)

    def test_uniform_rtt_frontier_flat(self):
        system = MajorityQuorumSystem.of_size(5)
        frontier = latency_load_frontier(system, [2.0] * 5, points=4)
        assert all(latency == pytest.approx(2.0) for _, latency in frontier)
