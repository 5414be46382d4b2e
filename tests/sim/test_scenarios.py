"""Tests for the canned experiment scenarios."""

import pytest

from repro.analysis import failure_probability_montecarlo
from repro.cli import build_system
from repro.sim import measure_strategy_load
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


class TestMeasurements:
    def test_availability_probe_converges(self):
        system = MajorityQuorumSystem.of_size(5)
        estimate = failure_probability_montecarlo(system, 0.3, samples=20_001, seed=3)
        exact = system.failure_probability(0.3)
        assert abs(estimate.value - exact) <= estimate.half_width + 0.01

    @pytest.mark.parametrize(
        "spec, failures",
        [("majority:5", 2030), ("h-triang:15", 824), ("hgrid:4x4", 2815)],
    )
    def test_availability_counts_are_pinned(self, spec, failures):
        # Seed 7 at p = 0.25 over 20,001 configurations: the iid crash
        # draws and the live-quorum count of each are fixed for good.
        estimate = failure_probability_montecarlo(
            build_system(spec), 0.25, samples=20_001, seed=7
        )
        assert (estimate.samples, estimate.failures) == (20_001, failures)

    @pytest.mark.parametrize("p, failures", [(0.0, 0), (1.0, 1001)])
    def test_availability_at_the_extreme_crash_rates(self, p, failures):
        estimate = failure_probability_montecarlo(
            build_system("h-triang:15"), p, samples=1001, seed=3
        )
        assert (estimate.samples, estimate.failures) == (1001, failures)

    def test_strategy_load_converges(self):
        system = HierarchicalTriangle(4)
        strategy = system.balanced_strategy()
        meter = measure_strategy_load(strategy, operations=20_000, seed=4)
        assert meter.max_load == pytest.approx(strategy.induced_load(), abs=0.01)
