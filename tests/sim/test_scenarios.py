"""Tests for the canned experiment scenarios."""

import pytest

from repro.sim import (
    measure_availability,
    measure_strategy_load,
    mutex_cluster,
    replicated_cluster,
)
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


class TestClusters:
    def test_replicated_cluster_shape(self):
        system = HierarchicalTriangle(4)
        cluster = replicated_cluster(system, seed=1)
        assert len(cluster.replicas) == system.n
        results = []
        cluster.client.read_write(
            list(system.minimal_quorums())[:1], lambda v: 5, on_done=results.append
        )
        cluster.sim.run()
        assert results[0].ok and results[0].value == 5

    def test_mutex_cluster_shape(self):
        system = MajorityQuorumSystem.of_size(5)
        cluster = mutex_cluster(system, seed=2)
        done = []
        cluster.nodes[0].request_cs(
            system.minimal_quorums()[0], lambda: done.append(True)
        )
        cluster.sim.run()
        assert done == [True]
        assert cluster.monitor.capacity == 1


class TestMeasurements:
    def test_availability_probe_converges(self):
        system = MajorityQuorumSystem.of_size(5)
        probe = measure_availability(system, p=0.3, epochs=20_000, seed=3)
        exact = system.failure_probability(0.3)
        assert abs(probe.failure_rate - exact) <= probe.confidence_half_width() + 0.01

    def test_strategy_load_converges(self):
        system = HierarchicalTriangle(4)
        strategy = system.balanced_strategy()
        meter = measure_strategy_load(strategy, operations=20_000, seed=4)
        assert meter.max_load == pytest.approx(strategy.induced_load(), abs=0.01)
