"""boost() as the route from the paper's crash-model constructions to a
Byzantine-tolerant serving deployment: the boosted hierarchical systems
must reach the requested masking threshold AND pass the coordinator's
startup validation (satellite of the masking-read serving path)."""

import pytest

from repro.analysis.byzantine import (
    boost,
    masking_threshold,
    validate_masking,
)
from repro.core.errors import AnalysisError, ServiceError
from repro.service import Coordinator, SimTransport, make_replicas
from repro.systems import HierarchicalGrid, HierarchicalTriangle


def startup(system, b):
    replicas = make_replicas(system)
    transport = SimTransport(replicas, seed=0)
    return Coordinator(system, transport, seed=0, byzantine_b=b)


class TestBoostedThresholds:
    @pytest.mark.parametrize("b", [1, 2])
    def test_boosted_triangle_reaches_requested_b(self, b):
        base = HierarchicalTriangle.of_size(6)
        assert masking_threshold(base) < b
        boosted = boost(base, b)
        assert masking_threshold(boosted) >= b
        assert validate_masking(boosted, b) >= b
        assert boosted.n == base.n * (2 * b + 1)

    def test_boosted_grid_reaches_requested_b(self):
        base = HierarchicalGrid.halving(4, 4)
        assert masking_threshold(base) < 1
        boosted = boost(base, 1)
        assert masking_threshold(boosted) >= 1
        assert validate_masking(boosted, 1) >= 1

    def test_validate_masking_names_the_fix(self):
        base = HierarchicalTriangle.of_size(6)
        with pytest.raises(AnalysisError) as info:
            validate_masking(base, 1)
        assert "boost(system, 1)" in str(info.value)

    def test_validate_masking_rejects_negative_b(self):
        with pytest.raises(AnalysisError):
            validate_masking(HierarchicalTriangle.of_size(6), -1)


class TestServingStartup:
    def test_boosted_triangle_passes_coordinator_validation(self):
        boosted = boost(HierarchicalTriangle.of_size(6), 1)
        coordinator = startup(boosted, 1)
        assert coordinator.read_rule.b == 1

    def test_boosted_grid_passes_coordinator_validation(self):
        boosted = boost(HierarchicalGrid.halving(4, 4), 1)
        startup(boosted, 1)  # must not raise

    def test_base_systems_are_rejected_at_startup(self):
        for base in (
            HierarchicalTriangle.of_size(6),
            HierarchicalGrid.halving(4, 4),
        ):
            with pytest.raises(ServiceError) as info:
                startup(base, 1)
            assert "boost" in str(info.value)
