"""Tests for the split read/write serving path.

The routing fixture pins both distributions to one support set each —
reads always contact ``{0, 3}``, writes always ``{0, 1}`` — so the
per-path access counters are exact, not statistical.
"""

import pytest

from repro.analysis.byzantine import masking_majority
from repro.analysis.capacity import read_write_capacity
from repro.cli import build_system
from repro.core import ExplicitQuorumSystem, ReadWriteStrategy, Strategy, Universe
from repro.core.errors import ServiceError
from repro.runtime import run_virtual
from repro.service import (
    Coordinator,
    Replica,
    SimTransport,
    run_capacity_benchmark,
    run_kv_benchmark,
)
from repro.scenarios.engine import ChaosConfig, run_chaos
from repro.systems import GridQuorumSystem, HierarchicalGrid, MajorityQuorumSystem


def pinned_pair():
    system = ExplicitQuorumSystem(
        Universe.of_size(4), [{0, 1}, {0, 2}], name="pinned4"
    )
    pair = ReadWriteStrategy.from_quorums(
        system, [{0, 3}], [1.0], [{0, 1}], [1.0]
    )
    return system, pair


def build(pair=None, **kwargs):
    system, strategy = pinned_pair()
    if pair is not None:
        system, strategy = pair
    replicas = [Replica(i) for i in range(system.n)]
    transport = SimTransport(replicas, seed=0)
    coordinator = Coordinator(system, transport, strategy, seed=0, **kwargs)
    return replicas, transport, coordinator


class TestSplitRouting:
    def test_reads_use_the_read_family_writes_the_write_family(self):
        replicas, transport, coordinator = build(read_repair=False)

        async def scenario():
            await coordinator.write("k", "v")
            result = await coordinator.read("k")
            # Replica 3 never saw the write; replica 0 (the
            # intersection) supplies the newest version.
            assert result.value == "v"
            assert result.stale is False
            await coordinator.drain()

        run_virtual(scenario(), clock=transport.clock)
        # Write touched {0, 1}; read touched {0, 3}.
        assert replicas[0].writes_applied == 1
        assert replicas[1].writes_applied == 1
        assert replicas[2].writes_applied == 0
        assert replicas[3].writes_applied == 0
        metrics = coordinator.metrics
        assert metrics.path_quorum_accesses == {"read": 1, "write": 1}
        assert list(metrics.path_element_accesses["read"]) == [1, 0, 0, 1]
        assert list(metrics.path_element_accesses["write"]) == [1, 1, 0, 0]

    def test_read_repair_rides_the_write_path(self):
        replicas, transport, coordinator = build(read_repair=True)

        async def scenario():
            await coordinator.write("k", "v")
            await coordinator.read("k")
            await coordinator.drain()

        run_virtual(scenario(), clock=transport.clock)
        # The stale read member (replica 3) was repaired via a write
        # quorum, so the value is now durable on the write support too.
        assert coordinator.metrics.read_repairs >= 1

    def test_unsplit_strategy_still_attributes_paths(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = [Replica(i) for i in range(3)]
        transport = SimTransport(replicas, seed=0)
        coordinator = Coordinator(
            system, transport, Strategy.uniform(system), seed=0
        )

        async def scenario():
            await coordinator.write("k", "v")
            await coordinator.read("k")

        run_virtual(scenario(), clock=transport.clock)
        metrics = coordinator.metrics
        # The logical op kind is recorded even though both paths share
        # one distribution.
        assert metrics.path_quorum_accesses == {"read": 1, "write": 1}

    def test_metrics_snapshot_reports_per_path_loads(self):
        _, transport, coordinator = build(read_repair=False)

        async def scenario():
            await coordinator.write("k", "v")
            await coordinator.read("k")

        run_virtual(scenario(), clock=transport.clock)
        snapshot = coordinator.metrics.to_dict()
        assert set(snapshot["path_loads"]) == {"read", "write"}
        read_loads = snapshot["path_loads"]["read"]["observed_loads"]
        assert read_loads[3] == pytest.approx(1.0)
        assert read_loads[1] == pytest.approx(0.0)


class TestByzantineValidation:
    def test_shallow_split_pair_is_rejected_for_voted_reads(self):
        system = masking_majority(5, 1)
        # Default LP: dual reads intersect writes in only one element —
        # not enough for 2b+1 = 3 voting.
        shallow = read_write_capacity(system, read_fraction=0.9).strategy
        assert shallow.min_read_write_intersection() < 3
        replicas = [Replica(i) for i in range(system.n)]
        transport = SimTransport(replicas, seed=0)
        with pytest.raises(ServiceError, match="too shallow"):
            Coordinator(
                system, transport, shallow, seed=0, byzantine_b=1
            )

    def test_min_intersection_pair_is_accepted(self):
        system = masking_majority(5, 1)
        deep = read_write_capacity(
            system, read_fraction=0.9, min_intersection=3
        ).strategy
        replicas = [Replica(i) for i in range(system.n)]
        transport = SimTransport(replicas, seed=0)
        coordinator = Coordinator(
            system, transport, deep, seed=0, byzantine_b=1
        )
        assert coordinator.rw_strategy.min_read_write_intersection() >= 3


class TestReadWriteBenchmarks:
    def test_kv_benchmark_read_write_report(self):
        report = run_kv_benchmark(
            GridQuorumSystem(3, 3), read_write=True, ops=120, clients=2
        )
        assert report.read_write
        assert report.predicted_capacity == pytest.approx(1.0 / report.lp_load)
        snapshot = report.to_dict()
        assert snapshot["read_write"] is True
        assert snapshot["predicted_capacity"] == pytest.approx(
            report.predicted_capacity
        )
        assert snapshot["ops"]["failed"] == 0

    def test_capacity_benchmark_is_seed_deterministic(self):
        system = GridQuorumSystem(3, 3)
        runs = [
            run_capacity_benchmark(system, seed=5, ops=150) for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0]["virtual_elapsed_ms"] > 0

    def test_split_beats_unified_on_read_heavy_grid(self):
        # The read/write capacity matrix: every family served once by
        # the split strategy pair and once by the unified optimum, at
        # three read fractions.  Virtual time, so it is deterministic.
        speedups = {}
        for spec in ("grid:4x4", "hgrid:4x4", "htgrid:4x4", "htriang:15"):
            system = build_system(spec)
            for fraction in (0.5, 0.9, 0.99):
                split, unified = (
                    run_capacity_benchmark(
                        system,
                        read_write=read_write,
                        read_fraction=fraction,
                        seed=42,
                        ops=400,
                    )
                    for read_write in (True, False)
                )
                assert split["ops_failed"] == 0 and unified["ops_failed"] == 0
                # Observed throughput tracks the LP prediction.
                for run in (split, unified):
                    assert run["observed_over_predicted"] == pytest.approx(
                        1.0, abs=0.25
                    ), (spec, fraction)
                speedups[spec, fraction] = (
                    split["observed_ops_per_sec"] / unified["observed_ops_per_sec"]
                )
        # At 90%+ reads the split path is >= 1.3x unified on at least two
        # families.  (h-triang is self-dual: its read quorums are no
        # smaller than its write quorums, so it stays near 1.0x.)
        families = {
            spec
            for (spec, fraction), speedup in speedups.items()
            if fraction >= 0.9 and speedup >= 1.3
        }
        assert len(families) >= 2, speedups


class TestReadWriteChaos:
    def test_invariants_hold_over_the_split_path_under_crashes(self):
        report = run_chaos(
            HierarchicalGrid.halving(4, 4),
            seed=2,
            config=ChaosConfig(ops=200, read_write=True),
        )
        assert report.ok, report.violations

    def test_masking_voted_reads_stay_clean_with_split_serving(self):
        report = run_chaos(
            masking_majority(5, 1),
            seed=4,
            config=ChaosConfig(
                ops=150,
                read_write=True,
                byzantine_b=1,
                byzantine_liars=1,
                crash_rate=0.05,
            ),
        )
        assert report.ok, report.violations
        assert report.config.read_write

    def test_read_write_runs_are_seed_deterministic(self):
        system = GridQuorumSystem(3, 3)
        runs = [
            run_chaos(
                system,
                seed=9,
                config=ChaosConfig(ops=120, read_write=True),
                mode="sim",
            ).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
