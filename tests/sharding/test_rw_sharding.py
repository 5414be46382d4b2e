"""Read/write strategy pairs across shard maps and reshard operations.

Satellite property: the 2-intersection invariant (every read quorum
meets every write quorum) must hold on *every* shard's system after any
sequence of map operations — uniform construction, mid-range splits,
ring-adjacent merges, and §5 in-place growth — because each new shard
solves its own capacity LP and serves reads from its own read family.
"""

from repro.analysis.capacity import read_quorums_of, read_write_capacity
from repro.runtime import RngStreams, VirtualClock
from repro.sharding import ShardMap, build_sim_backend_factory
from repro.sharding.bench import run_sharded_benchmark
from repro.systems import (
    GridQuorumSystem,
    HierarchicalGrid,
    HierarchicalTriangle,
    MajorityQuorumSystem,
)


def assert_read_write_intersection(system):
    writes = list(system.minimal_quorums())
    for read_quorum in read_quorums_of(system):
        for write_quorum in writes:
            assert read_quorum & write_quorum, (
                f"{system.system_name}: read {sorted(read_quorum)} misses"
                f" write {sorted(write_quorum)}"
            )


def assert_map_invariant(shard_map):
    for shard_id in shard_map.shard_ids:
        assert_read_write_intersection(shard_map.shard(shard_id).system)


class TestShardMapInvariant:
    def test_uniform_map(self):
        shard_map = ShardMap.uniform(
            [GridQuorumSystem(4, 4), HierarchicalGrid.halving(4, 4)]
        )
        assert_map_invariant(shard_map)

    def test_split_then_merge_keeps_the_invariant(self):
        shard_map = ShardMap.uniform(
            [GridQuorumSystem(4, 4), MajorityQuorumSystem.of_size(5)]
        )
        shard_map = shard_map.split(
            "s0",
            HierarchicalGrid.halving(4, 4),
            GridQuorumSystem(3, 3),
        )
        assert_map_invariant(shard_map)
        shard_map = shard_map.merge(
            "s0.0", "s0.1", HierarchicalTriangle.of_size(15)
        )
        assert_map_invariant(shard_map)

    def test_section5_growth_keeps_the_invariant(self):
        # §5 growth is only defined on flat sub-grids.
        base = HierarchicalTriangle.of_size(15, subgrid="flat")
        shard_map = ShardMap.uniform([base, GridQuorumSystem(3, 3)])
        for construction in ("t1", "t2", "grid"):
            grown_map = shard_map.replace(
                "s0", shard_map.shard("s0").system.grown(construction)
            )
            assert_map_invariant(grown_map)

    def test_every_shard_lp_pair_is_constructible(self):
        # The LP output pair re-verifies 2-intersection at construction,
        # so a successful solve per shard doubles as a safety proof.
        shard_map = ShardMap.uniform(
            [GridQuorumSystem(4, 4), MajorityQuorumSystem.of_size(5)]
        ).split("s0", HierarchicalGrid.halving(4, 4), GridQuorumSystem(3, 3))
        for shard_id in shard_map.shard_ids:
            system = shard_map.shard(shard_id).system
            pair = read_write_capacity(system, read_fraction=0.9).strategy
            assert pair.system is system


class TestReadWriteBackendFactory:
    def test_factory_builds_split_coordinators(self):
        clock = VirtualClock()
        streams = RngStreams(7)
        factory = build_sim_backend_factory(clock, streams, read_write=0.9)
        shard_map = ShardMap.uniform(
            [GridQuorumSystem(4, 4), MajorityQuorumSystem.of_size(5)]
        )
        grid_backend = factory(shard_map.shard("s0"))
        majority_backend = factory(shard_map.shard("s1"))
        assert grid_backend.coordinator.rw_strategy.is_split
        # Majority is self-dual: the LP lands on one distribution but
        # the coordinator still routes through the pair API.
        assert majority_backend.coordinator.rw_strategy is not None

    def test_unified_factory_stays_unsplit(self):
        clock = VirtualClock()
        streams = RngStreams(7)
        factory = build_sim_backend_factory(clock, streams)
        shard = ShardMap.uniform([GridQuorumSystem(4, 4)]).shard("s0")
        backend = factory(shard)
        assert not backend.coordinator.rw_strategy.is_split


class TestShardedReadWriteBenchmark:
    def test_read_write_run_is_deterministic_and_clean(self):
        kwargs = dict(
            seed=11,
            ops=240,
            keys=64,
            clients=6,
            read_write=True,
            read_fraction=0.9,
        )
        systems = [GridQuorumSystem(4, 4), GridQuorumSystem(4, 4)]
        first = run_sharded_benchmark(list(systems), **kwargs)
        second = run_sharded_benchmark(list(systems), **kwargs)
        assert first.to_dict() == second.to_dict()
        assert first.read_write
        assert first.failed == 0
        assert first.to_dict()["read_write"] is True

    def test_split_outpaces_unified_on_read_heavy_shards(self):
        systems = [GridQuorumSystem(4, 4), GridQuorumSystem(4, 4)]
        common = dict(seed=3, ops=300, keys=64, clients=8, read_fraction=0.9)
        split = run_sharded_benchmark(list(systems), read_write=True, **common)
        unified = run_sharded_benchmark(
            list(systems), read_write=False, **common
        )
        assert split.failed == 0 and unified.failed == 0
        assert (
            split.ops_per_virtual_second > unified.ops_per_virtual_second
        )
