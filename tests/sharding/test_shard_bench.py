"""Sharded virtual-time benchmark: determinism and the scaling claim."""

from repro.cli import build_system
from repro.sharding import compare_shard_scaling, run_sharded_benchmark

WORKLOAD = dict(ops=300, keys=64, skew=0.9, clients=8, service_time_ms=2.0)


def bench(shards, seed=0):
    systems = [build_system("majority:3") for _ in range(shards)]
    return run_sharded_benchmark(
        systems, specs=["majority:3"] * shards, seed=seed, **WORKLOAD
    )


class TestBenchmark:
    def test_all_ops_succeed_fault_free(self):
        report = bench(2)
        assert report.succeeded == WORKLOAD["ops"]
        assert report.failed == 0

    def test_deterministic_per_seed(self):
        first, second = bench(2, seed=7), bench(2, seed=7)
        assert first.virtual_ms == second.virtual_ms
        assert first.key_skew == second.key_skew
        assert first.map_digest == second.map_digest

    def test_reports_key_skew(self):
        report = bench(2)
        skew = report.key_skew
        assert skew["total"] >= WORKLOAD["ops"]
        assert skew["hottest_share"] > 1.0 / WORKLOAD["keys"]
        assert len(skew["top_k"]) == 10

    def test_scorecard_echoes_seed_config_and_invariants(self):
        # Every quorumtool scorecard carries the same audit keys: the
        # seed, the full workload config, and an invariants block with
        # violation_counts (empty here — nothing is audited).
        snapshot = bench(2, seed=5).to_dict()
        assert snapshot["seed"] == 5
        config = snapshot["config"]
        assert config["ops"] == WORKLOAD["ops"]
        assert config["specs"] == ["majority:3", "majority:3"]
        block = snapshot["invariants"]
        assert set(block) == {"checked", "ok", "violations", "violation_counts"}
        assert block["ok"] is True and block["violation_counts"] == {}

    def test_sharding_scales_throughput(self):
        # The acceptance headline, at test scale: more shards, more
        # capacity, strictly less virtual time for the same workload.
        comparison = compare_shard_scaling(
            build_system,
            spec="majority:3",
            shard_counts=(1, 4),
            seed=0,
            **WORKLOAD,
        )
        assert comparison["speedup"] > 1.5
        one = comparison["runs"]["1"]
        four = comparison["runs"]["4"]
        assert one["succeeded"] == four["succeeded"] == WORKLOAD["ops"]
        assert four["virtual_ms"] < one["virtual_ms"]
        # At serving scale: eight majority:5 shards at least double the
        # throughput of one on a skewed 512-key workload.
        comparison = compare_shard_scaling(
            build_system,
            spec="majority:5",
            shard_counts=(1, 8),
            seed=42,
            ops=300,
            keys=512,
            skew=0.9,
            clients=16,
        )
        assert comparison["speedup"] >= 2.0
        assert all(run["failed"] == 0 for run in comparison["runs"].values())
