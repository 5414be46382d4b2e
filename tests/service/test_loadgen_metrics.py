"""Tests for repro.service.loadgen + metrics: determinism and the
observed-vs-LP-load acceptance criterion."""

import json

import numpy as np
import pytest

from repro.analysis.load import optimal_strategy
from repro.cli import build_system
from repro.core.errors import ServiceError
from repro.service import (
    ServiceMetrics,
    WorkloadConfig,
    run_kv_benchmark,
)
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


class TestMetrics:
    def test_observed_loads_and_success_rate(self):
        metrics = ServiceMetrics(4)
        metrics.record_quorum_access({0, 1})
        metrics.record_quorum_access({0, 2})
        metrics.record_op("read", 5.0, ok=True, attempts=1)
        metrics.record_op("write", 9.0, ok=False, attempts=3)
        loads = metrics.observed_loads()
        assert loads == pytest.approx([1.0, 0.5, 0.5, 0.0])
        assert metrics.success_rate == 0.5
        assert metrics.retries == 2
        assert metrics.latency_percentile(50) == pytest.approx(7.0)

    def test_load_deviation_handles_zero_predictions(self):
        metrics = ServiceMetrics(3)
        metrics.record_quorum_access({0, 1})
        deviation = metrics.load_deviation([1.0, 1.0, 0.0])
        # Element 2 predicted at 0 must not blow up the relative error.
        assert deviation["max_relative_error"] == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ServiceError):
            metrics.load_deviation([1.0])

    def test_to_dict_is_json_serialisable(self):
        metrics = ServiceMetrics(2)
        metrics.record_quorum_access({0})
        metrics.record_op("read", 1.0, ok=True, attempts=1)
        snapshot = metrics.to_dict(predicted=[1.0, 0.0])
        json.dumps(snapshot)  # must not raise
        assert snapshot["load_deviation"]["observed_max_load"] == 1.0

    def test_element_counts_match_per_element_increments(self):
        # The counters are derived from per-quorum counts when read; the
        # reference increments every element of every access as it lands.
        rng = np.random.default_rng(5)
        n = 9
        metrics = ServiceMetrics(n)
        reference = np.zeros(n, dtype=np.int64)
        per_path = {"read": np.zeros(n, dtype=np.int64),
                    "write": np.zeros(n, dtype=np.int64)}
        for step in range(500):
            members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            quorum = frozenset(int(e) for e in members)
            path = (None, "read", "write")[step % 3]
            metrics.record_quorum_access(quorum, path)
            for element in quorum:
                reference[element] += 1
                if path is not None:
                    per_path[path][element] += 1
        assert metrics.element_accesses.dtype == np.int64
        assert metrics.element_accesses.tolist() == reference.tolist()
        for path in ("read", "write"):
            assert metrics.path_element_accesses[path].tolist() == per_path[path].tolist()
            assert metrics.observed_path_loads(path).tolist() == (
                per_path[path] / metrics.path_quorum_accesses[path]
            ).tolist()
        assert metrics.observed_loads().tolist() == (reference / 500).tolist()

    def test_degradation_counters(self):
        metrics = ServiceMetrics(3)
        metrics.record_degraded_read()
        metrics.record_hint()
        metrics.record_hint()
        metrics.record_hint_replayed()
        metrics.record_breaker_open()
        snapshot = metrics.to_dict()
        assert snapshot["degraded_reads"] == 1
        assert snapshot["hints_recorded"] == 2
        assert snapshot["hints_replayed"] == 1
        assert snapshot["breaker_opens"] == 1


class TestWorkloadShape:
    def test_config_validation(self):
        with pytest.raises(ServiceError):
            WorkloadConfig(ops=-1).validate()
        with pytest.raises(ServiceError):
            WorkloadConfig(read_fraction=1.5).validate()
        with pytest.raises(ServiceError):
            WorkloadConfig(clients=0).validate()
        with pytest.raises(ServiceError):
            run_kv_benchmark(MajorityQuorumSystem.of_size(3), bogus_option=1)


class TestBenchmark:
    def test_seeded_runs_are_bit_identical(self):
        reports = [
            run_kv_benchmark(
                HierarchicalTriangle.of_size(15), seed=0, ops=300, crash_rate=0.1
            )
            for _ in range(2)
        ]
        first, second = (json.dumps(r.to_dict(), sort_keys=True) for r in reports)
        assert first == second

    def test_different_seeds_differ(self):
        a = run_kv_benchmark(MajorityQuorumSystem.of_size(5), seed=0, ops=200)
        b = run_kv_benchmark(MajorityQuorumSystem.of_size(5), seed=1, ops=200)
        assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_htriang_observed_load_within_15pct_of_lp(self):
        # The acceptance criterion: `quorumtool kvbench h-triang:15
        # --ops 1000 --seed 0` reports per-element observed load within
        # 15% of the LP-optimal load from analysis/load.py.
        system = HierarchicalTriangle.of_size(15)
        report = run_kv_benchmark(system, seed=0, ops=1000)
        deviation = report.load_deviation()
        assert deviation["max_relative_error"] < 0.15
        assert report.lp_load == pytest.approx(system.load())
        assert report.metrics.success_rate == 1.0

    def test_majority_vs_htriang_load_advantage(self):
        # The paper's punchline served end-to-end: the busiest element of
        # majority:15 carries ~0.53 of the traffic, h-triang:15 only ~1/3.
        majority = run_kv_benchmark(MajorityQuorumSystem.of_size(15), seed=0, ops=400)
        htriang = run_kv_benchmark(HierarchicalTriangle.of_size(15), seed=0, ops=400)
        assert majority.observed_loads.max() > htriang.observed_loads.max() + 0.1

    @pytest.mark.parametrize("hedge_spares", [0, 1])
    @pytest.mark.parametrize("spec", ["majority:5", "htriang:15"])
    def test_fault_free_runs_drop_no_op(self, spec, hedge_spares):
        report = run_kv_benchmark(
            build_system(spec), seed=42, ops=300, clients=8, hedge_spares=hedge_spares
        )
        assert report.metrics.ops_attempted == 300
        assert report.metrics.ops_failed == 0

    def test_crash_rate_run_stays_available_and_recovers(self):
        system = HierarchicalTriangle.of_size(15)
        report = run_kv_benchmark(
            system, seed=0, ops=400, crash_rate=0.1, ops_per_epoch=40
        )
        metrics = report.metrics
        # F_0.1(h-triang:15) ~ 7e-4: with retries across epochs, nearly
        # every op completes, and the failure paths actually ran.
        assert metrics.success_rate > 0.97
        assert metrics.unavailable > 0
        assert metrics.ops_attempted == 400
