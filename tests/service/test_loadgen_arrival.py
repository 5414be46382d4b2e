"""Tests for the open-loop Poisson arrival model in the load generator."""

import pytest

from repro.analysis.load import optimal_strategy
from repro.cli import build_system
from repro.core.errors import ServiceError
from repro.runtime.clock import VirtualClock, run_virtual
from repro.runtime.rng import RngStreams
from repro.scenarios import digest
from repro.service import (
    ServiceMetrics,
    SimTransport,
    WorkloadConfig,
    make_replicas,
    run_kv_benchmark,
    run_workload,
)
from repro.systems import MajorityQuorumSystem


def _run_sim_workload(config, *, seed=0):
    """Drive ``run_workload`` over a SimTransport under virtual time."""
    system = MajorityQuorumSystem.of_size(5)
    strategy = optimal_strategy(system)
    clock = VirtualClock()
    transport = SimTransport(
        make_replicas(system),
        clock=clock,
        seed=RngStreams(seed).seed_for("loadgen.transport"),
        base_latency=0.1,
        mean_latency=0.3,
    )

    async def _run() -> ServiceMetrics:
        try:
            return await run_workload(
                system, transport, strategy, config, seed=seed
            )
        finally:
            await transport.close()

    return run_virtual(_run(), clock=clock)


class TestConfigValidation:
    def test_rejects_unknown_arrival_model(self):
        with pytest.raises(ServiceError):
            WorkloadConfig(arrival="burst").validate()

    def test_poisson_needs_a_positive_rate(self):
        with pytest.raises(ServiceError):
            WorkloadConfig(arrival="poisson").validate()
        with pytest.raises(ServiceError):
            WorkloadConfig(arrival="poisson", arrival_rate=-1.0).validate()
        WorkloadConfig(arrival="poisson", arrival_rate=200.0).validate()

    def test_closed_loop_ignores_the_rate(self):
        WorkloadConfig(arrival="closed", arrival_rate=0.0).validate()


class TestOpenLoop:
    def test_sustains_the_configured_rate_under_virtual_time(self):
        # The acceptance check: under virtual time the generator spawns
        # every operation exactly on its Poisson arrival tick (zero
        # lag), so achieved throughput matches the configured rate up
        # to the sampling noise of the draws themselves.
        config = WorkloadConfig(
            ops=400, clients=4, arrival="poisson", arrival_rate=800.0
        )
        metrics = _run_sim_workload(config)
        assert metrics.ops_succeeded == 400
        arrival = metrics.arrival
        assert arrival["mode"] == "poisson"
        assert arrival["rate_ops_per_s"] == 800.0
        assert arrival["max_spawn_lag_ms"] < 1e-6
        assert arrival["achieved_ops_per_s"] == pytest.approx(800.0, rel=0.1)

    def test_seeded_open_loop_is_deterministic(self):
        config = WorkloadConfig(
            ops=200, clients=2, arrival="poisson", arrival_rate=500.0
        )
        first = _run_sim_workload(config, seed=7)
        second = _run_sim_workload(config, seed=7)
        assert first.arrival == second.arrival
        assert first.to_dict() == second.to_dict()

    def test_closed_loop_records_no_arrival_block(self):
        config = WorkloadConfig(ops=100, clients=2)
        metrics = _run_sim_workload(config)
        assert not hasattr(metrics, "arrival")

    def test_arrival_stream_does_not_shift_closed_loop_draws(self):
        # The Poisson draws live on their own named stream: a closed
        # loop with the same seed is byte-identical whether or not the
        # open-loop feature exists in the codebase.
        config = WorkloadConfig(ops=150, clients=2)
        a = _run_sim_workload(config, seed=3)
        b = _run_sim_workload(config, seed=3)
        assert a.to_dict() == b.to_dict()


class TestScorecardEcho:
    def test_kvbench_report_echoes_arrival_and_invariants(self):
        report = run_kv_benchmark(
            MajorityQuorumSystem.of_size(5), seed=0, ops=100
        )
        snapshot = report.to_dict()
        assert snapshot["config"]["arrival"] == "closed"
        assert snapshot["config"]["arrival_rate"] == 0.0
        block = snapshot["invariants"]
        assert set(block) == {"checked", "ok", "violations", "violation_counts"}
        assert block["ok"] is True


class TestKvbenchOpenLoop:
    def test_open_loop_kvbench_runs_in_memory(self):
        # kvbench's own substrate is clocked, so the open loop needs no
        # caller-supplied transport.
        def run():
            return run_kv_benchmark(
                build_system("majority:5"),
                seed=5,
                ops=200,
                arrival="poisson",
                arrival_rate=500.0,
            )

        first, second = run(), run()
        assert first.metrics.ops_attempted == 200
        assert first.metrics.virtual_elapsed_ms > 0
        assert first.metrics.arrival["achieved_ops_per_s"] == pytest.approx(
            500.0, rel=0.2
        )
        assert digest(first.to_dict()) == digest(second.to_dict())
