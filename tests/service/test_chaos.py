"""Tests for the chaos engine (repro.scenarios.engine): invariants, reproducibility, reports."""

import json

import pytest

from repro.core.errors import ServiceError
from repro.runtime.driver import op_plan
from repro.runtime.faults import CrashFault, FaultSchedule, PartitionFault, Window
from repro.service import ChaosConfig, ChaosReport, run_chaos
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem

import numpy as np


def small_config(**overrides):
    base = dict(ops=120, keys=4, clients=2, crash_rate=0.2, epoch=20)
    base.update(overrides)
    return ChaosConfig(**base)


class TestSafeRuns:
    def test_majority_run_holds_every_invariant(self):
        report = run_chaos(
            MajorityQuorumSystem.of_size(5), seed=3, config=small_config()
        )
        assert report.ok
        assert report.violations == []
        ops = report.operations
        assert ops["preloads"] == 4
        total = (
            ops["reads_ok"]
            + ops["reads_degraded"]
            + ops["reads_failed"]
            + ops["writes_ok"]
            + ops["writes_failed"]
        )
        assert total == 120
        assert ops["writes_ok"] > 0 and ops["reads_ok"] > 0
        # Faults were actually injected, not a fair-weather pass.
        assert sum(report.injected.values()) > 0

    def test_hierarchical_run_reports_availability_comparison(self):
        report = run_chaos(
            HierarchicalTriangle.of_size(15), seed=7, config=small_config()
        )
        assert report.ok
        availability = report.availability
        assert 0.0 <= availability["measured"] <= 1.0
        assert 0.0 <= availability["exact"] <= 1.0
        assert availability["crash_rate"] == 0.2
        assert availability["abs_error"] == pytest.approx(
            abs(availability["measured"] - availability["exact"])
        )
        assert 0.0 <= availability["op_success_rate"] <= 1.0

    def test_bit_reproducible_per_seed(self):
        system = MajorityQuorumSystem.of_size(5)
        first = run_chaos(system, seed=11, config=small_config())
        second = run_chaos(system, seed=11, config=small_config())
        different = run_chaos(system, seed=12, config=small_config())
        dump = lambda report: json.dumps(report.to_dict(), sort_keys=True)
        assert dump(first) == dump(second)
        assert dump(first) != dump(different)

    def test_virtual_time_is_the_default_clock(self):
        system = MajorityQuorumSystem.of_size(5)
        default = run_chaos(system, seed=4, config=small_config())
        sim = run_chaos(system, seed=4, config=small_config(), mode="sim")
        assert default.to_dict()["mode"] == "sim"
        assert default.to_dict() == sim.to_dict()

    def test_only_the_sim_and_wall_clocks_exist(self):
        with pytest.raises(ServiceError, match="unknown chaos mode 'inprocess'"):
            run_chaos(
                MajorityQuorumSystem.of_size(5), config=small_config(), mode="inprocess"
            )


class TestUnsafeRuns:
    def test_split_brain_is_detected(self):
        report = run_chaos(
            MajorityQuorumSystem.of_size(5),
            seed=7,
            config=small_config(ops=200, unsafe_partial_writes=True),
        )
        assert not report.ok
        kinds = {violation["invariant"] for violation in report.violations}
        # Partial-quorum acks across the partition manufacture stale reads
        # (and possibly lost acknowledged writes).
        assert kinds <= {
            "no-stale-unflagged-read",
            "acked-write-durable",
            "version-integrity",
        }
        assert "no-stale-unflagged-read" in kinds
        snapshot = report.to_dict()
        assert snapshot["invariants"]["ok"] is False
        assert snapshot["invariants"]["violations"] == report.violations

    def test_unsafe_mode_needs_two_clients(self):
        with pytest.raises(ServiceError):
            run_chaos(
                MajorityQuorumSystem.of_size(3),
                config=small_config(clients=1, unsafe_partial_writes=True),
            )


class TestExplicitSchedules:
    def test_caller_schedule_overrides_randomized_faults(self):
        # A fault-free schedule: perfect availability, every op succeeds.
        report = run_chaos(
            MajorityQuorumSystem.of_size(5),
            seed=0,
            config=small_config(crash_rate=0.0),
            schedule=FaultSchedule(),
        )
        assert report.ok
        assert report.availability["measured"] == 1.0
        assert report.availability["exact"] == 1.0
        assert report.operations["reads_failed"] == 0
        assert report.operations["writes_failed"] == 0
        assert sum(report.injected.values()) == 0

    def test_permanent_minority_crash_is_survivable(self):
        # Two of five replicas down for the whole run: a majority quorum
        # always exists, so safety and liveness both hold.
        schedule = FaultSchedule([CrashFault(frozenset({0, 1}), Window(0.0))])
        report = run_chaos(
            MajorityQuorumSystem.of_size(5),
            seed=5,
            config=small_config(),
            schedule=schedule,
        )
        assert report.ok
        assert report.injected["crash"] > 0
        assert report.availability["measured"] == 1.0  # {2,3,4} is a quorum

    def test_degraded_reads_surface_in_operation_counts(self):
        # Partition away a majority for a mid-run window: no quorum can
        # complete, but the two reachable replicas still answer, so the
        # opt-in degraded path serves flagged best-effort reads.
        schedule = FaultSchedule(
            [PartitionFault(frozenset({0, 1, 2}), Window(30.0, 60.0))]
        )
        report = run_chaos(
            MajorityQuorumSystem.of_size(5),
            seed=2,
            config=small_config(timeout=20.0, max_attempts=2),
            schedule=schedule,
        )
        assert report.ok  # degraded reads are flagged, so never violations
        assert report.operations["reads_degraded"] > 0


class TestPlanAndReport:
    def test_plan_respects_read_fraction_extremes(self):
        rng = np.random.default_rng(0)
        keys = ["k000", "k001"]
        plan = op_plan(rng, keys, ops=50, read_fraction=0.0, weights=None)
        assert all(kind == "write" for kind, _ in plan)
        plan = op_plan(rng, keys, ops=50, read_fraction=1.0, weights=None)
        assert all(kind == "read" for kind, _ in plan)

    def test_plan_round_robins_clients(self):
        report = run_chaos(
            MajorityQuorumSystem.of_size(5),
            seed=0,
            config=small_config(clients=3, ops=9, crash_rate=0.0),
        )
        assert [op["op"] for op in report.trace] == list(range(9))
        assert [op["client"] for op in report.trace] == [0, 1, 2] * 3

    def test_service_exports_resolve_to_the_scenario_engine(self):
        import importlib

        import repro.service as service
        from repro.scenarios import engine

        assert ChaosConfig is engine.ChaosConfig
        assert ChaosReport is engine.ChaosReport
        assert run_chaos is engine.run_chaos
        with pytest.raises(AttributeError):
            service.no_such_export
        # The chaos engine lives in one module; there is no re-export shim.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.chaos")

    def test_report_dict_shape(self):
        report = run_chaos(
            MajorityQuorumSystem.of_size(3), seed=1, config=small_config(ops=40)
        )
        snapshot = report.to_dict()
        assert snapshot["system"] == "majority"
        assert snapshot["n"] == 3
        assert snapshot["seed"] == 1
        assert snapshot["config"]["ops"] == 40
        assert snapshot["schedule"]["rules"] == len(report.schedule)
        assert snapshot["invariants"]["checked"] == [
            "acked-write-durable",
            "no-stale-unflagged-read",
            "version-integrity",
            "replica-ts-monotone",
        ]
        assert "metrics" in snapshot
        json.dumps(snapshot)  # fully serialisable

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ChaosConfig(ops=0).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(read_fraction=1.5).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(keys=0).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(crash_rate=-0.1).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(epoch=0).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(byzantine_b=-1).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(byzantine_liars=-1).validate()
        with pytest.raises(ServiceError):
            ChaosConfig(byzantine_mode="gaslight").validate()
        with pytest.raises(ServiceError):
            ChaosConfig(lease_ttl=-1).validate()


class TestByzantineChaos:
    def masking_system(self):
        from repro.analysis.byzantine import masking_majority

        return masking_majority(5, 1)

    def byz_config(self, **overrides):
        base = dict(byzantine_b=1, byzantine_liars=1, crash_rate=0.05)
        base.update(overrides)
        return small_config(**base)

    def test_within_budget_stays_clean_and_detects_lies(self):
        for seed in (0, 1):
            report = run_chaos(
                self.masking_system(), seed=seed, config=self.byz_config(),
                mode="sim",
            )
            assert report.ok, report.violations
            assert len(report.byzantine_replicas) == 1
            assert report.metrics.lies_detected > 0
            lied = set(report.byzantine_replicas)
            # Every caught liar fed the suspicion machinery (invariant 7).
            assert report.injected["byz_wrong_value"] > 0

    def test_each_mode_stays_clean_within_budget(self):
        for mode in ("wrong_value", "stale_timestamp", "equivocate"):
            report = run_chaos(
                self.masking_system(),
                seed=2,
                config=self.byz_config(byzantine_mode=mode),
                mode="sim",
            )
            assert report.ok, (mode, report.violations)

    def test_sim_and_wall_agree_bit_for_bit(self):
        sim = run_chaos(
            self.masking_system(), seed=0, config=self.byz_config(), mode="sim"
        )
        wall = run_chaos(
            self.masking_system(), seed=0, config=self.byz_config(), mode="wall"
        )
        assert sim.hashes == wall.hashes
        assert sim.byzantine_replicas == wall.byzantine_replicas

    def test_over_budget_liars_are_detected_as_violations(self):
        report = run_chaos(
            self.masking_system(),
            seed=0,
            config=self.byz_config(byzantine_liars=2),
            mode="sim",
        )
        assert not report.ok
        assert "byzantine-fabricated-read" in report.violation_counts
        assert report.violation_counts["byzantine-fabricated-read"] > 0

    def test_report_carries_byzantine_invariants_and_counts(self):
        report = run_chaos(
            self.masking_system(), seed=1, config=self.byz_config(), mode="sim"
        )
        snapshot = report.to_dict()
        checked = snapshot["invariants"]["checked"]
        assert "byzantine-fabricated-read" in checked
        assert "lie-detection-sound" in checked
        assert "lie-suspicion-reflected" in checked
        assert snapshot["byzantine_replicas"] == report.byzantine_replicas
        assert snapshot["invariants"]["violation_counts"] == {}
        assert snapshot["metrics"]["byzantine"]["lies_detected"] > 0
        json.dumps(snapshot)  # fully serialisable

    def test_liar_draw_does_not_shift_other_streams(self):
        # The liar set comes from its own named stream: the crash/partition
        # schedule is identical with and without Byzantine faults.
        plain = run_chaos(
            self.masking_system(), seed=4,
            config=small_config(crash_rate=0.05), mode="sim",
        )
        byz = run_chaos(
            self.masking_system(), seed=4, config=self.byz_config(), mode="sim"
        )
        plain_kinds = {
            kind: count
            for kind, count in plain.schedule.to_dict()["by_kind"].items()
        }
        byz_kinds = dict(byz.schedule.to_dict()["by_kind"])
        byz_kinds.pop("byzantine")
        assert plain_kinds == byz_kinds

    def test_leases_run_under_chaos(self):
        report = run_chaos(
            self.masking_system(),
            seed=3,
            config=self.byz_config(lease_ttl=10),
            mode="sim",
        )
        assert report.ok, report.violations
        assert report.metrics.lease_renewals > 0
        snapshot = report.to_dict()
        assert snapshot["metrics"]["leases"]["renewals"] > 0

    def test_too_many_liars_rejected(self):
        with pytest.raises(ServiceError):
            run_chaos(
                self.masking_system(),
                seed=0,
                config=self.byz_config(byzantine_liars=6),
                mode="sim",
            )
