"""Resharding-under-faults chaos harness: invariants and determinism."""

import pytest

from repro.core.errors import ServiceError
from repro.sharding import ReshardChaosConfig, run_reshard_chaos

QUICK = ReshardChaosConfig(ops=150, keys=16, clients=3, shards=3, spec="majority:3")


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_violations_across_seeds(self, seed):
        report = run_reshard_chaos(seed=seed, config=QUICK)
        assert report.ok, report.violations
        # Sanity: the workload actually ran.
        assert report.operations["preloads"] == QUICK.keys
        total = sum(
            report.operations[k]
            for k in ("reads_ok", "reads_failed", "writes_ok", "writes_failed")
        )
        assert total == QUICK.ops

    def test_split_can_complete_under_faults(self):
        # Seed chosen so the split runs to a flip (locked by determinism).
        report = run_reshard_chaos(seed=0, config=QUICK)
        assert report.reshard_completed
        assert report.map_versions == (1, 2)
        assert report.ok

    def test_aborted_split_is_legal_and_safe(self):
        # A seed where faults abort the migration: old map stays, and the
        # invariants must still all hold.
        for seed in range(10):
            report = run_reshard_chaos(seed=seed, config=QUICK)
            if report.reshards and not report.reshard_completed:
                assert report.map_versions == (1, 1)
                assert report.ok, report.violations
                return
        pytest.skip("no aborting seed in range (config got too forgiving)")

    def test_leases_hold_under_reshard_churn(self):
        # Quorum leases on every per-shard coordinator: fresh backends
        # start leaseless, so the drain→copy→flip handoff exercises the
        # re-join handshake mid-run.  Safety must be unaffected.
        config = ReshardChaosConfig(
            ops=150, keys=16, clients=3, shards=3, spec="majority:3",
            lease_ttl=12,
        )
        report = run_reshard_chaos(seed=0, config=config)
        assert report.ok, report.violations
        assert report.reshard_completed
        # Leases changed the coordinator schedule, not the outcome.
        baseline = run_reshard_chaos(seed=0, config=QUICK)
        assert baseline.ok

    def test_lease_ttl_validated(self):
        with pytest.raises(ServiceError):
            ReshardChaosConfig(lease_ttl=-1).validate()

    def test_grow_mode(self):
        config = ReshardChaosConfig(
            ops=120,
            keys=12,
            clients=3,
            shards=2,
            spec="htriang:6",
            reshard="grow",
            crash_rate=0.05,
        )
        report = run_reshard_chaos(seed=1, config=config)
        assert report.ok, report.violations
        if report.reshard_completed:
            assert report.map_versions == (1, 2)

    def test_none_mode_is_a_clean_baseline(self):
        config = ReshardChaosConfig(
            ops=100, keys=12, clients=2, shards=2, spec="majority:3", reshard="none"
        )
        report = run_reshard_chaos(seed=0, config=config)
        assert report.ok
        assert report.reshards == []
        assert report.map_versions == (1, 1)


class TestDeterminism:
    def test_same_seed_same_hashes(self):
        first = run_reshard_chaos(seed=2, config=QUICK)
        second = run_reshard_chaos(seed=2, config=QUICK)
        assert first.hashes == second.hashes
        assert first.operations == second.operations
        assert first.map_digest == second.map_digest

    def test_different_seeds_diverge(self):
        a = run_reshard_chaos(seed=0, config=QUICK)
        b = run_reshard_chaos(seed=1, config=QUICK)
        assert a.hashes["trace"] != b.hashes["trace"]


class TestConfigValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ServiceError):
            ReshardChaosConfig(reshard="shuffle").validate()

    def test_bad_mode_rejected(self):
        # The same clock check as run_chaos, with the same message.
        with pytest.raises(ServiceError, match="unknown chaos mode 'hyperspeed'"):
            run_reshard_chaos(seed=0, config=QUICK, mode="hyperspeed")

    def test_reshard_at_bounds(self):
        with pytest.raises(ServiceError):
            ReshardChaosConfig(reshard_at=1.5).validate()

    def test_negative_skew_rejected(self):
        with pytest.raises(ServiceError, match="skew must be >= 0"):
            run_reshard_chaos(seed=0, config=ReshardChaosConfig(skew=-2.0))


class TestReport:
    def test_to_dict_lists_all_invariants(self):
        report = run_reshard_chaos(seed=0, config=QUICK)
        blob = report.to_dict()
        assert blob["invariants"]["checked"] == [
            "acked-write-durable",
            "no-stale-unflagged-read",
            "version-integrity",
            "replica-ts-monotone",
        ]
        assert blob["invariants"]["ok"] is True
        assert set(blob["hashes"]) == {"trace", "snapshot"}
