"""CLI coverage for the sharding layer: kvbench --shards and reshard."""

import json

import pytest

from repro.cli import main

QUICK_RESHARD = [
    "reshard", "--spec", "majority:3", "--shards", "3",
    "--ops", "150", "--keys", "16", "--clients", "3",
]


class TestKvbenchShards:
    def test_sharded_kvbench_reports_skew_and_throughput(self, capsys):
        main([
            "kvbench", "majority:3", "--shards", "4",
            "--ops", "200", "--keys", "64", "--seed", "1",
            "--timeout", "250",
        ])
        out = capsys.readouterr().out
        assert "4 shards" in out
        assert "ops/virtual-second" in out
        assert "key skew" in out
        assert "per-shard ops" in out

    def test_sharded_kvbench_json_is_deterministic(self, capsys):
        argv = [
            "kvbench", "majority:3", "--shards", "2",
            "--ops", "150", "--seed", "5", "--timeout", "250", "--json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["shards"] == 2
        assert snapshot["succeeded"] + snapshot["failed"] == 150
        assert snapshot["key_skew"]["total"] >= 150

    def test_shards_rejects_tcp_modes(self):
        with pytest.raises(SystemExit):
            main(["kvbench", "majority:3", "--shards", "2", "--tcp-local"])

    @pytest.mark.parametrize(
        "shape, message",
        [
            (["--read-fraction", "1.5"], "read fraction must be in [0,1]"),
            (["--skew", "-1"], "skew must be >= 0"),
        ],
    )
    def test_sharded_kvbench_rejects_bad_workload_shape(self, shape, message):
        argv = ["kvbench", "majority:5", "--shards", "2", "--ops", "50"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + shape)
        assert str(excinfo.value) == f"kvbench failed: {message}"

    def test_unsharded_kvbench_reports_key_skew(self, capsys):
        main(["kvbench", "majority:3", "--ops", "150", "--seed", "0"])
        out = capsys.readouterr().out
        assert "key skew" in out


class TestReshardCommand:
    def test_single_seed_report(self, capsys):
        main(QUICK_RESHARD + ["--seed", "0"])
        out = capsys.readouterr().out
        assert "invariants    : all held" in out
        assert "reshard" in out
        assert "trace hash" in out

    def test_sweep_exits_zero_when_all_ok(self, capsys):
        main(QUICK_RESHARD + ["--seeds", "3"])
        out = capsys.readouterr().out
        assert "across 3 seeds" in out
        assert "all held" in out

    def test_lease_ttl_runs_clean(self, capsys):
        main(QUICK_RESHARD + ["--seed", "0", "--lease-ttl", "12"])
        out = capsys.readouterr().out
        assert "invariants    : all held" in out

    def test_json_out_scorecard(self, tmp_path, capsys):
        out_path = tmp_path / "reshard.json"
        main(QUICK_RESHARD + ["--seeds", "2", "--json-out", str(out_path)])
        capsys.readouterr()
        artifact = json.loads(out_path.read_text())
        assert artifact["all_ok"] is True
        assert len(artifact["runs"]) == 2
        assert "perf" in artifact
        for run in artifact["runs"]:
            assert run["invariants"]["ok"] is True

    def test_json_is_deterministic(self, capsys):
        argv = QUICK_RESHARD + ["--seed", "2", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_mutually_exclusive_modes(self):
        with pytest.raises(SystemExit):
            main(QUICK_RESHARD + ["--sim", "--wall"])

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            main(QUICK_RESHARD + ["--seeds", "0"])

    def test_negative_skew_rejected(self):
        with pytest.raises(SystemExit, match="skew must be >= 0"):
            main(QUICK_RESHARD + ["--sim", "--skew", "-1"])

    @pytest.mark.parametrize("epoch", ["0", "-5"])
    def test_non_positive_epoch_exits_with_a_message(self, epoch):
        # 0 would divide by the epoch, and a negative epoch would leave
        # no crash epoch at all, silently dropping --crash-rate.
        with pytest.raises(SystemExit, match="epoch must be > 0") as exited:
            main(QUICK_RESHARD + ["--sim", "--epoch", epoch, "--crash-rate", "1.0"])
        assert isinstance(exited.value.code, str)  # exit status 1, no traceback
