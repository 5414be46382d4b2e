"""CLI coverage for the serving layer: kvbench and serve."""

import json

import pytest

from repro.cli import main


class TestKvbench:
    def test_kvbench_reports_loads(self, capsys):
        main(["kvbench", "h-triang:15", "--ops", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert "observed" in out and "predicted" in out
        assert "success rate" in out
        assert "deviation" in out

    def test_kvbench_is_deterministic(self, capsys):
        main(["kvbench", "majority:5", "--ops", "150", "--seed", "7", "--json"])
        first = capsys.readouterr().out
        main(["kvbench", "majority:5", "--ops", "150", "--seed", "7", "--json"])
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["ops"]["attempted"] == 150
        assert snapshot["seed"] == 7

    def test_kvbench_with_crash_rate(self, capsys):
        main([
            "kvbench", "h-triang:15", "--ops", "200", "--seed", "0",
            "--crash-rate", "0.1", "--json",
        ])
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["ops"]["success_rate"] > 0.9
        assert snapshot["config"]["crash_rate"] == 0.1

    def test_bad_system_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["kvbench", "not-a-system:3"])


class TestChaos:
    def test_chaos_reports_and_exits_cleanly(self, capsys):
        main([
            "chaos", "--system", "majority:5", "--seed", "3",
            "--ops", "120", "--keys", "4",
        ])
        out = capsys.readouterr().out
        assert "all held" in out
        assert "measured=" in out and "exact=" in out
        assert "fault rules" in out

    def test_chaos_json_is_deterministic(self, capsys):
        argv = [
            "chaos", "--system", "majority:5", "--seed", "9",
            "--ops", "120", "--keys", "4", "--json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["seed"] == 9
        assert snapshot["invariants"]["ok"] is True
        assert snapshot["invariants"]["violations"] == []
        assert 0.0 <= snapshot["availability"]["measured"] <= 1.0

    def test_unsafe_partial_writes_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([
                "chaos", "--system", "majority:5", "--seed", "7",
                "--ops", "200", "--unsafe-partial-writes",
            ])
        assert info.value.code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_chaos_hierarchical_acceptance_run(self, capsys):
        # The issue's acceptance invocation, scaled down in ops.
        main([
            "chaos", "--system", "htriang:15", "--seed", "7", "--ops", "120",
        ])
        out = capsys.readouterr().out
        assert "all held" in out

    def test_bad_chaos_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--system", "not-a-system:3"])

    def test_chaos_runs_in_virtual_time_by_default(self, capsys):
        argv = [
            "chaos", "--system", "majority:5", "--seed", "4",
            "--ops", "80", "--keys", "4", "--json",
        ]
        main(argv)
        default = json.loads(capsys.readouterr().out)
        main(argv + ["--sim"])
        sim = json.loads(capsys.readouterr().out)
        assert default["mode"] == sim["mode"] == "sim"
        assert default["hashes"]["trace"] == sim["hashes"]["trace"]

    def test_sim_and_wall_together_rejected(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["chaos", "--system", "majority:5", "--sim", "--wall"])


class TestByzantineChaosCli:
    CLEAN = [
        "chaos", "--system", "masking:5x1", "--byzantine", "1", "--liars", "1",
        "--sim", "--ops", "120", "--keys", "4", "--crash-rate", "0.05",
    ]

    def test_masking_spec_builds(self, capsys):
        main(["info", "masking:5x1"])
        out = capsys.readouterr().out
        assert "masking-majority(n=5,b=1)" in out

    def test_within_budget_run_reports_and_exits_cleanly(self, capsys):
        main(self.CLEAN)
        out = capsys.readouterr().out
        assert "all held" in out
        assert "byzantine" in out
        assert "lies detected=" in out

    def test_over_budget_liars_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(self.CLEAN[:6] + ["2"] + self.CLEAN[7:])
        assert info.value.code == 1
        out = capsys.readouterr().out
        assert "byzantine-fabricated-read" in out

    def test_thin_system_is_rejected_with_boost_hint(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([
                "chaos", "--system", "htriang:6", "--byzantine", "1",
                "--liars", "1", "--sim", "--ops", "40",
            ])
        assert "boost" in str(info.value)

    def test_boost_flag_thickens_thin_systems(self, capsys):
        main([
            "chaos", "--system", "htriang:6", "--byzantine", "1",
            "--liars", "1", "--boost", "--sim", "--ops", "60",
            "--keys", "4", "--crash-rate", "0.05",
        ])
        out = capsys.readouterr().out
        assert "boosted" in out
        assert "all held" in out

    def test_lease_ttl_surfaces_in_report(self, capsys):
        main(self.CLEAN + ["--lease-ttl", "10"])
        out = capsys.readouterr().out
        assert "leases" in out
        assert "renewals=" in out

    def test_sweep_scorecard_counts_violations_per_invariant(
        self, capsys, tmp_path
    ):
        import json as json_module

        out_path = tmp_path / "byz.json"
        with pytest.raises(SystemExit):
            main(
                self.CLEAN[:6] + ["2"] + self.CLEAN[7:]
                + ["--seeds", "2", "--json-out", str(out_path)]
            )
        payload = json_module.loads(out_path.read_text())
        assert payload["all_ok"] is False
        counts = payload["violations_by_invariant"]
        assert counts["byzantine-fabricated-read"] > 0
        for run in payload["runs"]:
            assert "violation_counts" in run["invariants"]


class TestServe:
    def test_serve_binds_and_exits_after_duration(self, capsys):
        main([
            "serve", "majority:3", "--base-port", "0", "--duration", "0.05",
        ])
        out = capsys.readouterr().out
        assert "serving majority" in out
        assert out.count("replica") == 3
        assert "127.0.0.1:" in out
