"""Tests for the named SRE incident library and the scenario runner."""

import json

import pytest

from repro.cli import build_system, main
from repro.scenarios import (
    INCIDENTS,
    Scenario,
    digest,
    get_incident,
    list_incidents,
    run_scenario,
)
from repro.core.errors import ServiceError

EXPECTED_NAMES = {
    "incident-010-split-brain",
    "incident-011-replica-lag-read-repair-storm",
    "incident-012-hot-key-zipf",
    "incident-015-cache-avalanche",
    "net-104-lb-oscillation",
    "obs-103-slo-burn",
}


class TestLibrary:
    def test_ships_the_advertised_incidents(self):
        assert set(INCIDENTS) == EXPECTED_NAMES
        for name, scenario in INCIDENTS.items():
            assert isinstance(scenario, Scenario)
            assert scenario.name == name
            assert scenario.summary

    def test_get_incident_rejects_unknown_names(self):
        assert get_incident("obs-103-slo-burn") is INCIDENTS["obs-103-slo-burn"]
        with pytest.raises(ServiceError, match="unknown incident"):
            get_incident("incident-999-nope")

    def test_list_incidents_rows_are_sorted_and_complete(self):
        rows = list_incidents()
        assert [row["name"] for row in rows] == sorted(EXPECTED_NAMES)
        for row in rows:
            assert set(row) >= {"name", "summary", "system", "slo"}


class TestScorecards:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_every_incident_runs_clean_in_sim(self, name):
        scenario = get_incident(name)
        report, card = run_scenario(scenario, seed=0, mode="sim")
        assert report.ok, report.violations
        # Versioned header plus the full report snapshot.
        assert card["scorecard_version"] == 1
        assert card["scenario"] == name
        assert card["expect_violations"] is False
        assert card["seed"] == 0
        assert card["config"]["ops"] == scenario.config.ops
        block = card["invariants"]
        assert set(block) == {"checked", "ok", "violations", "violation_counts"}
        assert block["ok"] is True and block["violation_counts"] == {}
        # Every incident scores against its SLO.
        assert set(card["slo"]) >= {"targets", "observed", "error_budget", "met"}
        json.dumps(card)  # fully serialisable

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_bit_reproducible_per_seed(self, name):
        scenario = get_incident(name)
        _, first = run_scenario(scenario, seed=3, mode="sim")
        _, second = run_scenario(scenario, seed=3, mode="sim")
        assert digest(first) == digest(second)
        _, other = run_scenario(scenario, seed=4, mode="sim")
        assert digest(first) != digest(other)

    def test_system_override_sweeps_families(self):
        scenario = get_incident("incident-010-split-brain")
        names = set()
        for spec in ("majority:5", "hgrid:4x4", "htriang:15"):
            report, card = run_scenario(
                scenario, seed=1, mode="sim", system_spec=spec
            )
            assert report.ok, (spec, report.violations)
            assert card["n"] == build_system(spec).universe.size
            names.add(card["system"])
        assert len(names) == 3  # each family is identified in the card

    def test_ops_override_rescales_the_fault_window(self):
        scenario = get_incident("incident-010-split-brain")
        report, card = run_scenario(scenario, seed=0, mode="sim", ops=80)
        assert report.ok, report.violations
        assert card["config"]["ops"] == 80
        # The partition window is a fraction of the run, not absolute.
        assert report.schedule.to_dict()["by_kind"].get("partition", 0) > 0


class TestSimWallParity:
    def test_incident_sim_and_wall_hashes_agree(self):
        # The migrated engine keeps the seed-parity contract: one
        # incident replayed under wall time produces the same trace
        # hashes as the virtual-time run (ops reduced to keep the wall
        # run fast; the split-brain window scales with ops).
        scenario = get_incident("incident-010-split-brain")
        sim_report, sim_card = run_scenario(
            scenario, seed=0, mode="sim", ops=80
        )
        wall_report, wall_card = run_scenario(
            scenario, seed=0, mode="wall", ops=80
        )
        assert sim_report.hashes == wall_report.hashes
        assert sim_card["hashes"] == wall_card["hashes"]
        assert sim_card["invariants"] == wall_card["invariants"]


class TestOpenLoopArrival:
    def test_obs_103_sustains_the_configured_rate_under_virtual_time(self):
        # Acceptance: open-loop Poisson arrival demonstrably keeps up
        # with its configured rate under the virtual clock — zero spawn
        # lag (modulo float noise) and achieved throughput within a few
        # percent of the 500 ops/s target.
        scenario = get_incident("obs-103-slo-burn")
        assert scenario.config.arrival == "poisson"
        report, card = run_scenario(scenario, seed=0, mode="sim")
        arrival = card["arrival"]
        assert arrival["mode"] == "poisson"
        assert arrival["rate_ops_per_s"] == 500.0
        assert arrival["max_spawn_lag_ms"] < 1e-6
        assert arrival["achieved_ops_per_s"] == pytest.approx(500.0, rel=0.05)

    def test_cache_avalanche_reports_the_cache_tier(self):
        report, card = run_scenario(
            get_incident("incident-015-cache-avalanche"), seed=0, mode="sim"
        )
        cache = card["cache"]
        assert cache["ttl_ms"] == 150.0 and cache["swr_ms"] == 50.0
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0


class TestIncidentCli:
    def test_incident_list_json(self, capsys):
        main(["incident", "list", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} == EXPECTED_NAMES

    def test_incident_run_emits_the_scorecard(self, capsys):
        main([
            "incident", "run", "incident-010-split-brain",
            "--seed", "2", "--ops", "80", "--json",
        ])
        card = json.loads(capsys.readouterr().out)
        assert card["scenario"] == "incident-010-split-brain"
        assert card["scorecard_version"] == 1
        assert card["invariants"]["ok"] is True

    def test_incident_run_multi_seed_rollup(self, capsys):
        main([
            "incident", "run", "incident-010-split-brain",
            "--seeds", "2", "--ops", "80", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert payload["violations_total"] == 0
        assert [run["seed"] for run in payload["runs"]] == [0, 1]

    def test_incident_run_unknown_name_fails(self):
        with pytest.raises(SystemExit):
            main(["incident", "run", "incident-999-nope"])

    def test_incident_run_sim_and_wall_together_rejected(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["incident", "run", "incident-010-split-brain", "--sim", "--wall"])
