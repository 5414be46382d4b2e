"""Tests for the shared safety-invariant registry."""

from types import SimpleNamespace

from repro.scenarios import (
    BYZANTINE_INVARIANTS,
    CORE_INVARIANTS,
    INVARIANTS,
    audit_durability,
    audit_lie_detection,
    audit_lie_suspicion,
    audit_monotone,
    check_fabricated_read,
    check_fresh_read,
    check_issued_value,
    check_version_integrity,
)
from repro.scenarios.scorecard import invariants_block, violation_counts
from repro.service.replica import NULL_TIMESTAMP


class TestRegistry:
    def test_every_named_invariant_has_a_contract(self):
        for name in CORE_INVARIANTS + BYZANTINE_INVARIANTS:
            assert name in INVARIANTS
            assert INVARIANTS[name]

    def test_families_are_disjoint(self):
        assert not set(CORE_INVARIANTS) & set(BYZANTINE_INVARIANTS)


class TestReadTimeChecks:
    def test_fabricated_read_flags_registered_lies(self):
        violations = []
        check_fabricated_read(
            violations,
            op=3,
            client=1,
            key="k000",
            value="lie",
            timestamp=(4, 0),
            fabricated={"lie"},
        )
        assert [v["invariant"] for v in violations] == [
            "byzantine-fabricated-read"
        ]
        check_fabricated_read(
            violations,
            op=4,
            client=1,
            key="k000",
            value="honest",
            timestamp=(5, 0),
            fabricated={"lie"},
        )
        assert len(violations) == 1

    def test_version_integrity_exact_form(self):
        issued = {("k0", 3, 1): "v3"}
        violations = []
        # Known version with its issued value: clean.
        check_version_integrity(
            violations,
            op=0,
            client=0,
            key="k0",
            value="v3",
            timestamp=(3, 1),
            issued_values=issued,
        )
        assert violations == []
        # Null timestamp (never-written key) passes.
        check_version_integrity(
            violations,
            op=1,
            client=0,
            key="k0",
            value=None,
            timestamp=NULL_TIMESTAMP,
            issued_values=issued,
        )
        assert violations == []
        # Never-issued version and corrupted value both flag.
        check_version_integrity(
            violations,
            op=2,
            client=0,
            key="k0",
            value="x",
            timestamp=(9, 9),
            issued_values=issued,
        )
        check_version_integrity(
            violations,
            op=3,
            client=0,
            key="k0",
            value="corrupt",
            timestamp=(3, 1),
            issued_values=issued,
        )
        assert [v["invariant"] for v in violations] == ["version-integrity"] * 2
        assert "never-issued" in violations[0]["detail"]
        assert "issued as" in violations[1]["detail"]

    def test_issued_value_set_form(self):
        violations = []
        check_issued_value(
            violations, op=0, key="k0", value="v1", timestamp=(1, 0),
            issued={"v1", "v2"},
        )
        check_issued_value(
            violations, op=1, key="k0", value=None, timestamp=(0, -1),
            issued=set(),
        )
        assert violations == []
        check_issued_value(
            violations, op=2, key="k0", value="rogue", timestamp=(1, 0),
            issued={"v1"},
        )
        assert [v["invariant"] for v in violations] == ["version-integrity"]

    def test_fresh_read_staleness_contract(self):
        violations = []
        # Unflagged read older than the acknowledged max: violation.
        check_fresh_read(
            violations, op=0, key="k0", timestamp=(1, 0), stale=False,
            expected=(2, 0), client=1,
        )
        assert [v["invariant"] for v in violations] == [
            "no-stale-unflagged-read"
        ]
        assert violations[0]["client"] == 1
        # Flagged stale is exempt; no expectation is trivially fresh;
        # at-least-as-new passes.
        before = len(violations)
        check_fresh_read(
            violations, op=1, key="k0", timestamp=(1, 0), stale=True,
            expected=(2, 0),
        )
        check_fresh_read(
            violations, op=2, key="k0", timestamp=(1, 0), stale=False,
            expected=None,
        )
        check_fresh_read(
            violations, op=3, key="k0", timestamp=(2, 0), stale=False,
            expected=(2, 0),
        )
        assert len(violations) == before

    def test_fresh_read_client_key_optional(self):
        violations = []
        check_fresh_read(
            violations, op=0, key="k0", timestamp=(1, 0), stale=False,
            expected=(2, 0),
        )
        assert "client" not in violations[0]


def _replica(versions):
    """A minimal replica double: key -> (timestamp, value) or None."""

    def get(key):
        hit = versions.get(key)
        if hit is None:
            return None
        return SimpleNamespace(timestamp=hit[0], value=hit[1])

    return SimpleNamespace(get=get)


def client(lied, suspected, coordinator_id):
    """A coordinator as the lie audits see it: its replica health."""
    health = SimpleNamespace(lied_replicas=lied, suspicion_history=suspected)
    return SimpleNamespace(health=health, coordinator_id=coordinator_id)


class TestAudits:
    def test_durability_newest_surviving_version_wins(self):
        violations = []
        replicas = [
            _replica({"k0": ((2, 0), "v2")}),
            _replica({"k0": ((3, 1), "v3")}),
            _replica({}),
        ]
        audit_durability(
            violations, key="k0", expected=(3, 1), acked_value="v3",
            replicas=replicas,
        )
        assert violations == []

    def test_durability_lost_write_flags(self):
        violations = []
        audit_durability(
            violations, key="k0", expected=(3, 1), acked_value="v3",
            replicas=[_replica({"k0": ((2, 0), "v2")})],
        )
        assert [v["invariant"] for v in violations] == ["acked-write-durable"]

    def test_durability_corrupted_value_flags(self):
        violations = []
        audit_durability(
            violations, key="k0", expected=(3, 1), acked_value="v3",
            replicas=[_replica({"k0": ((3, 1), "corrupt")})],
        )
        assert "acknowledged as" in violations[0]["detail"]

    def test_monotone_forward_journal_is_clean(self):
        violations = []
        audit_monotone(
            violations,
            {"k0": [(1, 0), (2, 0), (2, 1)]},
            replica=4,
        )
        assert violations == []

    def test_monotone_regression_flags_with_optional_shard(self):
        violations = []
        audit_monotone(
            violations,
            {"k0": [(2, 0), (1, 0)]},
            replica=4,
            shard="s1",
        )
        assert violations[0]["invariant"] == "replica-ts-monotone"
        assert violations[0]["shard"] == "s1"
        violations2 = []
        audit_monotone(violations2, {"k0": [(2, 0), (2, 0)]}, replica=4)
        assert "shard" not in violations2[0]

    def test_lie_detection_sound_within_budget(self):
        coordinator = client(lied={3, 7}, suspected={3, 7}, coordinator_id=0)
        violations = []
        audit_lie_detection(
            violations, coordinators=[coordinator], liars=[3], budget=1
        )
        assert [v["invariant"] for v in violations] == ["lie-detection-sound"]
        # Over budget, soundness is not guaranteed: the audit is skipped.
        violations2 = []
        audit_lie_detection(
            violations2, coordinators=[coordinator], liars=[3, 7], budget=1
        )
        assert violations2 == []

    def test_lie_suspicion_reflected(self):
        caught = client(lied={3}, suspected={3}, coordinator_id=0)
        missed = client(lied={5}, suspected=set(), coordinator_id=1)
        violations = []
        audit_lie_suspicion(violations, coordinators=[caught, missed])
        assert [v["invariant"] for v in violations] == [
            "lie-suspicion-reflected"
        ]
        assert violations[0]["client"] == 1


class TestScorecardHelpers:
    def test_violation_counts_histogram(self):
        violations = [
            {"invariant": "a"},
            {"invariant": "b"},
            {"invariant": "a"},
            {},
        ]
        assert violation_counts(violations) == {"a": 2, "b": 1, "unknown": 1}

    def test_invariants_block_shape(self):
        block = invariants_block(CORE_INVARIANTS, [])
        assert set(block) == {"checked", "ok", "violations", "violation_counts"}
        assert block["ok"] is True
        bad = invariants_block(CORE_INVARIANTS, [{"invariant": "x"}])
        assert bad["ok"] is False
        assert bad["violation_counts"] == {"x": 1}
