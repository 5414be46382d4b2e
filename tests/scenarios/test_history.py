"""Tests for the recorded client history and what its replay derives."""

from repro.cli import build_system
from repro.runtime.clock import VirtualClock
from repro.scenarios import ChaosConfig, digest, run_chaos
from repro.scenarios.engine import CHAOS_COUNTS, audit_reads, trace_row
from repro.scenarios.history import History
from repro.sharding import ReshardChaosConfig, run_reshard_chaos

PRELOADER = 9  # the preloading client's id, so its stamps are (n, 9)


def preloaded(clock: VirtualClock) -> History:
    """A history whose key ``k`` holds the baseline version (1, 9)."""
    history = History(clock)
    preload = history.invoke(None, PRELOADER, "preload", "k", "p", stamp=1)
    history.settle(preload, "ok", (1, PRELOADER))
    return history


def read_violations(history: History):
    violations = []
    audit_reads(violations, history.replay(trace_row, CHAOS_COUNTS), fabricated=set())
    return violations


class TestFreshness:
    def test_expectation_is_snapshotted_at_invoke(self):
        clock = VirtualClock()
        history = preloaded(clock)
        write = history.invoke(0, 0, "write", "k", "v0-c0", stamp=2)
        overlapping = history.invoke(1, 1, "read", "k")
        clock.advance(1.0)
        history.settle(write, "ok", (2, 0), latency=1.0)
        later = history.invoke(2, 1, "read", "k")
        clock.advance(1.0)
        # Both reads miss the write and return the baseline.
        history.settle(overlapping, "ok", (1, PRELOADER), value="p", latency=2.0)
        history.settle(later, "ok", (1, PRELOADER), value="p", latency=1.0)

        violations = read_violations(history)
        assert [(v["invariant"], v["op"]) for v in violations] == [
            ("no-stale-unflagged-read", 2)
        ]
        assert "(2, 0) was acknowledged earlier" in violations[0]["detail"]

    def test_a_flagged_stale_read_is_exempt(self):
        history = preloaded(VirtualClock())
        write = history.invoke(0, 0, "write", "k", "v0-c0", stamp=2)
        history.settle(write, "ok", (2, 0))
        read = history.invoke(1, 1, "read", "k")
        history.settle(read, "degraded", (1, PRELOADER), value="p", stale=True)
        assert read_violations(history) == []


class TestVersionIntegrity:
    def test_a_failed_writes_stamp_is_a_legal_version(self):
        history = preloaded(VirtualClock())
        write = history.invoke(0, 0, "write", "k", "v0-c0", stamp=2)
        history.settle(write, "failed", latency=50.0)
        partial = history.invoke(1, 1, "read", "k")
        history.settle(partial, "ok", (2, 0), value="v0-c0")
        forged = history.invoke(2, 1, "read", "k")
        history.settle(forged, "ok", (2, 0), value="other")
        unknown = history.invoke(3, 1, "read", "k")
        history.settle(unknown, "ok", (3, 0), value="v0-c0")

        details = {v["op"]: v["detail"] for v in read_violations(history)}
        assert sorted(details) == [2, 3]
        assert "issued as 'v0-c0'" in details[2]
        assert "never-issued version (3, 0)" in details[3]

    def test_unstamped_writes_fill_the_value_set_registry(self):
        history = History(VirtualClock())
        write = history.invoke(0, 0, "write", "k", "v0-c0")
        history.settle(write, "failed")
        replay = history.replay(trace_row)
        assert replay.issued == {}
        assert replay.written == {"k": {"v0-c0"}}


class TestDerivedRecords:
    def test_preloads_are_counted_but_not_traced(self):
        history = preloaded(VirtualClock())
        read = history.invoke(0, 0, "read", "k")
        history.settle(read, "ok", (1, PRELOADER), value="p", latency=3.0)

        replay = history.replay(trace_row, CHAOS_COUNTS)
        assert replay.counts == {
            "reads_ok": 1,
            "reads_degraded": 0,
            "reads_failed": 0,
            "writes_ok": 0,
            "writes_failed": 0,
            "preloads": 1,
        }
        assert [row["op"] for row in replay.trace] == [0]
        assert replay.samples == [(0, True, 3.0)]

    def test_overlapping_ops_are_traced_in_return_order(self):
        clock = VirtualClock()
        history = preloaded(clock)
        first = history.invoke(0, 0, "write", "k", "v0-c0", stamp=2)
        second = history.invoke(1, 1, "read", "k")
        clock.advance(2.0)
        history.settle(second, "ok", (1, PRELOADER), value="p", latency=2.0)
        clock.advance(3.0)
        history.settle(first, "failed", latency=5.0)

        replay = history.replay(trace_row, CHAOS_COUNTS)
        assert [(row["op"], row["outcome"]) for row in replay.trace] == [
            (1, "ok"),
            (0, "failed"),
        ]
        assert replay.samples == [(1, True, 2.0), (0, False, 5.0)]
        records = zip(history.records, history.returns, history.times)
        assert [(op.op, returned, at) for op, returned, at in records][2:] == [
            (0, 0, 0.0),
            (1, 0, 0.0),
            (1, 1, 2.0),
            (0, 1, 5.0),
        ]

    def test_acked_maximum_is_the_newest_version_and_its_value(self):
        history = preloaded(VirtualClock())
        newer = history.invoke(0, 0, "write", "k", "new", stamp=5)
        older = history.invoke(1, 1, "write", "k", "old", stamp=3)
        history.settle(newer, "ok", (5, 0))
        history.settle(older, "ok", (3, 1))
        assert history.replay(trace_row).acked == {"k": ((5, 0), "new")}


class TestReports:
    def test_chaos_report_keeps_the_history_and_renders_its_trace(self):
        report = run_chaos(build_system("majority:5"), seed=3, config=ChaosConfig(ops=60))
        assert "trace" not in vars(report)
        assert len(report.history.records) == 2 * (60 + report.operations["preloads"])
        assert digest(report.trace) == report.hashes["trace"]

    def test_reshard_report_keeps_the_history_and_renders_its_trace(self):
        config = ReshardChaosConfig(ops=80, keys=12, clients=2, shards=2)
        report = run_reshard_chaos(seed=1, config=config)
        assert "trace" not in vars(report)
        assert digest(report.trace) == report.hashes["trace"]
