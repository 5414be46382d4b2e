"""The coordinator's concern objects as pure state machines, no transport.

``ReplicaHealth`` and ``HintQueue`` are driven call by call, with the
operation count passed as ``now``.  ``MaskingVote.resolve`` is checked
over one quorum's replies with at most ``b`` liars of any
``BYZANTINE_MODES`` shape: the contract ``audit_lie_detection`` checks
at chaos scale, here on the rule alone.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.byzantine import masking_majority
from repro.core import Strategy
from repro.core.errors import ServiceError
from repro.core.rwstrategy import ReadWriteStrategy
from repro.runtime.faults import BYZANTINE_MODES
from repro.service import NULL_TIMESTAMP, ServiceMetrics
from repro.service.concerns import HintQueue, MaskingVote, ReplicaHealth
from repro.service.ops import ReadReply, Repair, Write


def health(ttl=5, threshold=2, cooldown=10):
    return ReplicaHealth(ttl, threshold, cooldown, ServiceMetrics(8))


class TestReplicaHealth:
    def test_breaker_opens_at_the_threshold_and_counts_once_while_open(self):
        h = health()
        h.failed(3, now=1)
        assert h.blocked(1) == {3}  # suspected, breaker still closed
        assert h.metrics.breaker_opens == 0 and h.open_until == {}
        h.failed(3, now=2)
        assert h.metrics.breaker_opens == 1 and h.open_until == {3: 12}
        h.failed(3, now=3)  # fails while open: extends, not counted again
        assert h.metrics.breaker_opens == 1 and h.open_until == {3: 13}
        # Suspicion (ttl 5) has decayed; the open breaker still blocks.
        assert h.blocked(9) == {3} and h.suspected == {}
        assert h.blocked(13) == frozenset()  # half-open

    def test_failure_after_the_cooldown_reopens_and_counts_again(self):
        h = health()
        h.failed(3, now=1)
        h.failed(3, now=2)
        assert h.blocked(12) == frozenset()
        h.failed(3, now=12)
        assert h.metrics.breaker_opens == 2 and h.open_until == {3: 22}
        assert 3 in h.blocked(20)

    def test_success_closes_and_forgive_clears_everything(self):
        h = health()
        h.failed(3, now=1)
        h.failed(3, now=2)
        h.succeeded([3])
        assert h.blocked(2) == frozenset()
        assert (h.suspected, h.fails, h.open_until) == ({}, {}, {})
        h.failed(3, now=3)
        h.failed(3, now=4)
        h.lied([4, 4], now=4)  # one mark per detection
        assert h.blocked(4) == {3, 4}
        assert h.metrics.lies_detected == 2 and h.metrics.breaker_opens == 3
        h.forgive()
        assert h.blocked(4) == frozenset()
        assert (h.suspected, h.fails, h.open_until) == ({}, {}, {})
        # Liar marks and the suspicion history outlive forgiveness.
        assert h.lied_replicas == {4} and h.suspicion_history == {3, 4}

    def test_threshold_zero_never_blocks_a_replica(self):
        h = health(ttl=1, threshold=0)
        for now in range(1, 101):
            h.failed(3, now)
        assert h.blocked(100) == {3}  # suspicion alone, for one op
        assert h.blocked(101) == frozenset()
        assert h.metrics.breaker_opens == 0 and h.open_until == {}

    def test_nothing_suspected_and_no_breaker_open_blocks_no_one(self):
        h = health()
        for now in (0, 1, 10**6):
            blocked = h.blocked(now)
            assert type(blocked) is frozenset and blocked == frozenset()
            assert h.suspected == {} and h.open_until == {}
        h.failed(3, now=1)
        h.succeeded([3])  # back to nothing suspected, no breaker
        assert h.blocked(2) == frozenset() and (h.suspected, h.open_until) == ({}, {})

    @pytest.mark.parametrize("threshold, cooldown", [(-1, 10), (2, 0)])
    def test_bad_breaker_settings_are_rejected(self, threshold, cooldown):
        with pytest.raises(ServiceError, match="breaker_"):
            health(threshold=threshold, cooldown=cooldown)


def write(key, counter, writer=0):
    value = f"{key}@{counter}.{writer}"
    return Write(key, value, (counter, writer))


class TestHintQueue:
    def test_only_the_newest_version_per_key_is_kept(self):
        hints = HintQueue(8, ServiceMetrics(4))
        hints.record(1, write("k", 1))
        hints.record(1, write("k", 3))
        hints.record(1, write("k", 2))  # older than the queued hint
        hints.record(1, write("k", 3))  # the same version again
        assert hints.pending == {1: {"k": Repair("k", "k@3.0", (3, 0))}}
        assert hints.metrics.hints_recorded == 2

    def test_capacity_counts_key_hints_over_all_replicas(self):
        hints = HintQueue(2, ServiceMetrics(4))
        hints.record(1, write("a", 1))
        hints.record(2, write("b", 1))
        hints.record(1, write("c", 1))  # full: dropped
        hints.record(3, write("d", 1))  # full: dropped, no entry for 3
        hints.record(1, write("a", 2))  # a newer version of a queued key
        assert hints.pending == {
            1: {"a": Repair("a", "a@2.0", (2, 0))},
            2: {"b": Repair("b", "b@1.0", (1, 0))},
        }
        assert hints.metrics.hints_recorded == 3

    def test_capacity_zero_records_nothing(self):
        hints = HintQueue(0, ServiceMetrics(4))
        hints.record(1, write("k", 1))
        assert hints.pending == {}
        assert hints.metrics.hints_recorded == 0


# -- MaskingVote.resolve ------------------------------------------------

def masking(b):
    """Masking majority over 4b+1 replicas, and its first quorum."""
    system = masking_majority(4 * b + 1, b)
    strategy = ReadWriteStrategy.lift(Strategy.uniform(system))
    return strategy, sorted(system.minimal_quorums()[0])


MASKING = {b: masking(b) for b in (1, 2)}


# Written versions: a timestamp fixes the value, as a write does.
VERSIONS = [NULL_TIMESTAMP] + [(c, w) for c in range(1, 5) for w in range(2)]


def honest_value(ts):
    return None if ts == NULL_TIMESTAMP else f"v{ts[0]}.{ts[1]}"


def lie(mode, key, ts, site):
    """A liar's read reply, shaped as ``FaultyTransport._fabricate`` does."""
    if mode == "stale_timestamp":
        return NULL_TIMESTAMP, None
    value = f"zzz-byz:{key}:{ts[0]}:{ts[1]}"
    return ts, (f"{value}:s{site}" if mode == "equivocate" else value)


@st.composite
def quorum_reads(draw):
    b = draw(st.sampled_from(sorted(MASKING)))
    strategy, members = MASKING[b]
    rule = MaskingVote(b, strategy, ServiceMetrics(strategy.system.n))
    liars = draw(st.sets(st.sampled_from(members), max_size=b))
    key = "k"
    payloads, held = {}, {}
    version = st.integers(0, len(VERSIONS) - 1)
    for rid in members:
        ts = VERSIONS[draw(version)]
        if rid in liars:
            mode = draw(st.sampled_from(BYZANTINE_MODES))
            ts, value = lie(mode, key, ts, draw(st.integers(0, 2)))
            # A liar may have fake-acked anything.
            floor = draw(st.none() | st.sampled_from(VERSIONS))
        else:
            value = honest_value(ts)
            held[rid] = ts
            # An honest replica acked nothing newer than it holds.
            acked = [v for v in VERSIONS if v <= ts]
            floor = draw(st.none() | st.sampled_from(acked))
        if floor is not None:
            rule.note_ack(key, [rid], floor)
        payloads[rid] = ReadReply(rid, value, ts)
    return rule, payloads, liars, held


@given(quorum_reads())
def test_masking_vote_accepts_only_honest_versions_and_frames_no_one(case):
    rule, payloads, liars, held = case
    accepted, caught = rule.resolve(payloads, "k")
    assert set(caught) <= liars
    honest = {(*ts, honest_value(ts)) for ts in held.values()}
    held_by = list(held.values())
    backed = [ts for ts in set(held_by) if held_by.count(ts) >= rule.b + 1]
    if accepted is None:
        assert not backed
        return
    version = (*accepted.ts, accepted.value)
    assert version in honest
    if backed:
        assert version[:2] >= max(backed)
