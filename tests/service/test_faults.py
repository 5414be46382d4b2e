"""Tests for repro.service.faults: schedules, windows, FaultyTransport."""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.runtime import run_virtual
from repro.runtime.faults import (
    NO_RULES,
    ByzantineFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultSchedule,
    FlappingFault,
    LatencyFault,
    PartitionFault,
    Window,
    split_brain_schedule,
)
from repro.service import (
    ActivationLog,
    FaultyTransport,
    Replica,
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    SimTransport,
    Transport,
)
from repro.service import faults as faults_module
from repro.service.ops import PING, PingReply, Read, ReadReply, Write
from repro.service.replica import NULL_TIMESTAMP
from repro.service.transport import Resolver


def make_faulty(schedule, n=5, *, seed=0, site=0, transport_seed=0):
    replicas = [Replica(i) for i in range(n)]
    inner = SimTransport(replicas, seed=transport_seed)
    return replicas, FaultyTransport(inner, schedule, seed=seed, site=site)


class TestWindow:
    def test_half_open_semantics(self):
        window = Window(2.0, 5.0)
        assert not window.contains(1.9)
        assert window.contains(2.0)
        assert window.contains(4.999)
        assert not window.contains(5.0)

    def test_default_end_is_forever(self):
        window = Window(3.0)
        assert window.contains(1e12)
        assert not window.contains(2.9)

    def test_inverted_window_rejected(self):
        with pytest.raises(ServiceError):
            Window(5.0, 2.0)


class TestScheduleQueries:
    def test_crash_down_at_tracks_windows(self):
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0, 1}), Window(0, 10)),
                CrashFault(frozenset({2}), Window(5, 15)),
            ]
        )
        assert schedule.crash_down_at(0) == {0, 1}
        assert schedule.crash_down_at(7) == {0, 1, 2}
        assert schedule.crash_down_at(12) == {2}
        assert schedule.crash_down_at(20) == frozenset()

    def test_flapping_phase(self):
        flap = FlappingFault(
            frozenset({3}), Window(10, 26), period=8.0, down_fraction=0.5
        )
        schedule = FaultSchedule([flap])
        # Down for the first half of each 8-tick period inside the window.
        assert schedule.crash_down_at(10) == {3}
        assert schedule.crash_down_at(13.9) == {3}
        assert schedule.crash_down_at(14) == frozenset()
        assert schedule.crash_down_at(18) == {3}  # second cycle
        assert schedule.crash_down_at(26) == frozenset()  # window over

    def test_partition_is_per_site(self):
        schedule = FaultSchedule(
            [PartitionFault(frozenset({0, 1}), Window(0, 10), sites=frozenset({1}))]
        )
        assert schedule.unreachable_at(5, site=0) == frozenset()
        assert schedule.unreachable_at(5, site=1) == {0, 1}
        # Partitions are link faults: the node-failure set stays empty.
        assert schedule.crash_down_at(5) == frozenset()

    def test_latency_composition(self):
        schedule = FaultSchedule(
            [LatencyFault(frozenset({0}), Window(0, 10), extra=7.0, factor=3.0)]
        )
        assert schedule.latency_at(5, 0, 2.0) == pytest.approx(13.0)
        assert schedule.latency_at(5, 1, 2.0) == pytest.approx(2.0)
        assert schedule.latency_at(12, 0, 2.0) == pytest.approx(2.0)

    def test_drop_probability_takes_worst_per_direction(self):
        schedule = FaultSchedule(
            [
                DropFault(frozenset({0}), Window(0, 10), probability=0.2),
                DropFault(frozenset({0}), Window(0, 10), probability=0.6),
                DropFault(
                    frozenset({0}), Window(0, 10), probability=0.9,
                    direction="response",
                ),
            ]
        )
        assert schedule.drop_probability(5, 0, "request") == 0.6
        assert schedule.drop_probability(5, 0, "response") == 0.9
        assert schedule.drop_probability(5, 1, "request") == 0.0

    def test_non_fault_rules_rejected(self):
        with pytest.raises(ServiceError):
            FaultSchedule(["not a fault"])

    def test_extended_and_summary(self):
        schedule = FaultSchedule([CrashFault(frozenset({0}), Window(0, 5))])
        bigger = schedule.extended(
            [DuplicateFault(frozenset({1}), Window(0, 5), probability=1.0)]
        )
        assert len(schedule) == 1 and len(bigger) == 2
        assert bigger.to_dict() == {
            "rules": 2,
            "by_kind": {"crash": 1, "duplicate": 1},
        }

    def test_random_schedule_is_seed_deterministic(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            return FaultSchedule.random(
                rng, range(10), 100.0, crash_rate=0.3, partitions=1
            )

        assert build(5).faults == build(5).faults
        assert build(5).faults != build(6).faults


class TestSplitBrain:
    def test_sides_are_complementary(self):
        faults = split_brain_schedule(range(5), Window(0, 10))
        schedule = FaultSchedule(faults)
        side_a = schedule.unreachable_at(5, site=0)
        side_b = schedule.unreachable_at(5, site=1)
        assert side_a | side_b == frozenset(range(5))
        assert side_a & side_b == frozenset()
        assert len(side_b) == (5 + 1) // 2  # site 1 loses the larger half


class TestFaultyTransport:
    def test_crash_fault_burns_deadline(self):
        schedule = FaultSchedule([CrashFault(frozenset({1}), Window(0, 10))])
        _, transport = make_faulty(schedule)

        async def scenario():
            with pytest.raises(ReplicaUnavailable) as info:
                await transport.call(1, PING, timeout=40.0)
            assert info.value.latency == 40.0
            # Other replicas and later ticks are unaffected.
            assert (await transport.call(0, PING)).payload == PingReply(0)
            transport.advance(10.0)
            assert (await transport.call(1, PING)).payload == PingReply(1)

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.injected["crash"] == 1

    def test_start_applies_faults_per_call(self):
        # Two calls started in one step: the crash rule settles the one
        # to the crashed replica at once, and only the other reaches the
        # inner transport.
        schedule = FaultSchedule([CrashFault(frozenset({1}), Window(0, 10))])
        _, transport = make_faulty(schedule)

        async def scenario():
            loop = asyncio.get_running_loop()
            healthy, crashed = loop.create_future(), loop.create_future()
            transport.start(0, PING, 50.0, Resolver(healthy))
            transport.start(1, PING, 50.0, Resolver(crashed))
            assert crashed.done() and not healthy.done()
            assert (await healthy).payload == PingReply(0)
            with pytest.raises(ReplicaUnavailable):
                await crashed

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.calls == 2
        assert transport.activation_log == [(0.0, "crash", 1)]
        assert transport.inner.calls == 1

    def test_partition_respects_site(self):
        schedule = FaultSchedule(
            [PartitionFault(frozenset({0}), Window(0, 10), sites=frozenset({0}))]
        )
        replicas = [Replica(i) for i in range(3)]
        inner = SimTransport(replicas, seed=0)
        near = FaultyTransport(inner, schedule, seed=0, site=0)
        far = FaultyTransport(inner, schedule, seed=0, site=1)

        async def scenario():
            with pytest.raises(ReplicaUnavailable):
                await near.call(0, PING)
            assert (await far.call(0, PING)).payload == PingReply(0)

        run_virtual(scenario(), clock=inner.clock)
        assert near.injected["partition"] == 1
        assert far.injected["partition"] == 0

    def test_request_drop_has_no_side_effect(self):
        schedule = FaultSchedule(
            [DropFault(frozenset({0}), Window(0, 10), probability=1.0)]
        )
        replicas, transport = make_faulty(schedule)
        write = Write("k", "v", (1, 0))

        async def scenario():
            with pytest.raises(RequestTimeout):
                await transport.call(0, write)

        run_virtual(scenario(), clock=transport.inner.clock)
        assert replicas[0].get("k") is None
        assert transport.injected["drop_request"] == 1

    def test_response_drop_applies_side_effect(self):
        schedule = FaultSchedule(
            [
                DropFault(
                    frozenset({0}), Window(0, 10), probability=1.0,
                    direction="response",
                )
            ]
        )
        replicas, transport = make_faulty(schedule)
        write = Write("k", "v", (1, 0))

        async def scenario():
            with pytest.raises(RequestTimeout):
                await transport.call(0, write)

        run_virtual(scenario(), clock=transport.inner.clock)
        # The nasty case: the write applied even though the caller timed out.
        assert replicas[0].get("k").value == "v"
        assert transport.injected["drop_response"] == 1

    def test_duplicate_delivery_is_idempotent(self):
        schedule = FaultSchedule(
            [DuplicateFault(frozenset({0}), Window(0, 10), probability=1.0)]
        )
        replicas, transport = make_faulty(schedule)
        write = Write("k", "v", (1, 0))

        async def scenario():
            reply = await transport.call(0, write)
            assert reply.payload.applied

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.injected["duplicate"] == 1
        assert replicas[0].writes_applied == 1  # second delivery was a no-op
        assert replicas[0].get("k").value == "v"

    def test_latency_spike_can_time_out(self):
        schedule = FaultSchedule(
            [LatencyFault(frozenset({0}), Window(0, 10), extra=1000.0)]
        )
        _, transport = make_faulty(schedule)

        async def scenario():
            with pytest.raises(RequestTimeout):
                await transport.call(0, PING, timeout=50.0)
            # A generous deadline admits the slow reply with shifted latency.
            reply = await transport.call(0, PING, timeout=5000.0)
            assert reply.latency > 1000.0

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.injected["latency_timeout"] == 1

    def test_coin_stream_is_schedule_independent(self):
        # Same seed, different schedules: the drop coins land on the same
        # calls, so editing rules never reshuffles unrelated randomness.
        def drops(schedule):
            _, transport = make_faulty(schedule, seed=42)

            async def scenario():
                outcomes = []
                for index in range(30):
                    try:
                        await transport.call(index % 5, PING)
                        outcomes.append(True)
                    except RequestTimeout:
                        outcomes.append(False)
                return outcomes

            return run_virtual(scenario(), clock=transport.inner.clock)

        half = FaultSchedule(
            [DropFault(frozenset(range(5)), Window(0, 100), probability=0.5)]
        )
        outcomes_a = drops(half)
        outcomes_b = drops(half)
        assert outcomes_a == outcomes_b
        assert not all(outcomes_a) and any(outcomes_a)
        # Restricting the rule to one replica keeps the surviving calls'
        # fates identical on the untouched replicas.
        narrow = FaultSchedule(
            [DropFault(frozenset({0}), Window(0, 100), probability=0.5)]
        )
        outcomes_c = drops(narrow)
        for index, (a, c) in enumerate(zip(outcomes_a, outcomes_c)):
            if index % 5 == 0:
                continue  # replica 0 calls may differ
            assert c  # no rule applies: the call must succeed

    def test_activation_log_is_ring_buffered(self):
        schedule = FaultSchedule([CrashFault(frozenset({0}), Window(0, 100))])
        replicas = [Replica(i) for i in range(2)]
        inner = SimTransport(replicas, seed=0)
        transport = FaultyTransport(inner, schedule, seed=0, log_cap=3)

        async def scenario():
            for _ in range(5):
                with pytest.raises(ReplicaUnavailable):
                    await transport.call(0, PING)

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.injected["crash"] == 5
        assert len(transport.activation_log) == 3
        assert transport.activations_dropped == 2
        # List-like surface survives the bounding.
        assert transport.activation_log == [(0.0, "crash", 0)] * 3
        assert transport.activation_log[0] == (0.0, "crash", 0)
        assert transport.activation_log[-2:] == [(0.0, "crash", 0)] * 2
        assert "dropped=2" in repr(transport.activation_log)

    def test_activation_log_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            ActivationLog(0)
        replicas = [Replica(0)]
        inner = SimTransport(replicas, seed=0)
        with pytest.raises(ValueError):
            FaultyTransport(inner, FaultSchedule(), log_cap=-1)

    def test_empty_schedule_is_transparent(self):
        replicas, transport = make_faulty(FaultSchedule())

        async def scenario():
            reply = await transport.call(2, PING)
            assert reply.payload == PingReply(2)
            await transport.pause(1.0)
            await transport.close()

        run_virtual(scenario(), clock=transport.inner.clock)
        assert transport.injected == {
            "crash": 0,
            "partition": 0,
            "latency_timeout": 0,
            "drop_request": 0,
            "drop_response": 0,
            "duplicate": 0,
            "byz_wrong_value": 0,
            "byz_stale_timestamp": 0,
            "byz_equivocate": 0,
            "byz_write_fakeack": 0,
        }


class LateInner(Transport):
    """An inner transport that settles every call at once, with a reply
    one millisecond past its deadline (as a TCP reply can that lands
    between its deadline and the channel's sweep)."""

    def __init__(self):
        self.resolves = []

    def start(self, replica_id, request, timeout, resolve):
        self.resolves.append(resolve)
        resolve(Reply(PingReply(replica_id), timeout + 1.0))


class TestPassThrough:
    def test_replica_rules_share_one_object_for_untouched_replicas(self):
        schedule = FaultSchedule(
            [
                DropFault(frozenset({0}), Window(0.0, 10.0), probability=0.0),
                LatencyFault(frozenset({1}), Window(0.0, 10.0), extra=1.0),
                ByzantineFault(frozenset({2}), Window(5.0, 10.0)),
            ]
        )
        segment = schedule.view(1.0).segment
        # A zero drop probability cannot fire: replica 0 is untouched.
        assert schedule.replica_rules(segment, 0) is NO_RULES
        assert schedule.replica_rules(segment, 1) is not NO_RULES
        assert schedule.replica_rules(segment, 2) is NO_RULES
        assert schedule.replica_rules(segment, 3) is NO_RULES
        assert schedule.replica_rules(schedule.view(6.0).segment, 2) is not NO_RULES

    def test_untouched_replica_gets_the_callers_continuation(self):
        inner = LateInner()
        schedule = FaultSchedule([LatencyFault(frozenset({1}), Window(0.0), extra=1.0)])
        transport = FaultyTransport(inner, schedule, seed=0)
        settled = []
        resolve = settled.append
        transport.start(0, PING, 10.0, resolve)
        transport.start(1, PING, 10.0, resolve)
        assert inner.resolves[0] is resolve
        assert inner.resolves[1] is not resolve
        assert transport.calls == 2 and len(settled) == 2

    @pytest.mark.parametrize(
        "rules",
        [[], [DropFault(frozenset({0}), Window(0.0), probability=1e-9)]],
        ids=["no-rules", "drop-rule-not-firing"],
    )
    def test_late_inner_reply_is_not_an_injected_fault(self, rules):
        # Only a latency rule times a reply out in the wrapper; a reply
        # the inner transport settled late reaches the caller as it came.
        transport = FaultyTransport(LateInner(), FaultSchedule(rules), seed=0)
        settled = []
        transport.start(0, PING, 10.0, settled.append)
        assert settled == [Reply(PingReply(0), 11.0)]
        assert list(transport.activation_log) == []
        assert sum(transport.injected.values()) == 0

    def test_coin_blocks_match_three_draws_per_call(self, monkeypatch):
        # Past several blocks, under drop- and duplicate-heavy rules on
        # some replicas and none on others: the same fates as drawing
        # ``rng.random(3)`` for every call.
        schedule = FaultSchedule(
            [
                DropFault(frozenset({0, 1}), Window(0, 400), probability=0.3),
                DropFault(
                    frozenset({1, 2}), Window(0, 400), probability=0.3, direction="response"
                ),
                DuplicateFault(frozenset({0, 2}), Window(100, 400), probability=0.4),
            ]
        )

        calls = 3 * faults_module.COIN_BLOCK + 17

        def run():
            _, transport = make_faulty(schedule, seed=11)

            async def scenario():
                fates = []
                for index in range(calls):
                    transport.advance(0.5)
                    try:
                        reply = await transport.call(index % 5, PING)
                        fates.append(reply.latency)
                    except RequestTimeout:
                        fates.append(None)
                return fates

            return run_virtual(scenario(), clock=transport.inner.clock), transport.activation_log

        blocked = run()
        monkeypatch.setattr(faults_module, "COIN_BLOCK", 1)
        assert run() == blocked
        kinds = {kind for _, kind, _ in blocked[1]}
        assert kinds == {"drop_request", "drop_response", "duplicate"}


class TestByzantineTransport:
    WRITE = Write("k", "v", (3, 1))

    def liar_transport(self, mode, *, site=0, registry=None, n=3):
        schedule = FaultSchedule(
            [ByzantineFault(frozenset({0}), Window(0.0), mode=mode)]
        )
        replicas = [Replica(i) for i in range(n)]
        inner = SimTransport(replicas, seed=0)
        transport = FaultyTransport(
            inner, schedule, seed=0, site=site, fabricated_registry=registry
        )
        return replicas, inner, transport

    def test_wrong_value_read_lies_at_true_timestamp(self):
        replicas, _, transport = self.liar_transport("wrong_value")
        replicas[0].apply_write("k", "honest", 3, 1)

        async def scenario():
            return await transport.call(0, Read("k"))

        reply = run_virtual(scenario(), clock=transport.inner.clock)
        assert reply.payload.value == "zzz-byz:k:3:1"
        assert reply.payload.ts == (3, 1)
        assert transport.injected["byz_wrong_value"] == 1
        assert "zzz-byz:k:3:1" in transport.fabricated_values

    def test_wrong_value_fake_acks_writes_without_applying(self):
        replicas, _, transport = self.liar_transport("wrong_value")

        async def scenario():
            return await transport.call(0, self.WRITE)

        reply = run_virtual(scenario(), clock=transport.inner.clock)
        # The ack looks exactly like an honest one...
        assert reply.payload.applied is True
        assert reply.payload.ts == (3, 1)
        # ...but the store was never touched (the wire saw a ping).
        assert replicas[0].get("k") is None
        assert replicas[0].writes_applied == 0
        assert transport.injected["byz_write_fakeack"] == 1

    def test_stale_timestamp_denies_the_write(self):
        replicas, _, transport = self.liar_transport("stale_timestamp")
        replicas[0].apply_write("k", "honest", 3, 1)

        async def scenario():
            return await transport.call(0, Read("k"))

        reply = run_virtual(scenario(), clock=transport.inner.clock)
        assert reply.payload.value is None
        assert reply.payload.ts == NULL_TIMESTAMP
        assert transport.injected["byz_stale_timestamp"] == 1
        # stale_timestamp liars apply writes honestly (the lie is denial).
        assert replicas[0].get("k").value == "honest"

    def test_equivocation_differs_per_site(self):
        registry = set()
        replicas_a, inner, near = self.liar_transport(
            "equivocate", site=0, registry=registry
        )
        # Same replicas and schedule, different caller site.
        far = FaultyTransport(
            inner, near.schedule, seed=1, site=1, fabricated_registry=registry
        )
        replicas_a[0].apply_write("k", "honest", 3, 1)

        async def scenario():
            reply_near = await near.call(0, Read("k"))
            reply_far = await far.call(0, Read("k"))
            return reply_near, reply_far

        reply_near, reply_far = run_virtual(scenario(), clock=inner.clock)
        assert reply_near.payload.value != reply_far.payload.value
        assert reply_near.payload.value.endswith(":s0")
        assert reply_far.payload.value.endswith(":s1")
        # Both lies landed in the one shared registry.
        assert {reply_near.payload.value, reply_far.payload.value} <= registry

    def test_honest_replicas_and_inactive_windows_untouched(self):
        schedule = FaultSchedule(
            [ByzantineFault(frozenset({0}), Window(10.0, 20.0))]
        )
        replicas = [Replica(i) for i in range(2)]
        inner = SimTransport(replicas, seed=0)
        transport = FaultyTransport(inner, schedule, seed=0)
        replicas[0].apply_write("k", "real", 1, 0)
        replicas[1].apply_write("k", "real", 1, 0)

        async def scenario():
            before = await transport.call(0, Read("k"))
            honest = await transport.call(1, Read("k"))
            transport.clock = 15.0
            lied = await transport.call(0, Read("k"))
            return before, honest, lied

        before, honest, lied = run_virtual(scenario(), clock=transport.inner.clock)
        assert before.payload.value == "real"
        assert honest.payload.value == "real"
        assert lied.payload.value.startswith("zzz-byz:")

    def test_lie_content_burns_no_coins(self):
        # Byzantine rules draw no RNG: the drop/duplicate coin stream is
        # identical with and without the liar, so adding one to a seeded
        # scenario never reshuffles unrelated faults.
        drop = DropFault(frozenset({1}), Window(0, 100), probability=0.5)

        def outcomes(with_liar):
            rules = [drop]
            if with_liar:
                rules.append(ByzantineFault(frozenset({0}), Window(0.0)))
            replicas = [Replica(i) for i in range(3)]
            inner = SimTransport(replicas, seed=0)
            transport = FaultyTransport(inner, FaultSchedule(rules), seed=7)

            async def scenario():
                fates = []
                for _ in range(30):
                    try:
                        await transport.call(1, PING)
                        fates.append(True)
                    except RequestTimeout:
                        fates.append(False)
                return fates

            return run_virtual(scenario(), clock=inner.clock)

        assert outcomes(False) == outcomes(True)


def _drive_rich_schedule(count_views=None):
    """Two sites' wrappers over one inner transport, six replicas, a
    seeded schedule of every rule kind (flapping at a 3-tick period,
    a two-sided partition, overlapping Byzantine rules), reads and writes
    to every replica at 96 half-tick steps.  Returns every call's outcome
    and both activation logs."""
    schedule = FaultSchedule.random(
        np.random.default_rng(21),
        range(6),
        48.0,
        crash_rate=0.2,
        latency_spikes=3,
        spike_extra=40.0,
        drops=4,
        drop_probability=0.5,
        duplicates=2,
        duplicate_probability=0.5,
        flappers=2,
        flap_period=3.0,
        partitions=1,
        sites=2,
    ).extended(
        [
            ByzantineFault(frozenset({4}), Window(6.0, 30.0), mode="equivocate"),
            ByzantineFault(frozenset({4, 5}), Window(20.0), mode="wrong_value"),
        ]
    )
    if count_views is not None:
        view = schedule.view

        def counted(now, site=0):
            count_views.append((now, site))
            return view(now, site)

        schedule.view = counted
    inner = SimTransport([Replica(i) for i in range(6)], seed=3)
    transports = [FaultyTransport(inner, schedule, seed=5 + site, site=site) for site in (0, 1)]

    async def scenario():
        outcomes = []
        for step in range(96):
            for transport in transports:
                transport.clock = step * 0.5
            for transport in transports:
                for rid in range(6):
                    if step % 3 == 0:
                        request = Write(f"k{rid}", f"v{step}", (step + 1, transport.site))
                    else:
                        request = Read(f"k{rid}")
                    try:
                        reply = await transport.call(rid, request, timeout=60.0)
                    except (ReplicaUnavailable, RequestTimeout) as exc:
                        outcomes.append((transport.site, rid, type(exc).__name__, exc.latency))
                    else:
                        payload = _dict_protocol_repr(reply.payload)
                        outcomes.append((transport.site, rid, payload, reply.latency))
        return outcomes

    outcomes = run_virtual(scenario(), clock=inner.clock)
    return outcomes, [list(transport.activation_log) for transport in transports]


def _dict_protocol_repr(reply):
    """A read or write reply as the dict protocol carried it, so that
    :data:`RICH_SCHEDULE_DIGEST`, recorded with that protocol, pins it."""
    fields = {"ok": True, "replica": reply.replica, "counter": reply.ts[0], "writer": reply.ts[1]}
    if type(reply) is ReadReply:
        fields["value"] = reply.value
    else:
        fields["applied"] = reply.applied
    return repr(sorted(fields.items()))


class TestPerTickView:
    """FaultyTransport resolves the schedule once per tick and segment."""

    def test_one_view_per_tick_and_transport(self):
        views = []
        outcomes, logs = _drive_rich_schedule(views)
        assert len(outcomes) == 96 * 2 * 6
        assert sorted(views) == sorted(set(views))  # no tick viewed twice per site
        assert len(views) == 96 * 2

    def test_outcomes_and_activation_logs_match_per_kind_queries(self):
        # Recorded with the implementation that asked the schedule's six
        # per-kind queries on every call: the per-tick view must inject
        # exactly the same faults into exactly the same calls.
        outcomes, logs = _drive_rich_schedule()
        kinds = {kind for log in logs for _, kind, _ in log}
        assert kinds >= {
            "crash",
            "partition",
            "drop_request",
            "drop_response",
            "duplicate",
            "latency_timeout",
            "byz_equivocate",
            "byz_wrong_value",
            "byz_write_fakeack",
        }
        digest = hashlib.sha256(repr((outcomes, logs)).encode()).hexdigest()
        assert digest == RICH_SCHEDULE_DIGEST

    def test_rules_are_resolved_once_per_segment_and_replica(self):
        schedule = FaultSchedule(
            [
                DropFault(frozenset({0}), Window(0.0, 10.0), probability=0.0),
                LatencyFault(frozenset({1}), Window(5.0, 10.0), extra=1.0),
            ]
        )
        resolved = []
        replica_rules = schedule.replica_rules

        def counted(segment, rid):
            resolved.append((segment, rid))
            return replica_rules(segment, rid)

        schedule.replica_rules = counted
        _, transport = make_faulty(schedule)

        async def scenario():
            for tick in (0.0, 1.0, 2.0, 5.0, 6.0, 6.0):
                transport.clock = tick
                for rid in (0, 1, 0, 1):
                    await transport.call(rid, PING)

        run_virtual(scenario(), clock=transport.inner.clock)
        # Segments [0, 5) and [5, 10): each replica's rules once per segment.
        assert resolved == [(1, 0), (1, 1), (2, 0), (2, 1)]


RICH_SCHEDULE_DIGEST = "863280ce460d9e6ac8d6b6ed27957ce87df519506efc185d576d780c05db09d4"
