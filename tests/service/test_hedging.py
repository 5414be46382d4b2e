"""Tests for hedged quorum fan-out and the amortized serving hot path.

The deterministic scenarios use a tiny explicit system whose strategy
puts all its weight on one quorum, so the sampled primary — and with it
the hedge plan — is fixed:

* universe ``{0, 1, 2}``, quorums ``{0, 1}`` and ``{0, 2}``;
* strategy weight 1.0 on ``{0, 1}`` → the primary is always ``{0, 1}``,
  the single spare is replica 2, and the only alternate candidate is
  ``{0, 2}``.
"""

import asyncio

from repro.core import ExplicitQuorumSystem, Strategy, Universe
from repro.core.errors import RequestTimeout
from repro.runtime.clock import run_virtual
from repro.service import Coordinator, Replica, SimTransport, make_replicas
from repro.runtime.faults import FaultSchedule, LatencyFault, Window
from repro.scenarios.engine import ChaosConfig, run_chaos
from repro.service.faults import FaultyTransport
from repro.service.transport import BinaryTcpTransport, Reply, Transport
from repro.systems import MajorityQuorumSystem


def pinned_system():
    """System + strategy whose primary quorum is always ``{0, 1}``."""
    system = ExplicitQuorumSystem(
        Universe.of_size(3), [{0, 1}, {0, 2}], name="pinned"
    )
    strategy = Strategy(system, list(system.minimal_quorums()), [1.0, 0.0])
    return system, strategy


def build(transport_factory, **coordinator_kwargs):
    system, strategy = pinned_system()
    replicas = [Replica(i) for i in range(3)]
    transport = transport_factory(replicas)
    coordinator = Coordinator(
        system, transport, strategy, seed=0, **coordinator_kwargs
    )
    return replicas, transport, coordinator


class StallTransport(Transport):
    """A transport where one replica stalls real wall-clock time —
    the minimal way to exercise the ``hedge_delay_ms`` timer path."""

    def __init__(self, replicas, slow_id, delay_s):
        self.replicas = {r.replica_id: r for r in replicas}
        self.slow_id = slow_id
        self.delay_s = delay_s

    def start(self, replica_id, request, timeout, resolve):
        delay = self.delay_s if replica_id == self.slow_id else 0
        asyncio.get_running_loop().call_later(
            delay, self._deliver, resolve, replica_id, request
        )

    def _deliver(self, resolve, replica_id, request):
        if not resolve.cancelled():
            resolve(Reply(self.replicas[replica_id].handle(request), 1.0))


class ManualTransport(Transport):
    """Every call waits until the test settles it by replica id."""

    def __init__(self, replicas):
        self.replicas = {r.replica_id: r for r in replicas}
        self.started = {}

    def start(self, replica_id, request, timeout, resolve):
        self.started[replica_id] = (request, resolve)

    def reply(self, replica_id):
        request, resolve = self.started.pop(replica_id)
        resolve(Reply(self.replicas[replica_id].handle(request), 1.0))

    def time_out(self, replica_id):
        self.started.pop(replica_id)[1](RequestTimeout(replica_id, latency=50.0))


class TestUpfrontHedging:
    def test_hedge_wins_past_a_crashed_primary_member(self):
        replicas, transport, coordinator = build(
            lambda r: SimTransport(r, seed=0), hedge_spares=1
        )
        transport.crash(1)

        async def scenario():
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 1  # no fallback attempt needed
            await coordinator.drain()

        run_virtual(scenario(), clock=transport.clock)
        metrics = coordinator.metrics
        assert metrics.hedges_issued == 1
        assert metrics.hedges_won == 1
        assert metrics.fallbacks == 0
        # The alternate candidate {0, 2} carried the write.
        assert replicas[0].writes_applied == 1
        assert replicas[2].writes_applied == 1

    def test_without_hedging_the_same_crash_costs_a_fallback(self):
        replicas, transport, coordinator = build(
            lambda r: SimTransport(r, seed=0)
        )
        transport.crash(1)

        async def scenario():
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 2  # attempt 1 fails, fallback to {0, 2}

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.fallbacks == 1
        assert coordinator.metrics.hedges_issued == 0

    def test_hedging_off_by_default_contacts_only_the_quorum(self):
        replicas, transport, coordinator = build(
            lambda r: SimTransport(r, seed=0)
        )

        async def scenario():
            await coordinator.write("k", "v")

        run_virtual(scenario(), clock=transport.clock)
        assert transport.calls == 2  # exactly the primary's two members
        assert coordinator.metrics.hedges_issued == 0
        assert replicas[2].writes_applied == 0


class TestDeferredHedging:
    def test_fast_path_issues_no_spares(self):
        # Every reply lands after 1 ms, well inside the 5 ms hedge delay.
        replicas, transport, coordinator = build(
            lambda r: SimTransport(r, seed=0, mean_latency=0.0),
            hedge_spares=1,
            hedge_delay_ms=5.0,
        )

        async def scenario():
            for index in range(10):
                await coordinator.write(f"k{index}", index)

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.hedges_issued == 0
        assert transport.calls == 20  # 10 ops x 2 primary members, no spares

    def test_member_failure_triggers_the_spares_immediately(self):
        # The delay is far beyond the test budget: only the
        # failure-triggered hedge path can complete the op this fast.
        replicas, transport, coordinator = build(
            lambda r: SimTransport(r, seed=0),
            hedge_spares=1,
            hedge_delay_ms=60_000.0,
        )
        transport.crash(1)

        async def scenario():
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 1
            await coordinator.drain()

        run_virtual(scenario(), clock=transport.clock)
        assert transport.clock.now() < 60_000.0
        assert coordinator.metrics.hedges_issued == 1
        assert coordinator.metrics.hedges_won == 1
        assert coordinator.metrics.fallbacks == 0

    def test_delay_timer_hedges_around_a_wall_clock_straggler(self):
        replicas, transport, coordinator = build(
            lambda r: StallTransport(r, slow_id=1, delay_s=0.15),
            hedge_spares=1,
            hedge_delay_ms=10.0,
            timeout=10_000.0,
        )

        async def scenario():
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 1
            # The phase completed via {0, 2} while replica 1 is still in
            # flight; the straggler was absorbed, not discarded.
            assert coordinator.metrics.hedges_won == 1
            assert len(coordinator.metrics.straggler_latencies) == 0
            await coordinator.drain()
            assert len(coordinator.metrics.straggler_latencies) == 1

        asyncio.run(scenario())
        # Durability: the straggler's side effect still landed on replica 1.
        assert [r.writes_applied for r in replicas] == [1, 1, 1]
        assert coordinator.metrics.hedges_issued == 1


class TestHedgeLatch:
    """Deferred-hedge edge cases of the fan-out collector in
    ``Coordinator._collect``, in virtual time so every reply lands on a
    chosen loop iteration."""

    def run_write(self, settle):
        """Write once with a deferred 2 ms hedge over a ManualTransport;
        ``settle(loop, transport)`` schedules the replies.  Returns the
        coordinator and every ``record_hedges_issued`` argument."""
        replicas, transport, coordinator = build(
            ManualTransport, hedge_spares=1, hedge_delay_ms=2.0
        )
        issued = []
        record = coordinator.metrics.record_hedges_issued

        def spy(count=1):
            issued.append(count)
            record(count)

        coordinator.metrics.record_hedges_issued = spy

        async def scenario():
            settle(asyncio.get_running_loop(), transport)
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 1

        run_virtual(scenario())
        return coordinator, issued

    def test_deadline_in_the_same_iteration_as_a_partial_reply_hedges(self):
        # Replica 0 answers on the very iteration the 2 ms hedge deadline
        # fires; replica 1 never answers.  The partial reply must not
        # disarm the deadline: the collector's timer still issues the
        # spare that lets {0, 2} win.
        def settle(loop, transport):
            loop.call_later(0.002, transport.reply, 0)
            loop.call_later(0.003, transport.reply, 2)

        coordinator, issued = self.run_write(settle)
        assert issued == [1]
        assert coordinator.metrics.hedges_won == 1

    def test_late_wake_from_a_consumed_reply_is_ignored(self):
        # At 1 ms replica 0 answers and replica 1 times out one iteration
        # later.  The failure issues the spare at once and disarms the
        # hedge timer, so the 2 ms deadline must not issue it again
        # while the spare is still in flight.
        def settle(loop, transport):
            def partial_then_failure():
                transport.reply(0)
                loop.call_soon(transport.time_out, 1)

            loop.call_later(0.001, partial_then_failure)
            loop.call_later(0.005, transport.reply, 2)

        coordinator, issued = self.run_write(settle)
        assert issued == [1]
        assert coordinator.metrics.hedges_won == 1
        assert coordinator.metrics.timeouts == 1


class TestHedgingUnderLatencySpikes:
    def test_latency_spike_timeout_is_hedged_within_one_attempt(self):
        system, strategy = pinned_system()
        replicas = [Replica(i) for i in range(3)]
        inner = SimTransport(replicas, seed=0)
        schedule = FaultSchedule(
            [LatencyFault(frozenset({1}), Window(0), extra=10_000.0)]
        )
        faulty = FaultyTransport(inner, schedule, seed=1)
        coordinator = Coordinator(
            system, faulty, strategy, seed=0, hedge_spares=1
        )

        async def scenario():
            ack = await coordinator.write("k", "v")
            assert ack.attempts == 1
            result = await coordinator.read("k")
            assert result.value == "v"
            assert result.stale is False
            await coordinator.drain()

        run_virtual(scenario(), clock=inner.clock)
        metrics = coordinator.metrics
        assert metrics.timeouts >= 1  # the spiked replica kept missing deadlines
        assert metrics.hedges_won >= 1
        assert metrics.fallbacks == 0

    def test_latency_spiked_tcp_run_issues_hedges(self):
        # Regression for the kvbench `hedging.issued: 0` bug: the
        # deferred-hedge deadline was re-anchored to "now" on every
        # straggler poll, so over real sockets — where polls are
        # frequent — the timer receded forever and TCP hedged runs
        # never issued a spare.  The deadline is anchored once per
        # phase now; a spiked quorum member must trigger >= 1 hedge.
        from repro.service import start_tcp_replicas

        async def scenario():
            system, strategy = pinned_system()
            replicas = [Replica(i) for i in range(3)]
            servers, addresses = await start_tcp_replicas(replicas)
            schedule = FaultSchedule(
                [LatencyFault(frozenset({1}), Window(0), extra=10_000.0)]
            )
            faulty = FaultyTransport(BinaryTcpTransport(addresses), schedule, seed=1)
            coordinator = Coordinator(
                system, faulty, strategy, seed=0,
                hedge_spares=1, hedge_delay_ms=5.0,
            )
            try:
                ack = await coordinator.write("k", "v")
                assert ack.attempts == 1
                result = await coordinator.read("k")
                assert result.value == "v"
                await coordinator.drain()
            finally:
                await faulty.close()
                for server in servers:
                    server.close()
                for server in servers:
                    await server.wait_closed()
            return coordinator.metrics

        metrics = asyncio.run(scenario())
        assert metrics.hedges_issued >= 1
        assert metrics.hedges_won >= 1
        assert metrics.ops_failed == 0

    def test_chaos_invariants_hold_with_hedging_enabled(self):
        # The full chaos harness — crash epochs, latency spikes, drops,
        # duplicates, partitions — with hedged coordinators: safety must
        # be unaffected by perf hedging (acked writes durable, no stale
        # unflagged reads).
        system = MajorityQuorumSystem.of_size(5)
        for hedge_delay_ms in (0.0, 2.0):
            report = run_chaos(
                system,
                seed=7,
                config=ChaosConfig(
                    ops=150,
                    latency_spikes=3,
                    hedge_spares=1,
                    hedge_delay_ms=hedge_delay_ms,
                ),
            )
            assert report.ok, report.violations
            assert report.metrics.hedges_issued > 0

    def test_chaos_report_is_seed_deterministic_with_upfront_hedging(self):
        system = MajorityQuorumSystem.of_size(5)
        runs = [
            run_chaos(
                system,
                seed=11,
                config=ChaosConfig(ops=120, hedge_spares=1),
            ).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestAmortizedHotPath:
    def test_sampler_work_is_one_table_build_plus_lookups(self):
        # Acceptance criterion: per-op strategy sampling must be alias
        # lookups, not per-op O(m) rebuilds.
        system = MajorityQuorumSystem.of_size(5)
        strategy = Strategy.uniform(system)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        coordinator = Coordinator(system, transport, strategy, seed=0)

        async def scenario():
            for index in range(200):
                if index % 2:
                    await coordinator.read("k")
                else:
                    await coordinator.write("k", index)

        run_virtual(scenario(), clock=transport.clock)
        stats = strategy.sampler_stats
        assert stats["alias_builds"] == 1
        assert stats["samples_drawn"] == 200  # exactly one draw per op

    def test_member_tuples_and_avoiding_strategies_are_reused(self):
        system = MajorityQuorumSystem.of_size(5)
        strategy = Strategy.uniform(system)
        transport = SimTransport(make_replicas(system), seed=0)
        coordinator = Coordinator(system, transport, strategy, seed=0)
        quorum = strategy.quorums[0]
        reads, writes = coordinator.rw_strategy.reads, coordinator.rw_strategy.writes
        # A pick under a suspected replica samples from the strategy's
        # memoised restriction, which the next pick reuses.
        coordinator.health.suspected[1] = coordinator._ops_issued
        picked = coordinator._pick_quorum(writes)
        restricted = strategy.avoiding(frozenset({1}))
        assert 1 not in picked and picked in restricted.quorums
        assert coordinator._pick_quorum(writes) in restricted.quorums
        assert coordinator._pick_quorum(reads) in restricted.quorums
        assert strategy.avoiding(frozenset({1})) is restricted
        assert restricted.sampler_stats == {"alias_builds": 1, "samples_drawn": 3}
        # Identity, not equality: the hot path returns the cached plan,
        # with the primary's member tuple in it.
        spares_and_candidates = coordinator._hedge_plan(writes, quorum)
        assert coordinator._hedge_plan(writes, quorum) is spares_and_candidates
        assert spares_and_candidates[1][0] == (quorum, tuple(sorted(quorum)))
        # An unsplit pair serves both paths from one strategy object, so
        # the read path hits the same cached plans: nothing is computed twice.
        assert coordinator._hedge_plan(reads, quorum) is spares_and_candidates
