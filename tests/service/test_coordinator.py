"""Tests for repro.service.coordinator: quorum ops, repair, fallback."""

import asyncio

import pytest

from repro.core import Strategy
from repro.runtime import run_virtual
from repro.service import (
    Coordinator,
    OperationFailed,
    Replica,
    ReplicaUnavailable,
    ServiceMetrics,
    SimTransport,
    Transport,
    make_replicas,
)
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


def build_service(system, *, strategy=None, seed=0, **coordinator_kwargs):
    replicas = make_replicas(system)
    transport = SimTransport(replicas, seed=seed)
    coordinator = Coordinator(
        system, transport, strategy, seed=seed, **coordinator_kwargs
    )
    return replicas, transport, coordinator


class TestBasicOps:
    def test_write_then_read(self):
        system = MajorityQuorumSystem.of_size(5)
        _, transport, coordinator = build_service(system)

        async def scenario():
            ack = await coordinator.write("x", {"v": 1})
            assert (ack.counter, ack.writer) == (1, 0)
            result = await coordinator.read("x")
            assert result.value == {"v": 1}
            assert result.attempts == 1
            assert result.latency > 0

        run_virtual(scenario(), clock=transport.clock)
        metrics = coordinator.metrics
        assert metrics.ops_attempted == 2
        assert metrics.success_rate == 1.0
        assert metrics.quorum_accesses == 2

    def test_read_of_unwritten_key_returns_none(self):
        system = MajorityQuorumSystem.of_size(3)
        _, transport, coordinator = build_service(system)
        result = run_virtual(coordinator.read("missing"), clock=transport.clock)
        assert result.value is None
        assert result.counter == 0

    def test_writes_advance_the_logical_clock(self):
        system = MajorityQuorumSystem.of_size(3)
        _, transport, coordinator = build_service(system)

        async def scenario():
            for index in range(3):
                ack = await coordinator.write("k", index)
                assert ack.counter == index + 1

        run_virtual(scenario(), clock=transport.clock)


class TestReadRepair:
    def test_stale_member_of_read_quorum_gets_repaired(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        # Force the quorum {0, 1}; replica 0 is stale, replica 1 newest.
        replicas[0].apply_write("x", "old", 1, 0)
        replicas[1].apply_write("x", "new", 2, 0)
        strategy = Strategy.single(system, {0, 1})
        coordinator = Coordinator(system, transport, strategy, seed=0)

        result = run_virtual(coordinator.read("x"), clock=transport.clock)
        assert result.value == "new"
        assert replicas[0].get("x").value == "new"
        assert replicas[0].repairs_applied == 1
        assert coordinator.metrics.read_repairs == 1

    def test_unwritten_key_triggers_no_repair(self):
        system = MajorityQuorumSystem.of_size(3)
        _, transport, coordinator = build_service(system)
        run_virtual(coordinator.read("x"), clock=transport.clock)
        assert coordinator.metrics.read_repairs == 0

    def test_repair_convergence_between_coordinators(self):
        system = MajorityQuorumSystem.of_size(5)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=3)
        shared = ServiceMetrics(system.n)
        first = Coordinator(
            system, transport, coordinator_id=0, seed=1, metrics=shared
        )
        second = Coordinator(
            system, transport, coordinator_id=1, seed=2, metrics=shared
        )

        async def scenario():
            await first.write("k", "from-first")
            await second.write("k", "from-second")
            # Any read sees the newest write (quorum intersection) and the
            # second coordinator's clock adopted the first's counter.
            result = await first.read("k")
            assert result.value == "from-second"
            assert result.writer == 1

        run_virtual(scenario(), clock=transport.clock)


class TestFailureHandling:
    def test_crashing_a_quorums_worth_mid_run_falls_back(self):
        # Acceptance scenario: kill as many replicas as a quorum holds
        # (chosen so a live quorum still exists — a full quorum is a
        # transversal, so crashing one exactly would kill every quorum),
        # and the coordinator must keep serving via fallback quorums.
        system = HierarchicalTriangle.of_size(15)
        replicas, transport, coordinator = build_service(
            system, seed=0, suspicion_ttl=10
        )
        quorums = system.minimal_quorums()
        quorum_size = len(quorums[0])
        victims = None
        everyone = set(system.universe.ids)
        for candidate_extra in sorted(everyone - quorums[0]):
            candidate = set(sorted(quorums[0])[: quorum_size - 1]) | {candidate_extra}
            if system.contains_quorum(everyone - candidate):
                victims = candidate
                break
        assert victims is not None and len(victims) == quorum_size

        async def scenario():
            await coordinator.write("k", "before")
            for index in range(10):
                await coordinator.read("k")
            transport.crash(*victims)
            for index in range(30):
                result = await coordinator.read("k")
                assert result.value == "before"
            await coordinator.write("k", "after")
            assert (await coordinator.read("k")).value == "after"

        run_virtual(scenario(), clock=transport.clock)
        metrics = coordinator.metrics
        assert metrics.success_rate == 1.0
        assert metrics.unavailable > 0  # crashed replicas were actually hit
        assert metrics.fallbacks > 0  # and fallback quorums finished the ops
        # Crashed elements stop appearing in served quorums once suspected.
        observed = metrics.observed_loads()
        live_max = max(observed[e] for e in everyone - victims)
        assert live_max > 0

    def test_all_replicas_down_exhausts_attempts(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(system, max_attempts=3)
        transport.crash(0, 1, 2)

        with pytest.raises(OperationFailed) as info:
            run_virtual(coordinator.read("x"), clock=transport.clock)
        assert info.value.attempts == 3
        metrics = coordinator.metrics
        assert metrics.ops_failed == 1
        assert metrics.success_rate == 0.0
        # Latency accounts every burned deadline plus the two backoffs
        # (base, then twice base; both under the cap).
        assert Coordinator.BACKOFF_CAP >= 2 * Coordinator.BACKOFF_BASE
        backoffs = Coordinator.BACKOFF_BASE + 2 * Coordinator.BACKOFF_BASE
        assert info.value.latency >= 3 * coordinator.timeout + backoffs

    def test_timeouts_are_counted_and_fail_the_op(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(
            replicas, seed=0, base_latency=10.0, mean_latency=0.0
        )
        coordinator = Coordinator(
            system, transport, timeout=5.0, max_attempts=2
        )
        with pytest.raises(OperationFailed):
            run_virtual(coordinator.write("x", 1), clock=transport.clock)
        assert coordinator.metrics.timeouts > 0
        assert coordinator.metrics.ops_failed == 1

    def test_suspected_replicas_are_probed_again_after_ttl(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, suspicion_ttl=2, max_attempts=4
        )

        async def scenario():
            await coordinator.write("x", 1)
            transport.crash(0)
            for _ in range(4):
                await coordinator.read("x")
            transport.recover(0)
            for _ in range(6):
                await coordinator.read("x")

        run_virtual(scenario(), clock=transport.clock)
        # After recovery and TTL expiry, replica 0 serves again.
        assert replicas[0].reads_served > 0
        assert coordinator.metrics.success_rate == 1.0


class TestFallbackAccounting:
    def test_failed_op_counts_every_attempt_as_fallback(self):
        # Regression: the final failed attempt used to skip the fallback
        # counter, undercounting by one per failed operation.
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(system, max_attempts=3)
        transport.crash(0, 1, 2)

        with pytest.raises(OperationFailed):
            run_virtual(coordinator.read("x"), clock=transport.clock)
        assert coordinator.metrics.fallbacks == 3


class TestSuspicionClearing:
    def test_total_outage_clears_suspicions_and_service_resumes(self):
        # Crash everything: a failed op suspects every replica, so every
        # quorum touches a suspect.  The coordinator must optimistically
        # forget the suspicions rather than refuse to serve, and the next
        # op after recovery succeeds on the first attempt.
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=2, suspicion_ttl=100
        )

        async def scenario():
            await coordinator.write("x", 1)
            transport.crash(0, 1, 2)
            with pytest.raises(OperationFailed):
                await coordinator.read("x")
            assert coordinator.health.suspected  # failed members are suspected
            transport.recover(0, 1, 2)
            result = await coordinator.read("x")
            assert result.value == 1
            assert result.attempts == 1

        run_virtual(scenario(), clock=transport.clock)
        # The reset happened inside _pick_quorum, then the successful
        # quorum cleared its members for good.
        assert coordinator.health.suspected == {}


class TestDegradedReads:
    def test_degraded_read_is_flagged_stale(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=2, degraded_reads=True
        )

        async def scenario():
            await coordinator.write("x", "v1")
            transport.crash(0, 1)  # no pair-quorum can complete
            result = await coordinator.read("x")
            assert result.stale
            assert result.value == "v1"
            assert result.attempts == coordinator.max_attempts + 1

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.degraded_reads == 1
        assert coordinator.metrics.success_rate == 1.0

    def test_degraded_read_disabled_by_default(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(system, max_attempts=2)
        transport.crash(0, 1)
        with pytest.raises(OperationFailed):
            run_virtual(coordinator.read("x"), clock=transport.clock)

    def test_total_outage_still_fails_even_when_degraded(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=2, degraded_reads=True
        )
        transport.crash(0, 1, 2)
        with pytest.raises(OperationFailed):
            run_virtual(coordinator.read("x"), clock=transport.clock)
        assert coordinator.metrics.degraded_reads == 0
        assert coordinator.metrics.ops_failed == 1


def open_breakers(coordinator):
    now = coordinator._ops_issued
    return {rid for rid, until in coordinator.health.open_until.items() if now < until}


class TestCircuitBreakers:
    def test_breaker_opens_and_excludes_the_replica(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system,
            max_attempts=4,
            suspicion_ttl=1,  # suspicion alone cannot keep 0 excluded
            breaker_threshold=2,
            breaker_cooldown=30,
        )

        async def scenario():
            await coordinator.write("x", 1)
            transport.crash(0)
            for _ in range(6):
                await coordinator.read("x")
            assert coordinator.metrics.breaker_opens >= 1
            assert 0 in open_breakers(coordinator)
            # While the breaker is open, replica 0 stops burning deadlines.
            unavailable_before = coordinator.metrics.unavailable
            for _ in range(5):
                await coordinator.read("x")
            assert coordinator.metrics.unavailable == unavailable_before

        run_virtual(scenario(), clock=transport.clock)

    def test_breaker_closes_after_cooldown_probe_succeeds(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system,
            max_attempts=4,
            suspicion_ttl=1,
            breaker_threshold=2,
            breaker_cooldown=3,
        )

        async def scenario():
            await coordinator.write("x", 1)
            transport.crash(0)
            for _ in range(6):
                await coordinator.read("x")
            assert coordinator.metrics.breaker_opens >= 1
            transport.recover(0)
            served_before = replicas[0].reads_served
            for _ in range(20):
                await coordinator.read("x")
            # Half-open probe succeeded: the breaker closed and replica 0
            # serves quorum traffic again.
            assert replicas[0].reads_served > served_before
            assert 0 not in open_breakers(coordinator)

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.success_rate == 1.0

    def test_breakers_disabled_by_default(self):
        system = MajorityQuorumSystem.of_size(3)
        _, transport, coordinator = build_service(system, max_attempts=4)
        transport.crash(0)

        async def scenario():
            for _ in range(10):
                await coordinator.write("x", 1)

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.breaker_opens == 0
        assert open_breakers(coordinator) == set()


class TestHintedHandoff:
    def test_missed_writes_are_replayed_after_recovery(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=4, suspicion_ttl=2
        )

        async def scenario():
            transport.crash(0)
            for index in range(8):
                await coordinator.write(f"k{index}", f"v{index}")
            assert coordinator.metrics.hints_recorded > 0
            assert replicas[0].get("k0") is None  # missed while down
            transport.recover(0)
            for _ in range(8):
                await coordinator.read("k0")

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.hints_replayed > 0
        assert coordinator.hints.pending == {}
        # Replica 0 converged through replayed repair requests (possibly
        # alongside read-repair for the keys that were read back).
        assert replicas[0].get("k0").value == "v0"

    def test_hint_keeps_only_the_newest_version_per_key(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=4, suspicion_ttl=2
        )

        async def scenario():
            transport.crash(0)
            for index in range(5):
                await coordinator.write("k", f"v{index}")
            transport.recover(0)
            for _ in range(8):
                await coordinator.write("other", 1)

        run_virtual(scenario(), clock=transport.clock)
        # Replay delivered the newest queued version, not an older one.
        assert replicas[0].get("k").value == "v4"

    def test_handoff_can_be_disabled(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(
            system, max_attempts=4, hinted_handoff=False
        )
        transport.crash(0)

        async def scenario():
            for index in range(5):
                await coordinator.write(f"k{index}", index)

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.hints_recorded == 0
        assert coordinator.hints.pending == {}

    def test_hint_capacity_is_respected(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas, transport, coordinator = build_service(system, max_attempts=4)
        coordinator.hints.capacity = 2
        transport.crash(0)

        async def scenario():
            for index in range(10):
                await coordinator.write(f"k{index}", index)

        run_virtual(scenario(), clock=transport.clock)
        queued = sum(len(per) for per in coordinator.hints.pending.values())
        assert queued <= 2
        assert coordinator.metrics.hints_recorded <= 2


class BrokenTransport(Transport):
    """Replicas that fail with an error the coordinator does not classify.

    The first ``unavailable_calls`` calls fail as unavailable replicas;
    after that, calls to ``stalled`` replicas never answer (the ones
    their caller cancelled are listed in :attr:`cancelled`) and every
    other call fails with :class:`RuntimeError`.
    """

    def __init__(self, *, unavailable_calls=0, stalled=()):
        self.calls = 0
        self.unavailable_calls = unavailable_calls
        self.stalled = frozenset(stalled)
        self.stalls = []

    @property
    def cancelled(self):
        return [rid for rid, resolve in self.stalls if resolve.cancelled()]

    def start(self, replica_id, request, timeout, resolve):
        self.calls += 1
        if self.calls <= self.unavailable_calls:
            resolve(ReplicaUnavailable(replica_id, latency=timeout))
        elif replica_id in self.stalled:
            self.stalls.append((replica_id, resolve))
        else:
            resolve(RuntimeError(f"replica {replica_id} is broken"))


class TestReplyClassifier:
    """Only timeouts and unavailable replicas count as replica failures:
    any other error propagates out of every fan-out site."""

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_quorum_phase_propagates_and_cancels_pending(self, op):
        system = MajorityQuorumSystem.of_size(3)
        transport = BrokenTransport(stalled={1})
        coordinator = Coordinator(system, transport, Strategy.single(system, {0, 1}))

        async def scenario():
            with pytest.raises(RuntimeError):
                if op == "read":
                    await coordinator.read("x")
                else:
                    await coordinator.write("x", 1)
            await asyncio.sleep(0)  # deliver the cancellation

        asyncio.run(scenario())
        assert transport.cancelled == [1]
        assert coordinator.metrics.fallbacks == 0
        assert coordinator.metrics.ops_failed == 0

    def test_lease_handshake_propagates(self):
        system = MajorityQuorumSystem.of_size(3)
        transport = BrokenTransport()
        coordinator = Coordinator(system, transport, lease_ttl=5)
        with pytest.raises(RuntimeError):
            asyncio.run(coordinator.read("x"))
        assert transport.calls == 2  # one join per member, then nothing
        assert coordinator.metrics.fallbacks == 0
        assert coordinator.metrics.rejoins_failed == 0

    def test_degraded_probe_propagates(self):
        system = MajorityQuorumSystem.of_size(3)
        # The one quorum attempt finds both members unavailable; the
        # degraded probe then meets the unclassified error.
        transport = BrokenTransport(unavailable_calls=2)
        coordinator = Coordinator(
            system,
            transport,
            Strategy.single(system, {0, 1}),
            max_attempts=1,
            degraded_reads=True,
        )
        with pytest.raises(RuntimeError):
            asyncio.run(coordinator.read("x"))
        assert transport.calls > 2
        assert coordinator.metrics.unavailable == 2
        assert coordinator.metrics.degraded_reads == 0
        assert coordinator.metrics.ops_failed == 0


class TestPartialQuorumMode:
    def test_any_response_acks_when_full_quorum_not_required(self):
        # Testing-only mode behind the chaos harness's split-brain demo:
        # one live member is enough to acknowledge.
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        strategy = Strategy.single(system, {0, 1})
        coordinator = Coordinator(
            system, transport, strategy, seed=0, require_full_quorum=False
        )
        transport.crash(1)

        async def scenario():
            ack = await coordinator.write("x", "v")
            assert ack.attempts == 1
            result = await coordinator.read("x")
            assert result.value == "v"

        run_virtual(scenario(), clock=transport.clock)
        assert replicas[0].get("x").value == "v"
        assert replicas[1].get("x") is None  # the member that never saw it


class TestValidation:
    def test_foreign_strategy_rejected(self):
        system = MajorityQuorumSystem.of_size(3)
        other = MajorityQuorumSystem.of_size(5)
        replicas = make_replicas(system)
        transport = SimTransport(replicas)
        from repro.core.errors import ServiceError

        with pytest.raises(ServiceError):
            Coordinator(system, transport, Strategy.uniform(other))

    def test_bad_parameters_rejected(self):
        system = MajorityQuorumSystem.of_size(3)
        transport = SimTransport(make_replicas(system))
        from repro.core.errors import ServiceError

        with pytest.raises(ServiceError):
            Coordinator(system, transport, max_attempts=0)
        with pytest.raises(ServiceError):
            Coordinator(system, transport, timeout=0.0)


class TestSequentialHistory:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="writes stamp a per-client clock with no query phase: an"
        " acked write can sort below an older one and be lost",
    )
    def test_read_after_an_acked_write_returns_it(self):
        # No faults, no concurrency.  Client 1 writes k five times (its
        # last stamp is (5, 1)); client 2 then writes b0 and is acked
        # with the stamp (1, 2), so its own read returns a4.
        system = MajorityQuorumSystem.of_size(5)
        transport = SimTransport(make_replicas(system), seed=1)
        first = Coordinator(system, transport, coordinator_id=1, seed=1)
        second = Coordinator(system, transport, coordinator_id=2, seed=2)

        async def scenario():
            for index in range(5):
                await first.write("k", f"a{index}")
            ack = await second.write("k", "b0")
            return ack, await second.read("k")

        ack, result = run_virtual(scenario(), clock=transport.clock)
        assert result.value == "b0", (ack.counter, ack.writer, result.value)
