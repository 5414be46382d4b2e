"""Masking-quorum serving path: startup validation, voted reads, liar
detection, and quorum leases (the Byzantine-tolerant coordinator)."""

import pytest

from repro.analysis.byzantine import boost, masking_majority
from repro.core import Strategy
from repro.core.errors import ServiceError
from repro.runtime import run_virtual
from repro.runtime.faults import ByzantineFault, CrashFault, FaultSchedule, Window
from repro.service import (
    Coordinator,
    FaultyTransport,
    OperationFailed,
    Replica,
    SimTransport,
    make_replicas,
)
from repro.systems import MajorityQuorumSystem


def build_masking_service(
    *,
    n=5,
    b=1,
    liars=frozenset(),
    mode="wrong_value",
    quorum=None,
    registry=None,
    **coordinator_kwargs,
):
    """A masking-majority stack with ``liars`` lying from tick 0."""
    system = masking_majority(n, b)
    replicas = make_replicas(system)
    inner = SimTransport(replicas, seed=0)
    rules = (
        [ByzantineFault(frozenset(liars), Window(0.0), mode=mode)] if liars else []
    )
    transport = FaultyTransport(
        inner, FaultSchedule(rules), seed=0, fabricated_registry=registry
    )
    strategy = Strategy.single(system, quorum) if quorum is not None else None
    coordinator = Coordinator(
        system,
        transport,
        strategy,
        seed=0,
        byzantine_b=b,
        **coordinator_kwargs,
    )
    return replicas, transport, coordinator


class TestStartupValidation:
    def test_masking_majority_accepted(self):
        _, _, coordinator = build_masking_service()
        assert coordinator.read_rule.b == 1

    def test_thin_system_rejected_with_boost_hint(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        with pytest.raises(ServiceError) as info:
            Coordinator(system, transport, seed=0, byzantine_b=1)
        assert "boost" in str(info.value)
        assert "0-masking" in str(info.value)

    def test_boosted_system_accepted(self):
        system = boost(MajorityQuorumSystem.of_size(3), 1)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        Coordinator(system, transport, seed=0, byzantine_b=1)  # must not raise

    def test_negative_parameters_rejected(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        with pytest.raises(ServiceError):
            Coordinator(system, transport, seed=0, byzantine_b=-1)
        with pytest.raises(ServiceError):
            Coordinator(system, transport, seed=0, lease_ttl=-1)


class TestVotedReads:
    def test_round_trip_with_one_liar(self):
        registry = set()
        replicas, transport, coordinator = build_masking_service(
            liars={2}, registry=registry
        )

        async def scenario():
            for index in range(10):
                key = f"k{index % 3}"
                await coordinator.write(key, f"v{index}")
                result = await coordinator.read(key)
                assert result.value == f"v{index}"
                assert not result.stale
                assert result.value not in registry

        run_virtual(scenario(), clock=transport.inner.clock)
        assert coordinator.metrics.vote_rounds > 0
        assert coordinator.metrics.vote_failures == 0

    def test_liar_is_detected_and_suspected(self):
        replicas, transport, coordinator = build_masking_service(liars={2})

        async def scenario():
            for index in range(10):
                await coordinator.write("k", f"v{index}")
                await coordinator.read("k")

        run_virtual(scenario(), clock=transport.inner.clock)
        assert coordinator.health.lied_replicas == {2}
        assert 2 in coordinator.health.suspicion_history
        assert coordinator.metrics.lies_detected > 0
        # Fake-acked writes never touched the liar's store.
        assert replicas[2].writes_applied == 0

    def test_each_mode_is_masked(self):
        for mode in ("wrong_value", "stale_timestamp", "equivocate"):
            registry = set()
            replicas, transport, coordinator = build_masking_service(
                liars={1}, mode=mode, registry=registry
            )

            async def scenario():
                for index in range(8):
                    await coordinator.write("k", f"v{index}")
                    result = await coordinator.read("k")
                    assert result.value == f"v{index}", mode
                    assert result.value not in registry

            run_virtual(scenario(), clock=transport.inner.clock)

    def test_colluding_liars_beyond_budget_win_the_vote(self):
        # The safety boundary, demonstrated: b+1 = 2 colluding liars in a
        # fixed read quorum out-vote nobody but tie the 2 honest replies,
        # and the deliberately adversarial tie-break accepts their bytes.
        registry = set()
        replicas, transport, coordinator = build_masking_service(
            liars={0, 1}, quorum={0, 1, 2, 3}, registry=registry
        )
        for replica in replicas:
            replica.apply_write("k", "real", 1, 0)

        result = run_virtual(coordinator.read("k"), clock=transport.inner.clock)
        assert result.value in registry  # fabrication served: the b+1 case

    def test_no_quorate_candidate_fails_the_read(self):
        replicas, transport, coordinator = build_masking_service(
            quorum={0, 1, 2, 3}, max_attempts=2
        )
        # Four-way divergence: no timestamp+value gets b+1 = 2 votes.
        for rid, replica in enumerate(replicas[:4]):
            replica.apply_write("k", f"divergent-{rid}", rid + 1, rid)

        with pytest.raises(OperationFailed):
            run_virtual(coordinator.read("k"), clock=transport.inner.clock)
        assert coordinator.metrics.vote_failures > 0

    def test_crash_mode_unchanged_when_b_is_zero(self):
        _, transport, coordinator = build_masking_service(b=0)

        async def scenario():
            await coordinator.write("k", "v")
            result = await coordinator.read("k")
            assert result.value == "v"

        run_virtual(scenario(), clock=transport.inner.clock)
        assert coordinator.metrics.vote_rounds == 0


class TestQuorumLeases:
    def test_leases_are_granted_and_renewed(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        strategy = Strategy.single(system, {0, 1})
        coordinator = Coordinator(
            system, transport, strategy, seed=0, lease_ttl=3
        )

        async def scenario():
            for index in range(9):
                await coordinator.write("k", index)

        run_virtual(scenario(), clock=transport.clock)
        metrics = coordinator.metrics
        assert metrics.lease_renewals >= 2
        assert metrics.lease_expiries >= 1
        assert metrics.rejoins_failed == 0
        # The replicas really served the join handshakes.
        assert replicas[0].joins_served == metrics.lease_renewals
        assert replicas[0].lessees[coordinator.coordinator_id] == 3

    def test_expired_lease_forces_rejoin(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        transport = SimTransport(replicas, seed=0)
        strategy = Strategy.single(system, {0, 1})
        coordinator = Coordinator(
            system, transport, strategy, seed=0, lease_ttl=100
        )

        async def scenario():
            await coordinator.write("k", 0)
            first = replicas[0].joins_served
            await coordinator.write("k", 1)  # lease still live: no join
            assert replicas[0].joins_served == first

        run_virtual(scenario(), clock=transport.clock)
        assert coordinator.metrics.lease_renewals == 1
        assert coordinator.metrics.lease_expiries == 0

    def test_unreachable_member_fails_the_handshake(self):
        system = MajorityQuorumSystem.of_size(3)
        replicas = make_replicas(system)
        inner = SimTransport(replicas, seed=0)
        schedule = FaultSchedule([CrashFault(frozenset({0}), Window(0.0))])
        transport = FaultyTransport(inner, schedule, seed=0)
        strategy = Strategy.single(system, {0, 1})
        coordinator = Coordinator(
            system, transport, strategy, seed=0, lease_ttl=5, max_attempts=2
        )

        with pytest.raises(OperationFailed):
            run_virtual(coordinator.write("k", "v"), clock=inner.clock)
        assert coordinator.metrics.rejoins_failed >= 1
        assert coordinator.metrics.lease_renewals == 0
        assert replicas[1].joins_served > 0  # the live member was asked

    def test_join_op_validates_arguments(self):
        replica = Replica(0)
        ok = replica.handle({"op": "join", "coordinator": 7, "ttl": 4})
        assert ok["ok"] and ok["granted"] and ok["ttl"] == 4
        assert not replica.handle({"op": "join"})["ok"]
        assert not replica.handle(
            {"op": "join", "coordinator": 1, "ttl": -2}
        )["ok"]
        assert replica.joins_served == 1
        assert replica.lessees == {7: 4}
