"""The per-fan-out collector in ``Coordinator._collect``.

Every call of a fan-out reports its outcome straight to one collector,
which settles it where it lands.  These tests pin the rules that keep
that equivalent to waiting on every reply in a batch:

* a call that settles synchronously inside ``Transport.start`` (an
  admission fault) never decides the fan-out before every call of the
  batch has been started;
* a reply after the decision is a straggler, and ``drain`` waits for it;
* an error other than a timeout or an unavailable replica reaches the
  caller and cancels the sibling calls before they reach a replica;
* ``_broadcast`` and ``_repair_stale`` start every call in one loop
  iteration and report outcomes in member order;
* one fixed virtual-time chaos run stays within its loop-iteration
  budget.

Each runs over ``FaultyTransport(SimTransport)`` under virtual time, once
per route to a failure (see :class:`Rig`).  The small explicit systems
pin the sampled primary, so the hedge plan is fixed (see
``tests/service/test_hedging.py``).
"""

import asyncio

import pytest

from repro.cli import build_system
from repro.core import ExplicitQuorumSystem, Strategy, Universe
from repro.runtime import VirtualClock, run_virtual
from repro.runtime.faults import (
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultSchedule,
    PartitionFault,
    Window,
)
from repro.scenarios import ChaosConfig, run_chaos
from repro.service import (
    Coordinator,
    FaultyTransport,
    Replica,
    SimTransport,
)

KINDS = ("crash", "partition")
TIMEOUT = 50.0


def pinned(n, quorums):
    """System over ``n`` replicas whose strategy always samples the
    first of ``quorums``; the rest are the hedge candidates."""
    system = ExplicitQuorumSystem(Universe.of_size(n), quorums, name="pinned")
    strategy = Strategy(system, quorums, [1.0] + [0.0] * (len(quorums) - 1))
    return system, strategy


class Rig:
    """Replicas that log every request they handle, a transport with one
    kind of failure, and a log of every call the coordinator starts.

    ``sync_down`` replicas fail synchronously inside ``start``: an
    admission crash fault (``"crash"``) or partition fault
    (``"partition"``).  ``late_down`` replicas fail after the other
    calls of their batch answered: a crashed ``SimTransport`` replica
    (after the full timeout), or a duplicated request whose response is
    dropped (once the duplicate has landed).
    """

    def __init__(self, kind, n, *, sync_down=(), late_down=(), mean_latency=0.0):
        self.clock = VirtualClock()
        self.replicas = [Replica(i) for i in range(n)]
        self.handled = []
        for replica in self.replicas:
            replica.handle = self._logged(replica, replica.handle)
        inner = SimTransport(
            self.replicas, clock=self.clock, seed=3, mean_latency=mean_latency
        )
        sync, late = frozenset(sync_down), frozenset(late_down)
        if kind == "crash":
            faults = [CrashFault(sync, Window(0))] if sync else []
            inner.crash(*late)
        else:
            faults = [PartitionFault(sync, Window(0))] if sync else []
            if late:
                faults.append(DropFault(late, Window(0), 1.0, "response"))
                faults.append(DuplicateFault(late, Window(0), 1.0))
        self.transport = FaultyTransport(inner, FaultSchedule(faults), seed=4)
        self.started = []
        begin = self.transport.start

        def spy(replica_id, request, timeout, resolve):
            self.started.append(replica_id)
            begin(replica_id, request, timeout, resolve)

        self.transport.start = spy

    def _logged(self, replica, handle):
        def logged(request):
            self.handled.append(replica.replica_id)
            return handle(request)

        return logged

    def coordinator(self, system, strategy, **kwargs):
        return Coordinator(
            system, self.transport, strategy, seed=0, timeout=TIMEOUT, **kwargs
        )

    def run(self, main):
        """Run ``main()`` under virtual time; fail on any error that
        reached the loop's exception handler instead of a caller."""
        stray = []

        async def guarded():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: stray.append(context)
            )
            return await main()

        result = run_virtual(guarded(), clock=self.clock)
        assert stray == []
        return result


@pytest.mark.parametrize("hedge_delay_ms", [0.0, 60_000.0])
@pytest.mark.parametrize("kind", KINDS)
def test_member_failing_inside_start_is_a_phase_reply(kind, hedge_delay_ms):
    # Primary {0, 1}, spare 2, alternate {1, 2}.  Member 0 fails inside
    # start; the fan-out must still start member 1 (and then the spare,
    # upfront or on the failure) and let {1, 2} win the first attempt.
    system, strategy = pinned(3, [frozenset({0, 1}), frozenset({1, 2})])
    rig = Rig(kind, 3, sync_down={0})
    coordinator = rig.coordinator(
        system, strategy, hedge_spares=1, hedge_delay_ms=hedge_delay_ms
    )

    async def main():
        ack = await coordinator.write("k", "v")
        await coordinator.drain()
        return ack

    ack = rig.run(main)
    assert rig.started == [0, 1, 2]
    assert ack.attempts == 1
    metrics = coordinator.metrics
    assert (metrics.unavailable, metrics.hedges_won, metrics.fallbacks) == (1, 1, 0)
    assert metrics.straggler_latency.count == 0
    assert sorted(rig.handled) == [1, 2]
    assert 0 in coordinator.health.suspicion_history


@pytest.mark.parametrize("kind", KINDS)
def test_spare_failing_inside_start_is_a_phase_reply(kind):
    # Primary {0, 1}, spares 2 and 3, alternates {0, 2} and {0, 3}.
    # Member 0 acks, then member 1 fails late: the spares go out with
    # nothing else in flight, and spare 2 fails inside start.  Spare 3
    # must still be started and let {0, 3} win the first attempt.
    system, strategy = pinned(
        4, [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]
    )
    rig = Rig(kind, 4, sync_down={2}, late_down={1})
    coordinator = rig.coordinator(
        system, strategy, hedge_spares=2, hedge_delay_ms=60_000.0
    )

    async def main():
        ack = await coordinator.write("k", "v")
        await coordinator.drain()
        return ack

    ack = rig.run(main)
    assert rig.started == [0, 1, 2, 3]
    assert ack.attempts == 1
    metrics = coordinator.metrics
    # Both failures (member 1 late, spare 2 inside start) are phase replies.
    assert metrics.unavailable + metrics.timeouts == 2
    assert (metrics.hedges_issued, metrics.hedges_won, metrics.fallbacks) == (2, 1, 0)
    assert metrics.straggler_latency.count == 0


@pytest.mark.parametrize("kind", KINDS)
def test_reply_after_the_decision_is_a_drained_straggler(kind):
    # Primary {0, 1} with spare 2 sent upfront; the spare's call fails
    # after the primary won.  Its outcome is absorbed exactly as if the
    # phase had waited, but only once drain() has waited for it.
    system, strategy = pinned(3, [frozenset({0, 1}), frozenset({0, 2})])
    rig = Rig(kind, 3, late_down={2})
    coordinator = rig.coordinator(system, strategy, hedge_spares=1)
    metrics = coordinator.metrics

    async def main():
        ack = await coordinator.write("k", "v")
        assert ack.attempts == 1 and metrics.hedges_won == 0
        assert metrics.straggler_latency.count == 0
        assert coordinator.health.suspicion_history == set()
        await coordinator.drain()
        # Checked before main() returns: the loop's shutdown would run
        # the straggler's delivery even if drain() had not waited.
        assert metrics.straggler_latencies == [TIMEOUT]
        assert metrics.timeouts + metrics.unavailable == 0  # not a phase reply
        assert coordinator.health.suspicion_history == {2}
        assert metrics.hints_recorded == 1 and 2 in coordinator.hints.pending
        assert coordinator._stragglers == {}

    rig.run(main)


@pytest.mark.parametrize("kind", KINDS)
def test_replica_error_reaches_the_caller_and_cancels_the_siblings(kind):
    # One quorum of three, no hedging: whichever replica answers first
    # raises.  The error settles the attempt, and the other two calls
    # are cancelled before their delivery reaches a replica.
    system, strategy = pinned(3, [frozenset({0, 1, 2})])
    rig = Rig(kind, 3, mean_latency=4.0)
    handled = rig.handled
    for replica in rig.replicas:
        handle = replica.handle

        def failing(request, handle=handle):
            result = handle(request)
            if len(handled) == 1:
                raise RuntimeError("replica bug")
            return result

        replica.handle = failing
    coordinator = rig.coordinator(system, strategy)

    async def main():
        with pytest.raises(RuntimeError, match="replica bug"):
            await coordinator.write("k", "v")
        await asyncio.sleep(1.0)  # a virtual second: anything pending ran
        await coordinator.drain()

    rig.run(main)
    assert rig.started == [0, 1, 2]
    assert len(handled) == 1
    assert coordinator._stragglers == {}


@pytest.mark.parametrize("kind", KINDS)
def test_broadcast_and_repair_start_in_one_iteration_in_member_order(kind):
    # Replica 0 fails inside start; 1..3 answer in latency order.  Both
    # fan-outs must start all four calls before deciding, and report in
    # member order however the replies land.
    system, strategy = pinned(4, [frozenset(range(4))])
    rig = Rig(kind, 4, sync_down={0}, mean_latency=4.0)
    coordinator = rig.coordinator(system, strategy)
    members = (0, 1, 2, 3)
    begin = rig.transport.start
    at = []

    def stamped(*args):
        at.append(asyncio.get_running_loop().iterations)
        begin(*args)

    rig.transport.start = stamped
    acked = []
    note_ack = coordinator.read_rule.note_ack

    def noted(key, rids, *timestamp):
        acked.extend(rids)
        note_ack(key, rids, *timestamp)

    coordinator.read_rule.note_ack = noted

    async def main():
        read = {"op": "read", "key": "k"}
        replies, slowest = await coordinator._broadcast(members, read)
        broadcast_at = list(at)
        at.clear()
        newest = {"value": "v", "counter": 5, "writer": 1}
        stale = {rid: {"counter": 0, "writer": -1} for rid in members}
        await coordinator._repair_stale("k", newest, stale)
        return replies, slowest, broadcast_at

    replies, slowest, broadcast_at = rig.run(main)
    assert list(replies) == list(members)
    assert replies[0] is None
    assert [replies[rid]["replica"] for rid in members[1:]] == [1, 2, 3]
    assert slowest == TIMEOUT  # the failed call's deadline
    assert len(broadcast_at) == 4 and len(set(broadcast_at)) == 1
    assert len(at) == 4 and len(set(at)) == 1
    assert acked == [1, 2, 3]
    assert coordinator.metrics.read_repairs == 3
    # Repair failures are not counted; the broadcast's one is.
    assert coordinator.metrics.unavailable == 1


def test_sim_chaos_run_stays_within_its_loop_iteration_budget(virtual_loops):
    """Loop iterations of one fixed virtual-time chaos run.

    Each reply settles its fan-out inside the timer callback that
    delivers it, and the coordinator wakes once per decided fan-out.
    This run took 29,077 iterations when a reply waited four of them
    (timer, delivery, future callback, latch) and takes 8,918 with the
    collector; the budget is half the former.  Virtual time makes the
    count exact, so a hop added back to the fan-out shows up here.
    """
    report = run_chaos(
        build_system("hgrid:4x4"),
        seed=7,
        config=ChaosConfig(keys=256, hedge_spares=1, hedge_delay_ms=2.0, ops=400),
        mode="sim",
    )
    assert report.ok
    assert sum(loop.iterations for loop in virtual_loops) <= 14_500
