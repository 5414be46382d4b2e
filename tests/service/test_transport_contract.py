"""The continuation contract of the virtual-time transports.

``Transport.submit`` is one future plus one ``call_soon`` of
``Transport.start``; ``start`` settles the call through its ``resolve``
continuation.  These tests pin what that contract promises for
``SimTransport``, ``InProcessTransport`` and ``FaultyTransport`` over
``SimTransport``: errors reach the awaiting caller, cancelled calls stay
off the RNG and off the replica, a duplicated call answers only once the
duplicate settled, and ``call`` still draws inline.
"""

import asyncio
from typing import Optional

import pytest

from repro.core.errors import ServiceError
from repro.runtime import VirtualClock, run_virtual
from repro.runtime.faults import DuplicateFault, FaultSchedule, Window
from repro.service import (
    FaultyTransport,
    InProcessTransport,
    Reply,
    SimTransport,
    make_replicas,
)
from repro.systems import MajorityQuorumSystem

READ = {"op": "read", "key": "k"}


class Rig:
    """A transport over three replicas that log every ``handle`` call
    with the virtual time it happened at."""

    def __init__(self, kind: str, schedule: Optional[FaultSchedule] = None) -> None:
        self.clock = VirtualClock()
        self.replicas = make_replicas(MajorityQuorumSystem.of_size(3))
        self.handled = []
        for replica in self.replicas:
            replica.handle = self._logged(replica)
        if kind == "inprocess":
            self.transport = InProcessTransport(self.replicas, seed=1)
        else:
            self.transport = SimTransport(self.replicas, clock=self.clock, seed=1)
        self.inner = self.transport
        if kind == "faulty":
            schedule = schedule if schedule is not None else FaultSchedule()
            self.transport = FaultyTransport(self.inner, schedule, seed=2)

    def _logged(self, replica):
        handle = replica.handle

        def logged(request):
            self.handled.append((replica.replica_id, self.clock.now()))
            return handle(request)

        return logged

    def rng_states(self):
        states = [self.inner.rng.bit_generator.state]
        if self.transport is not self.inner:
            states.append(self.transport.rng.bit_generator.state)
        return states

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


KINDS = ("sim", "inprocess", "faulty")


@pytest.mark.parametrize("kind", KINDS)
def test_start_error_reaches_the_submit_caller(kind):
    rig = Rig(kind)

    async def main():
        with pytest.raises(ServiceError, match="unknown replica id 99"):
            await rig.transport.submit(99, READ)

    rig.run(main)


@pytest.mark.parametrize("kind", KINDS)
def test_call_cancelled_before_it_begins_draws_nothing(kind):
    rig = Rig(kind)
    before = rig.rng_states()

    async def main():
        future = rig.transport.submit(0, READ)
        future.cancel()
        await asyncio.sleep(1.0)  # a virtual second: anything pending ran

    rig.run(main)
    assert rig.rng_states() == before
    assert rig.handled == []


@pytest.mark.parametrize("kind", KINDS)
def test_call_cancelled_in_flight_never_reaches_the_replica(kind):
    rig = Rig(kind)
    before = rig.rng_states()

    async def main():
        future = rig.transport.submit(0, READ)
        await asyncio.sleep(0)  # the call begins: its latency is drawn
        assert rig.rng_states() != before
        future.cancel()
        await asyncio.sleep(1.0)

    rig.run(main)
    assert rig.handled == []


@pytest.mark.parametrize("kind", KINDS)
def test_submitted_call_answers_after_the_replica_handled_it(kind):
    rig = Rig(kind)

    async def main():
        reply = await rig.transport.submit(1, READ)
        return reply, rig.clock.now()

    reply, answered_at = rig.run(main)
    assert isinstance(reply, Reply) and reply.payload["ok"]
    assert rig.handled == [(1, answered_at)]


def duplicating_rig() -> Rig:
    schedule = FaultSchedule([DuplicateFault(frozenset({0}), Window(0.0), 1.0)])
    return Rig("faulty", schedule)


def test_duplicate_holds_the_reply_until_it_settles():
    rig = duplicating_rig()

    async def main():
        reply = await rig.transport.submit(0, READ)
        return reply, rig.clock.now()

    reply, answered_at = rig.run(main)
    assert isinstance(reply, Reply)
    (first, at_first), (second, at_second) = rig.handled
    assert first == second == 0
    assert at_first < at_second <= answered_at
    assert rig.transport.injected["duplicate"] == 1


@pytest.mark.parametrize("failure", ["crash", "timeout"])
def test_duplicate_failure_is_swallowed(failure):
    rig = duplicating_rig()
    sim = rig.inner
    handle = rig.replicas[0].handle

    def first_then_fail(request):
        # After the first delivery the duplicate is doomed: the replica
        # crashes, or every later latency overshoots the deadline.
        if failure == "crash":
            sim.crash(0)
        else:
            sim.base_latency = 10_000.0
        return handle(request)

    rig.replicas[0].handle = first_then_fail

    async def main():
        return await rig.transport.submit(0, READ)

    reply = rig.run(main)
    assert isinstance(reply, Reply) and reply.payload["ok"]
    assert sim.calls == 2
    assert (sim.unavailable if failure == "crash" else sim.timeouts) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_call_draws_inline(kind):
    # Direct callers (hint replay, shard key listing) await ``call``; its
    # draws happen in the caller's own step, not a loop iteration later.
    rig = Rig(kind)
    before = rig.rng_states()

    async def main():
        call = rig.transport.call(0, READ)
        call.send(None)  # the coroutine's first step, synchronously
        drawn = rig.rng_states()
        call.close()
        return drawn

    drawn = rig.run(main)
    assert all(after != was for after, was in zip(drawn, before))


@pytest.mark.parametrize("kind", KINDS)
def test_submit_defers_the_draw_one_iteration(kind):
    rig = Rig(kind)

    async def main():
        before = rig.rng_states()
        future = rig.transport.submit(0, READ)
        assert rig.rng_states() == before
        await asyncio.sleep(0)
        assert rig.rng_states() != before
        return await future

    assert isinstance(rig.run(main), Reply)
