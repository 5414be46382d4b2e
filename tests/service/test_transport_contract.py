"""The continuation contract of the virtual-time transports.

``Transport.start`` is the one request primitive: it settles the call
through its ``resolve`` continuation, and ``Transport.call`` awaits a
future that ``start`` settles.  These tests pin what that contract
promises for ``SimTransport`` (with latency, a timer per call, and
without, a ``call_soon`` per call) and ``FaultyTransport`` over
``SimTransport``: errors reach the awaiting
caller, cancelled calls stay off the replica, a duplicated call answers
only once the duplicate settled, a continuation that raises is called
once, and ``call`` draws inline.
"""

import asyncio
from typing import Optional

import pytest

from repro.core.errors import ServiceError
from repro.runtime import VirtualClock, run_virtual
from repro.runtime.faults import DuplicateFault, FaultSchedule, LatencyFault, Window
from repro.service import (
    DEFAULT_TIMEOUT_MS,
    FaultyTransport,
    Reply,
    SimTransport,
    make_replicas,
)
from repro.service.ops import Read, ReadReply
from repro.service.transport import Resolver
from repro.systems import MajorityQuorumSystem

READ = Read("k")


class Rig:
    """A transport over three replicas that log every ``handle`` call
    with the virtual time it happened at."""

    def __init__(self, kind: str, schedule: Optional[FaultSchedule] = None) -> None:
        self.clock = VirtualClock()
        self.replicas = make_replicas(MajorityQuorumSystem.of_size(3))
        self.handled = []
        for replica in self.replicas:
            replica.handle = self._logged(replica)
        self.transport = SimTransport(self.replicas, clock=self.clock, seed=1)
        if kind == "zero-latency":
            # Every call delivers with one ``call_soon`` instead of a timer.
            self.transport.base_latency = self.transport.mean_latency = 0.0
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

    def draws(self):
        """The inner transport's RNG state and, for the fault wrapper,
        its count of calls that burned their coins.  The wrapper draws
        coins a block at a time, so its RNG state moves once per block,
        not once per call."""
        draws = [self.inner.rng.bit_generator.state]
        if self.transport is not self.inner:
            draws.append(self.transport.calls)
        return draws

    def run(self, main, stray=None):
        """Run ``main()`` under virtual time.  Errors that reached the
        loop's exception handler instead of a caller go to ``stray``;
        without one, any such error fails the test."""
        expect_none = stray is None
        stray = [] if expect_none else stray

        async def guarded():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: stray.append(context)
            )
            return await main()

        result = run_virtual(guarded(), clock=self.clock)
        if expect_none:
            assert stray == []
        return result


KINDS = ("sim", "zero-latency", "faulty")


@pytest.mark.parametrize("kind", KINDS)
def test_start_error_reaches_the_caller(kind):
    rig = Rig(kind)

    async def main():
        with pytest.raises(ServiceError, match="unknown replica id 99"):
            await rig.transport.call(99, READ)

    rig.run(main)


@pytest.mark.parametrize("kind", KINDS)
def test_call_cancelled_in_flight_never_reaches_the_replica(kind):
    rig = Rig(kind)
    before = rig.draws()

    async def main():
        future = asyncio.get_running_loop().create_future()
        rig.transport.start(0, READ, DEFAULT_TIMEOUT_MS, Resolver(future))
        assert rig.draws() != before  # the call began: latency drawn
        future.cancel()
        await asyncio.sleep(1.0)  # a virtual second: anything pending ran

    rig.run(main)
    assert rig.handled == []


@pytest.mark.parametrize("kind", KINDS)
def test_awaited_call_cancelled_in_flight_never_reaches_the_replica(kind):
    rig = Rig(kind)

    async def main():
        task = asyncio.ensure_future(rig.transport.call(0, READ))
        await asyncio.sleep(0)  # the task's first step starts the call
        task.cancel()
        await asyncio.sleep(1.0)
        assert task.cancelled()

    rig.run(main)
    assert rig.handled == []


@pytest.mark.parametrize("kind", KINDS)
def test_submitted_call_answers_after_the_replica_handled_it(kind):
    rig = Rig(kind)

    async def main():
        reply = await rig.transport.call(1, READ)
        return reply, rig.clock.now()

    reply, answered_at = rig.run(main)
    assert isinstance(reply, Reply) and type(reply.payload) is ReadReply
    assert rig.handled == [(1, answered_at)]


def duplicating_rig() -> Rig:
    schedule = FaultSchedule([DuplicateFault(frozenset({0}), Window(0.0), 1.0)])
    return Rig("faulty", schedule)


def test_duplicate_holds_the_reply_until_it_settles():
    rig = duplicating_rig()

    async def main():
        reply = await rig.transport.call(0, READ)
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
        return await rig.transport.call(0, READ)

    reply = rig.run(main)
    assert isinstance(reply, Reply) and type(reply.payload) is ReadReply
    assert sim.calls == 2
    assert (sim.unavailable if failure == "crash" else sim.timeouts) == 1


@pytest.mark.parametrize(
    "fault",
    [
        None,
        LatencyFault(frozenset({0}), Window(0.0), extra=1.0),
        DuplicateFault(frozenset({0}), Window(0.0), 1.0),
    ],
    ids=["no-rule", "latency", "duplicate"],
)
def test_a_raising_continuation_is_called_once(fault):
    # Through the fault wrapper's pass-through, its rule path and its
    # duplicate path alike: what the caller's continuation raises goes
    # to the loop's exception handler, never back into the continuation.
    rig = Rig("faulty", FaultSchedule([fault] if fault else []))
    seen = []

    def resolve(outcome):
        seen.append(type(outcome).__name__)
        raise RuntimeError("the continuation failed")

    resolve.cancelled = lambda: False

    async def main():
        rig.transport.start(0, READ, DEFAULT_TIMEOUT_MS, resolve)
        await asyncio.sleep(1.0)

    stray = []
    rig.run(main, stray)
    assert seen == ["Reply"]
    assert [type(context["exception"]) for context in stray] == [RuntimeError]


@pytest.mark.parametrize("kind", KINDS)
def test_call_draws_inline(kind):
    # Direct callers (hint replay, shard key listing) await ``call``; its
    # draws happen in the caller's own step, not a loop iteration later.
    rig = Rig(kind)
    before = rig.draws()

    async def main():
        call = rig.transport.call(0, READ)
        call.send(None)  # the coroutine's first step, synchronously
        drawn = rig.draws()
        call.close()
        return drawn

    drawn = rig.run(main)
    assert all(after != was for after, was in zip(drawn, before))
