"""Tests for the clock layer: wall/virtual clocks and the virtual loop."""

import asyncio
import contextvars
import os
import random
import socket
import time

import pytest

from repro.core import SimulationError
from repro.runtime import VirtualClock, VirtualTimeLoop, WallClock, run_virtual
from repro.service import Replica, SimTransport
from repro.service.ops import PING


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=42.0).now() == 42.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(10.5)
        clock.advance(4.5)
        assert clock.now() == 15.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(100.0)
        assert clock.now() == 100.0

    def test_never_rewinds(self):
        clock = VirtualClock(start=50.0)
        with pytest.raises(SimulationError):
            clock.advance(-1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(49.0)


class TestWallClock:
    def test_now_tracks_monotonic(self):
        clock = WallClock()
        before = time.monotonic() * 1000.0
        now = clock.now()
        after = time.monotonic() * 1000.0
        assert before <= now <= after

    def test_sleep_is_real(self):
        clock = WallClock()
        started = time.monotonic()
        asyncio.run(clock.sleep(30.0))
        assert time.monotonic() - started >= 0.025


class TestVirtualTimeLoop:
    def test_long_sleep_is_instant(self):
        clock = VirtualClock()

        async def main():
            await asyncio.sleep(3600.0)  # one virtual hour
            return clock.now()

        started = time.monotonic()
        now_ms = run_virtual(main(), clock=clock)
        assert now_ms == pytest.approx(3_600_000.0)
        assert time.monotonic() - started < 1.0

    def test_clock_sleep_means_milliseconds(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(250.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(250.0)

    def test_sleep_ordering_preserved(self):
        clock = VirtualClock()
        order = []

        async def sleeper(name, delay_ms):
            await clock.sleep(delay_ms)
            order.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("slow", 30.0), sleeper("fast", 10.0), sleeper("mid", 20.0)
            )

        run_virtual(main(), clock=clock)
        assert order == [
            ("fast", pytest.approx(10.0)),
            ("mid", pytest.approx(20.0)),
            ("slow", pytest.approx(30.0)),
        ]

    def test_wait_for_timeout_fires_virtually(self):
        clock = VirtualClock()

        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.Event().wait(), timeout=5.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(5000.0)

    def test_deadlock_raises_instead_of_hanging(self):
        async def main():
            await asyncio.Event().wait()  # nothing will ever set it

        with pytest.raises(SimulationError, match="deadlock"):
            run_virtual(main())

    def test_loop_time_is_clock_seconds(self):
        clock = VirtualClock(start=2000.0)
        loop = VirtualTimeLoop(clock=clock)
        try:
            assert loop.time() == pytest.approx(2.0)
        finally:
            loop.close()

    def test_creates_own_clock_when_none_given(self):
        async def main():
            await asyncio.sleep(1.0)
            return asyncio.get_running_loop().clock.now()

        assert run_virtual(main()) == pytest.approx(1000.0)

    def test_counts_its_iterations(self):
        loop = VirtualTimeLoop()
        try:
            loop.run_until_complete(asyncio.sleep(1.0))
        finally:
            loop.close()
        # First step, the timer's jump, the wake-up step, the done callback.
        assert loop.iterations == 4

    def test_raising_delivery_reaches_the_exception_handler(self):
        errors, log = [], []

        def explode():
            raise ValueError("lost")

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, context: errors.append(context))
            loop.deliver_later(0.001, explode)
            loop.deliver_later(0.002, log.append, "after")
            await asyncio.sleep(0.003)
            log.append("awake")

        run_virtual(main())
        assert log == ["after", "awake"]
        (context,) = errors
        assert isinstance(context["exception"], ValueError)
        assert "explode" in context["message"]

    def test_timers_with_equal_fields_are_distinct_and_both_fire(self):
        log = []

        async def main():
            loop = asyncio.get_running_loop()
            when = loop.time() + 1.0
            first = loop.call_at(when, log.append, "fired")
            second = loop.call_at(when, log.append, "fired")
            assert first != second
            assert len({first, second}) == 2
            await asyncio.sleep(2.0)

        run_virtual(main())
        assert log == ["fired", "fired"]

    def test_pending_deliveries_are_no_deadlock(self):
        async def main():
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            # Only the delivery is scheduled while the task waits on it.
            loop.deliver_later(5.0, future.set_result, "delivered")
            return await future, loop.clock.now()

        assert run_virtual(main()) == ("delivered", 5000.0)


class TimeJumpingSelector:
    """Reference: the selector wrapper the virtual loop used to run on.

    ``select`` polls real I/O without waiting and turns the wait the
    stock selector loop asks for into a clock jump, so the loop around
    it is asyncio's own ``_run_once``.  ``selects`` counts iterations.
    """

    def __init__(self, wrapped, clock):
        self._wrapped = wrapped
        self._clock = clock
        self.selects = 0

    def select(self, timeout=None):
        self.selects += 1
        events = self._wrapped.select(0)
        if events:
            return events
        if timeout is None:
            raise SimulationError("virtual-time deadlock")
        if timeout > 0:
            self._clock.advance(timeout * 1000.0)
        return []

    def __getattr__(self, name):
        return getattr(self._wrapped, name)


class SelectorTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self._selector = self.jumper = TimeJumpingSelector(self._selector, clock)

    @property
    def iterations(self):
        return self.jumper.selects

    def time(self):
        return self.clock.now() / 1000.0


# Few distinct delays (seconds), so many timers share a deadline and the
# heap's tie order decides which runs first.
DELAYS = (0.0, 0.001, 0.002, 0.002, 0.005, 0.01, 0.25)


TASK_NAME = contextvars.ContextVar("task_name", default="main")


class Delivery:
    """A ``SimTransport`` continuation that logs the outcome it gets."""

    def __init__(self, note, name, cancelled):
        self.note = note
        self.name = name
        self._cancelled = cancelled

    def __call__(self, outcome):
        self.note(f"{self.name} {type(outcome).__name__}")

    def cancelled(self):
        return self._cancelled


async def timer_program(seed, log):
    """Seeded random timers, cancels, ``call_soon`` chains, sleeps,
    ``wait_for`` timeouts, a raising callback, context variables, debug
    mode and a burst of ``SimTransport`` deliveries that share one
    deadline; logs ``(event, clock.now())``."""
    loop = asyncio.get_running_loop()
    clock = loop.clock
    rng = random.Random(seed)
    pending = []

    def note(name):
        log.append((name, clock.now()))

    def failed(loop, context):
        assert isinstance(context["handle"], asyncio.TimerHandle)
        note(f"error {context['exception']!r}")

    def explode(name):
        raise ValueError(name)

    loop.set_exception_handler(failed)
    for i in range(3):
        loop.call_later(rng.choice(DELAYS), explode, f"boom{i}")

    # In debug mode each timer records the frame that armed it.
    traced = loop.call_later(rng.choice(DELAYS), note, "traced")
    if loop.get_debug():
        frame = traced._source_traceback[-1]
        line = frame.lineno - timer_program.__code__.co_firstlineno
        note(f"armed by {frame.name} at line {line}")
    else:
        assert traced._source_traceback is None

    # Every delivery is due 1 ms out: the heap's tie order decides.
    replicas = [Replica(i) for i in range(4)]
    sim = SimTransport(replicas, clock=clock, base_latency=1, mean_latency=0)
    for i in range(rng.randint(5, 20)):
        resolve = Delivery(note, f"sim{i}", cancelled=rng.random() < 0.2)
        sim.start(rng.randrange(4), PING, 50.0, resolve)

    def fire(name, depth):
        note(name)
        if depth < 3 and rng.random() < 0.5:
            loop.call_soon(note, f"{name}/soon")
        if depth < 3 and rng.random() < 0.5:
            pending.append(loop.call_later(rng.choice(DELAYS), fire, f"{name}/later", depth + 1))
        if pending and rng.random() < 0.3:
            pending.pop(rng.randrange(len(pending))).cancel()

    for i in range(rng.randint(150, 300)):
        pending.append(loop.call_later(rng.choice(DELAYS), fire, f"t{i}", 0))
    # Cancel two thirds of them: over 100 timers, over half cancelled,
    # so the loop's next iteration compacts the heap.
    for handle in rng.sample(pending, k=len(pending) * 2 // 3):
        handle.cancel()
    for i in range(20):
        pending.append(loop.call_at(loop.time() + rng.choice(DELAYS), fire, f"at{i}", 1))

    async def sleeper(i):
        # A timer copies the context of the task that armed it.
        TASK_NAME.set(f"sleeper{i}")
        loop.call_later(rng.choice(DELAYS), lambda: note(f"context {TASK_NAME.get()}"))
        for _ in range(3):
            await asyncio.sleep(rng.choice(DELAYS))
            note(f"sleep{i}")

    async def waiter(i):
        event = asyncio.Event()
        loop.call_later(rng.choice(DELAYS), event.set)
        try:
            await asyncio.wait_for(event.wait(), timeout=rng.choice(DELAYS))
            note(f"wait{i} set")
        except asyncio.TimeoutError:
            note(f"wait{i} timed out")

    await asyncio.gather(*(sleeper(i) for i in range(6)), *(waiter(i) for i in range(6)))
    await asyncio.sleep(1.0)  # every chained timer is due by now
    note("end")


def run_program(loop, seed):
    """The program's log and the loop's iteration count; every third
    seed runs in debug mode."""
    log = []
    loop.set_debug(seed % 3 == 0)
    try:
        loop.run_until_complete(timer_program(seed, log))
    finally:
        loop.close()
    return log, loop.iterations


@pytest.mark.parametrize("seed", range(12))
def test_virtual_loop_runs_timers_exactly_as_the_selector_loop(seed):
    expected, iterations = run_program(SelectorTimeLoop(VirtualClock()), seed)
    assert run_program(VirtualTimeLoop(), seed) == (expected, iterations)
    assert len(expected) > 100


def test_debug_mode_switched_on_mid_run_traces_later_timers():
    # set_debug on a running loop goes through call_soon_threadsafe,
    # which wakes the selector of a stock loop; this loop has none.
    async def main():
        loop = asyncio.get_running_loop()
        loop.set_debug(False)  # whatever PYTHONASYNCIODEBUG says
        before = loop.call_later(1.0, lambda: None)
        loop.set_debug(True)
        await asyncio.sleep(0)
        after = loop.call_later(1.0, lambda: None)
        return before._source_traceback, after._source_traceback

    before, after = run_virtual(main())
    assert before is None
    assert after[-1].name == "main"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_virtual_loop_opens_no_file_descriptor():
    before = sorted(os.listdir("/proc/self/fd"))

    async def main():
        await asyncio.sleep(1.0)
        return sorted(os.listdir("/proc/self/fd"))

    assert run_virtual(main()) == before


def test_real_io_and_threads_raise_under_virtual_time():
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen()

        async def main():
            loop = asyncio.get_running_loop()
            with pytest.raises(NotImplementedError):
                loop.add_reader(server.fileno(), pytest.fail)
            with pytest.raises(NotImplementedError):
                await asyncio.open_connection(*server.getsockname())
            with pytest.raises(SimulationError, match="threads"):
                await asyncio.to_thread(time.sleep, 0)

        run_virtual(main())
