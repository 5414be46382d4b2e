"""Clocks and the virtual-time event loop.

The service layer measures time in **milliseconds** (latencies, timeouts,
backoffs all carry ``_ms`` suffixes); asyncio measures loop time in
seconds.  The :class:`Clock` protocol adopts the service convention —
``now()`` returns milliseconds, ``sleep`` takes milliseconds — and
:class:`VirtualTimeLoop` does the 1000× bridge exactly once, so sim and
service code agree on units without sprinkling conversions.

Two implementations:

* :class:`WallClock` — real time.  ``now()`` is ``time.monotonic()`` in
  ms, ``sleep`` awaits a real ``asyncio.sleep``.
* :class:`VirtualClock` — manually advanced time.  On its own it is a
  plain counter (the discrete-event :class:`~repro.sim.engine.Simulator`
  drives one directly); paired with :class:`VirtualTimeLoop` it also
  makes ordinary asyncio code run under simulated time: whenever the
  loop has nothing ready, it advances the clock to the earliest timer's
  deadline instead of waiting, so ``await asyncio.sleep(3600)``
  completes in microseconds of wall time while ``clock.now()`` moves
  forward 3 600 000 ms.

:func:`run_virtual` is the ``asyncio.run`` analogue: it runs a coroutine
to completion on a fresh :class:`VirtualTimeLoop` (:func:`run_on` picks
one or the other for a clock).  Determinism note —
the loop never *reorders* ready callbacks, it only fast-forwards idle
waits, so a program that is deterministic under ``asyncio.run`` with a
seeded RNG is byte-for-byte deterministic (and enormously faster) under
:func:`run_virtual`.  The loop has no selector, so real I/O and threads,
which would break that, raise instead of running.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from abc import ABC, abstractmethod
from asyncio import base_events
from typing import Any, Coroutine, Optional, TypeVar

from ..core.errors import SimulationError

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
    "VirtualTimeLoop",
    "run_on",
    "run_virtual",
    "install_uvloop",
    "accelerators",
]

_T = TypeVar("_T")


class Clock(ABC):
    """Source of time for transports, fault schedules and metrics.

    ``now()`` returns the current time in milliseconds; ``sleep``
    suspends the calling coroutine for ``delay_ms`` milliseconds of
    *this clock's* time (real for :class:`WallClock`, simulated for
    :class:`VirtualClock` under a :class:`VirtualTimeLoop`).
    """

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    @abstractmethod
    async def sleep(self, delay_ms: float) -> None:
        """Suspend for ``delay_ms`` milliseconds of clock time."""


class WallClock(Clock):
    """Real time: monotonic milliseconds, real asyncio sleeps."""

    def now(self) -> float:
        return time.monotonic() * 1000.0

    async def sleep(self, delay_ms: float) -> None:
        await asyncio.sleep(max(0.0, delay_ms) / 1000.0)


class VirtualClock(Clock):
    """Manually advanced simulated time, starting at ``start`` ms.

    ``advance``/``advance_to`` move time forward (never backward).
    ``sleep`` awaits an ``asyncio.sleep`` and therefore only makes
    progress when the running loop understands virtual time — i.e.
    inside :func:`run_virtual`.  Synchronous users (the discrete-event
    engine) call ``advance_to`` directly and never sleep.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise SimulationError(f"cannot advance time by {delta_ms} ms")
        self._now += delta_ms
        return self._now

    def advance_to(self, deadline_ms: float) -> float:
        if deadline_ms < self._now:
            raise SimulationError(
                f"cannot rewind virtual clock from {self._now} to {deadline_ms}"
            )
        self._now = float(deadline_ms)
        return self._now

    async def sleep(self, delay_ms: float) -> None:
        await asyncio.sleep(max(0.0, delay_ms) / 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now!r})"


class VirtualTimeLoop(asyncio.BaseEventLoop):
    """An event loop without a selector whose ``time()`` is a :class:`VirtualClock`.

    All asyncio timing — ``asyncio.sleep``, ``asyncio.wait(...,
    timeout=)``, ``loop.call_later`` — runs against the virtual clock,
    which jumps forward whenever the loop has nothing ready.  Loop time
    is the clock's millisecond value divided by 1000, so a coroutine's
    ``await asyncio.sleep(0.004)`` and a transport's ``await
    clock.sleep(4)`` mean the same thing.  The loop opens no file
    descriptor: real I/O (``add_reader``, ``open_connection``) raises
    ``NotImplementedError`` and ``run_in_executor`` a
    :class:`SimulationError`.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        super().__init__()
        self.clock = clock if clock is not None else VirtualClock()
        self._iterations = 0

    @property
    def iterations(self) -> int:
        """Loop iterations run so far; exact under virtual time."""
        return self._iterations

    def time(self) -> float:
        return self.clock.now() / 1000.0

    def run_in_executor(self, executor: Any, func: Any, *args: Any) -> Any:
        raise SimulationError("no threads under virtual time")

    def _run_once(self) -> None:
        """``BaseEventLoop._run_once`` with the I/O poll replaced by a jump
        of the clock to the earliest timer.  The cancelled-timer cleanup,
        the due-timer drain and the ready-count rule are asyncio's, so
        timers that share a deadline run in asyncio's order."""
        self._iterations += 1
        scheduled = self._scheduled
        count = len(scheduled)
        if (
            count > base_events._MIN_SCHEDULED_TIMER_HANDLES
            and self._timer_cancelled_count / count
            > base_events._MIN_CANCELLED_TIMER_HANDLES_FRACTION
        ):
            for handle in scheduled:
                handle._scheduled = not handle._cancelled
            self._scheduled = scheduled = [h for h in scheduled if h._scheduled]
            heapq.heapify(scheduled)
            self._timer_cancelled_count = 0
        else:
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                heapq.heappop(scheduled)._scheduled = False
        ready = self._ready
        if not ready and not self._stopping:
            if not scheduled:
                raise SimulationError(
                    "virtual-time deadlock: event loop is idle with no scheduled "
                    "timers; some coroutine awaits an event that can never arrive"
                )
            when = scheduled[0]._when
            timeout = min(max(0, when - self.time()), base_events.MAXIMUM_SELECT_TIMEOUT)
            if timeout > 0:
                self.clock.advance(timeout * 1000.0)
        end_time = self.time() + self._clock_resolution
        while scheduled and scheduled[0]._when < end_time:
            handle = heapq.heappop(scheduled)
            handle._scheduled = False
            ready.append(handle)
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()


def run_virtual(
    main: Coroutine[Any, Any, _T], *, clock: Optional[VirtualClock] = None
) -> _T:
    """Run ``main`` to completion under virtual time; the ``asyncio.run``
    of the simulation world.

    Creates a fresh :class:`VirtualTimeLoop` (over ``clock`` when given,
    so callers can share one clock between the loop and their
    transports), runs the coroutine, then cancels stragglers and closes
    the loop exactly like ``asyncio.run`` does.
    """
    loop = VirtualTimeLoop(clock=clock)
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


def run_on(clock: Clock, main: Coroutine[Any, Any, _T]) -> _T:
    """Run ``main`` on the loop ``clock`` needs: :func:`run_virtual` for
    a :class:`VirtualClock`, ``asyncio.run`` for real time."""
    if isinstance(clock, VirtualClock):
        return run_virtual(main, clock=clock)
    return asyncio.run(main)


# ----------------------------------------------------------------------
# Optional accelerators (the ``repro[perf]`` extra)
# ----------------------------------------------------------------------
def install_uvloop() -> bool:
    """Install the uvloop event-loop policy when the environment has it.

    Returns ``True`` when uvloop is now the policy, ``False`` when the
    import failed — callers gate on the return value instead of
    requiring the dependency, so the wall-clock serving stack merely
    runs slower without the ``repro[perf]`` extra, never breaks.  Only
    affects loops created *after* the call (``asyncio.run``, cluster
    workers); never touches a loop that is already running, nor the
    virtual-time loop above, which runs its own iterations.
    """
    try:  # pragma: no cover - depends on environment
        import uvloop
    except ImportError:
        return False
    uvloop.install()  # pragma: no cover - depends on environment
    return True  # pragma: no cover - depends on environment


def accelerators() -> dict:
    """Which optional performance dependencies are importable.

    The ``quorumtool serve`` / ``kvbench`` startup banner prints this so
    a benchmark number always states what it was measured with.
    """
    report = {}
    for name in ("orjson", "uvloop"):
        try:
            __import__(name)
        except ImportError:
            report[name] = False
        else:
            report[name] = True
    return report


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    tasks = [task for task in asyncio.all_tasks(loop) if not task.done()]
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
