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
import contextvars
import heapq
import sys
import time
from abc import ABC, abstractmethod
from asyncio import base_events, events, format_helpers
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


class _Timer(events.TimerHandle):
    """The timer :class:`VirtualTimeLoop` arms: every field of an asyncio
    ``TimerHandle`` set in one frame, already marked scheduled."""

    __slots__ = ()

    def __init__(
        self, when: float, callback: Any, args: tuple, loop: VirtualTimeLoop, context: Any
    ) -> None:
        self._context = contextvars.copy_context() if context is None else context
        self._loop = loop
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._repr = None
        self._when = when
        self._scheduled = True
        # Frame 3 (past ``_arm`` and ``call_later``/``call_at``) is their
        # caller: the frame asyncio's own timer keeps last after trimming
        # its internals.
        self._source_traceback = (
            format_helpers.extract_stack(sys._getframe(3)) if loop._debug else None
        )

    # The heap's ``(deadline, entry)`` pairs compare entries only when
    # their deadlines tie.  By identity ``==`` is decided in C and is
    # False for two entries, so the tie falls through to ``__lt__``,
    # which compares deadlines alone, as the base does: tied timers keep
    # asyncio's order.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __lt__(self, other: Any) -> bool:
        return self._when < other._when


class _Delivery:
    """A heap entry that runs ``callback(*args)`` at its deadline: what
    :meth:`VirtualTimeLoop.deliver_later` pushes.

    No context copy, no cancel and no source traceback; like a timer it
    compares by identity and deadline.  ``_scheduled`` is only written,
    by the loop's drain, as it is for a timer.
    """

    __slots__ = ("_when", "_callback", "_args", "_scheduled")

    _cancelled = False

    def __init__(self, when: float, callback: Any, args: tuple) -> None:
        self._when = when
        self._callback = callback
        self._args = args

    def __lt__(self, other: Any) -> bool:
        return self._when < other._when

    def _run(self) -> None:
        """``Handle._run`` without the context: an exception goes to the
        running loop's exception handler."""
        try:
            self._callback(*self._args)
        except (SystemExit, KeyboardInterrupt):
            raise
        except BaseException as exc:
            source = format_helpers._format_callback_source(self._callback, self._args)
            events.get_running_loop().call_exception_handler(
                {"message": f"Exception in callback {source}", "exception": exc, "handle": self}
            )


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

    Every timer the loop arms is one slotted ``TimerHandle`` subclass,
    built in a single frame and pushed by ``call_later``/``call_at``
    straight onto the heap.  Like asyncio's own it copies the caller's
    context and records its source traceback in debug mode.  A simulated
    message needs none of that: :meth:`deliver_later` pushes a handle-free
    entry instead, one heap entry and one call per message.  The heap
    holds ``(deadline, entry)`` pairs, so its sifts compare floats in C,
    and entries that share a deadline run in the same order as timers on
    a stock loop.
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
        return self.clock._now / 1000.0

    def call_later(
        self, delay: float, callback: Any, *args: Any, context: Any = None
    ) -> asyncio.TimerHandle:
        if delay is None:
            raise TypeError("delay must not be None")
        return self._arm(self.clock._now / 1000.0 + delay, callback, args, context, "call_later")

    def call_at(
        self, when: float, callback: Any, *args: Any, context: Any = None
    ) -> asyncio.TimerHandle:
        if when is None:
            raise TypeError("when cannot be None")
        return self._arm(when, callback, args, context, "call_at")

    def _arm(
        self, when: float, callback: Any, args: tuple, context: Any, method: str
    ) -> asyncio.TimerHandle:
        if self._closed:
            raise RuntimeError("Event loop is closed")
        if self._debug:
            self._check_thread()
            self._check_callback(callback, method)
        timer = _Timer(when, callback, args, self, context)
        heapq.heappush(self._scheduled, (when, timer))
        return timer

    def deliver_later(self, delay: float, callback: Any, *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        The lean ``call_later`` of a simulated message: no handle is
        returned, so it cannot be cancelled (a delivery checks for itself
        whether its caller still waits), the callback runs outside any
        copied context, and the debug mode's thread and callback checks
        are skipped.  Call it only from code running on this loop.  An
        exception the callback raises goes to the loop's exception
        handler, as a timer's does.
        """
        if self._closed:
            raise RuntimeError("Event loop is closed")
        when = self.clock._now / 1000.0 + delay
        heapq.heappush(self._scheduled, (when, _Delivery(when, callback, args)))

    def run_in_executor(self, executor: Any, func: Any, *args: Any) -> Any:
        raise SimulationError("no threads under virtual time")

    def _write_to_self(self) -> None:
        """Nothing to wake: ``call_soon_threadsafe`` (which ``set_debug``
        uses on a running loop) wakes a stock loop's selector, and no
        other thread runs under virtual time."""

    def _run_once(self) -> None:
        """``BaseEventLoop._run_once`` with the I/O poll replaced by a jump
        of the clock to the earliest timer, repeated until the loop is
        told to stop.  Each pass counts as one iteration.  The
        cancelled-timer cleanup, the due-timer drain and the ready-count
        rule are asyncio's, so timers that share a deadline run in
        asyncio's order."""
        clock = self.clock
        ready = self._ready
        resolution = self._clock_resolution
        heappop = heapq.heappop
        while True:
            self._iterations += 1
            scheduled = self._scheduled
            count = len(scheduled)
            if (
                count > base_events._MIN_SCHEDULED_TIMER_HANDLES
                and self._timer_cancelled_count / count
                > base_events._MIN_CANCELLED_TIMER_HANDLES_FRACTION
            ):
                kept = []
                for entry in scheduled:
                    if entry[1]._cancelled:
                        entry[1]._scheduled = False
                    else:
                        kept.append(entry)
                heapq.heapify(kept)
                self._scheduled = scheduled = kept
                self._timer_cancelled_count = 0
            else:
                while scheduled and scheduled[0][1]._cancelled:
                    self._timer_cancelled_count -= 1
                    heappop(scheduled)[1]._scheduled = False
            if not ready and not self._stopping:
                if not scheduled:
                    raise SimulationError(
                        "virtual-time deadlock: event loop is idle with no scheduled "
                        "timers; some coroutine awaits an event that can never arrive"
                    )
                timeout = min(
                    max(0, scheduled[0][0] - clock._now / 1000.0),
                    base_events.MAXIMUM_SELECT_TIMEOUT,
                )
                if timeout > 0:
                    clock._now += timeout * 1000.0  # ``advance``, known positive
            end_time = clock._now / 1000.0 + resolution
            while scheduled and scheduled[0][0] < end_time:
                handle = heappop(scheduled)[1]
                handle._scheduled = False
                ready.append(handle)
            for _ in range(len(ready)):
                handle = ready.popleft()
                if not handle._cancelled:
                    handle._run()
            if self._stopping:
                return


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
