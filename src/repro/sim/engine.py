"""Deterministic discrete-event simulation engine.

The substrate underneath the quorum protocols: a single-threaded event
loop over a :class:`repro.runtime.clock.VirtualClock`.  Events are
callbacks scheduled at absolute virtual times; ties are broken by a
monotonically increasing sequence number, so a given seed always
produces the exact same execution — a property the test suite asserts.

Since the runtime unification the clock is shared infrastructure: pass
the simulator's :attr:`clock` to other virtual-time components (e.g. a
fault schedule evaluated at ``sim.now``) and everything observes one
consistent timeline.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..core.errors import SimulationError
from ..runtime.clock import VirtualClock


class Simulator:
    """Event loop with a virtual clock and a seeded RNG.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide :class:`numpy.random.Generator`.
        All stochastic components (latencies, crash injection, strategy
        sampling) must draw from :attr:`rng` to keep runs reproducible.
    clock:
        Optional :class:`~repro.runtime.clock.VirtualClock` to drive
        (a fresh one starting at 0 by default).
    """

    def __init__(self, seed: int = 0, *, clock: Optional[VirtualClock] = None) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.clock = clock if clock is not None else VirtualClock()
        self._stopped = False
        self.rng = np.random.default_rng(seed)
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now()

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue,
            (self.now + delay, next(self._sequence), lambda: callback(*args)),
        )

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        self.schedule(time - self.now, callback, *args)

    def stop(self) -> None:
        """Stop the loop after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` fire (runaway guard).  Returns the final time."""
        self._stopped = False
        processed = 0
        while self._queue and not self._stopped:
            time, _seq, callback = self._queue[0]
            if until is not None and time > until:
                if until > self.now:
                    self.clock.advance_to(until)
                return self.now
            heapq.heappop(self._queue)
            self.clock.advance_to(time)
            callback()
            processed += 1
            self.events_processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; runaway simulation?"
                )
        if until is not None and self.now < until:
            self.clock.advance_to(until)
        return self.now

    def __repr__(self) -> str:
        return f"<Simulator t={self.now:.3f} pending={len(self._queue)}>"
