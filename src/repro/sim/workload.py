"""Workload generators for the simulator.

Closed-loop clients (issue, wait, think, repeat) and an open-loop Poisson
arrival process, used by the examples and the load-convergence benchmark
(measured per-replica request frequencies must converge to the analytic
strategy loads).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..core.errors import SimulationError
from ..core.quorum_system import Quorum
from ..core.strategy import Strategy
from .engine import Simulator


class QuorumPicker:
    """Samples quorums for clients from a :class:`Strategy`.

    Also returns fallback candidates (a shuffled list of further quorums)
    so clients can retry when the sampled quorum is unavailable.
    """

    def __init__(self, strategy: Strategy, fallbacks: int = 3) -> None:
        if fallbacks < 0:
            raise SimulationError(f"fallbacks must be >= 0, got {fallbacks}")
        self.strategy = strategy
        self.fallbacks = fallbacks

    def pick(self, sim: Simulator) -> List[Quorum]:
        """A primary quorum plus fallback candidates."""
        candidates = [self.strategy.sample(sim.rng)]
        pool = list(self.strategy.quorums)
        for _ in range(self.fallbacks):
            index = int(sim.rng.integers(len(pool)))
            candidates.append(pool[index])
        return candidates


class ClosedLoopWorkload:
    """Repeatedly runs an operation with think time in between.

    Parameters
    ----------
    sim:
        The event loop.
    operation:
        Callable ``operation(on_done)`` starting one asynchronous
        operation and invoking ``on_done(result)`` at completion.
    think_time:
        Mean exponential think time between operations.
    operations:
        Stop after this many completions.
    """

    def __init__(
        self,
        sim: Simulator,
        operation: Callable[[Callable[[Any], None]], None],
        think_time: float = 5.0,
        operations: int = 100,
    ) -> None:
        self.sim = sim
        self.operation = operation
        self.think_time = think_time
        self.remaining = operations
        self.completed: List[Any] = []

    def start(self) -> None:
        """Kick off the loop."""
        self.sim.schedule(0.0, self._issue)

    def _issue(self) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= 1
        self.operation(self._done)

    def _done(self, result: Any) -> None:
        self.completed.append(result)
        if self.remaining > 0:
            delay = float(self.sim.rng.exponential(self.think_time))
            self.sim.schedule(delay, self._issue)


class PoissonWorkload:
    """Open-loop Poisson arrivals of fire-and-forget operations."""

    def __init__(
        self,
        sim: Simulator,
        operation: Callable[[], None],
        rate: float,
        stop_at: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.operation = operation
        self.rate = rate
        self.stop_at = stop_at
        self.issued = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay = float(self.sim.rng.exponential(1.0 / self.rate))
        self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        self.issued += 1
        self.operation()
        self._schedule_next()
