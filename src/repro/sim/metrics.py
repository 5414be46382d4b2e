"""Measurement helpers for simulation experiments.

Bridges the simulator back to the paper's metrics:

* :func:`schedule_availability` — per tick of a
  :class:`~repro.runtime.faults.FaultSchedule`, whether the elements the
  schedule leaves up contain a quorum, as a
  :class:`~repro.analysis.montecarlo.MonteCarloEstimate` whose failure
  rate converges to the analytic ``F_p`` (Definition 3.2) under the iid
  crash model;
* :class:`LoadMeter` — per-replica request counts; normalised frequencies
  converge to the strategy's induced element loads (Definition 3.4),
  filled by sampling a strategy in :func:`measure_strategy_load`.

Latency aggregation is the shared
:class:`~repro.runtime.metrics.LatencyHistogram`.
"""

from __future__ import annotations

import numpy as np

from ..analysis.montecarlo import MonteCarloEstimate
from ..core.quorum_system import QuorumSystem
from ..core.strategy import Strategy
from ..runtime.faults import FaultSchedule
from ..runtime.metrics import Counter


def schedule_availability(
    system: QuorumSystem, schedule: FaultSchedule, ticks: int
) -> MonteCarloEstimate:
    """Count the ticks ``0 .. ticks-1`` at which ``schedule`` leaves no
    live quorum.

    The live set of a tick is the universe minus
    :meth:`~repro.runtime.faults.FaultSchedule.crash_down_at` (crash and
    flapping rules: node failures, not link faults); every tick's set is
    tested in one :meth:`~repro.core.quorum_system.QuorumSystem.contains_quorum_many`
    call.
    """
    universe = frozenset(system.universe.ids)
    live = system.contains_quorum_many(
        [universe - schedule.crash_down_at(float(tick)) for tick in range(ticks)]
    )
    return MonteCarloEstimate(samples=ticks, failures=ticks - int(live.sum()))


class LoadMeter:
    """Per-element request counts, comparable to analytic loads.

    The per-element tallies stay a numpy array (they are vector-divided
    into frequencies); the operation count is a runtime counter.
    """

    def __init__(self, n: int) -> None:
        self.counts = np.zeros(n, dtype=np.int64)
        self.operations = Counter()

    def record_quorum(self, quorum) -> None:
        """Count one access to each member of the used quorum."""
        self.operations += 1
        for element in quorum:
            self.counts[element] += 1

    def empirical_loads(self) -> np.ndarray:
        """Access frequency of every element (per operation)."""
        if self.operations == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / int(self.operations)

    @property
    def max_load(self) -> float:
        """Empirical load of the busiest element."""
        return float(self.empirical_loads().max())


def measure_strategy_load(
    strategy: Strategy,
    operations: int = 20_000,
    seed: int = 0,
) -> LoadMeter:
    """Sample the strategy and return per-element access frequencies.

    The meter's max load estimates the strategy's induced load
    (Def. 3.4).
    """
    meter = LoadMeter(strategy.system.n)
    rng = np.random.default_rng(seed)
    for _ in range(operations):
        meter.record_quorum(strategy.sample(rng))
    return meter
