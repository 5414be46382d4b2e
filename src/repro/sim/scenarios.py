"""Canned measurement experiments.

Each helper runs one of the paper's bridges between analysis and
measurement as one call, with every knob still exposed.
"""

from __future__ import annotations

import numpy as np

from ..core.quorum_system import QuorumSystem
from ..core.strategy import Strategy
from ..runtime.faults import iid_crash_schedule
from .metrics import AvailabilityProbe, LoadMeter, schedule_availability


def measure_availability(
    system: QuorumSystem,
    p: float,
    epochs: int = 20_000,
    seed: int = 0,
) -> AvailabilityProbe:
    """Run the iid crash-epoch experiment and return the filled probe.

    The probe's failure rate estimates the paper's ``F_p`` (Def. 3.2);
    its confidence half-width bounds the sampling error.

    The crash model is a declarative
    :func:`~repro.runtime.faults.iid_crash_schedule` over epochs
    ``0 .. epochs`` (one draw per element per epoch, in id order, from
    ``numpy.random.default_rng(seed)``), read at every epoch by
    :func:`~repro.sim.metrics.schedule_availability`, so measured rates
    are bit-stable per seed.
    """
    rng = np.random.default_rng(seed)
    schedule = iid_crash_schedule(
        rng, sorted(system.universe.ids), p, horizon=float(epochs), epoch=1.0
    )
    return schedule_availability(system, schedule, epochs + 1)


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
