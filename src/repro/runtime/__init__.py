"""repro.runtime — the deterministic substrate shared by sim and service.

Both execution worlds — the discrete-event simulator (:mod:`repro.sim`)
and the asyncio serving stack (:mod:`repro.service`) — need the same
four ingredients: a clock, seeded randomness, a fault model, and metrics
primitives.  This package is their single implementation:

* :mod:`~repro.runtime.clock` — the :class:`Clock` protocol with
  :class:`WallClock` / :class:`VirtualClock`, plus
  :class:`VirtualTimeLoop` / :func:`run_virtual`, which run ordinary
  asyncio code under simulated time (idle waits become clock jumps);
* :mod:`~repro.runtime.rng` — :class:`RngStreams`, named independent
  random streams derived from one root seed;
* :mod:`~repro.runtime.faults` — the declarative :class:`FaultSchedule`
  fault model (crash/flap/partition/latency/drop/duplicate rules in
  half-open tick windows) driving the service's
  :class:`~repro.service.faults.FaultyTransport`, the simulator's
  :class:`~repro.sim.failures.ScheduleInjector` and measured
  availability, which all read its one crash timeline
  (:meth:`FaultSchedule.crash_down_at`);
* :mod:`~repro.runtime.metrics` — :class:`Counter`, :class:`Gauge` and
  :class:`LatencyHistogram`, which :mod:`repro.sim.metrics` and
  :mod:`repro.service.metrics` are thin views over.

:mod:`~repro.runtime.driver` builds on them: the one workload driver
(op plan plus closed/open-loop client loop) that every serving harness
runs its traffic through.

Layering: ``runtime`` depends only on :mod:`repro.core` (errors) and
numpy — never on ``sim`` or ``service``.
"""

from .clock import Clock, VirtualClock, VirtualTimeLoop, WallClock, run_virtual
from .faults import (
    ByzantineFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultSchedule,
    FlappingFault,
    LatencyFault,
    PartitionFault,
    Window,
    iid_crash_schedule,
    sample_iid_crash_set,
    split_brain_schedule,
)
from .metrics import Counter, Gauge, KeyCounter, LatencyHistogram
from .rng import RngStreams

__all__ = [
    # clock
    "Clock",
    "WallClock",
    "VirtualClock",
    "VirtualTimeLoop",
    "run_virtual",
    # rng
    "RngStreams",
    # faults
    "Window",
    "CrashFault",
    "FlappingFault",
    "PartitionFault",
    "LatencyFault",
    "DropFault",
    "DuplicateFault",
    "ByzantineFault",
    "FaultSchedule",
    "split_brain_schedule",
    "sample_iid_crash_set",
    "iid_crash_schedule",
    # metrics
    "Counter",
    "Gauge",
    "KeyCounter",
    "LatencyHistogram",
]
