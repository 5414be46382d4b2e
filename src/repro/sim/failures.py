"""Failure injection for the simulator.

The paper's availability analysis assumes *iid transient crashes*: at any
instant each process is down independently with probability ``p``.
Since the runtime unification the canonical way to realise that model is
declarative: build a :class:`~repro.runtime.faults.FaultSchedule` (e.g.
via :func:`~repro.runtime.faults.iid_crash_schedule`) and apply it to
the network with :class:`ScheduleInjector`.  The same schedule object
also drives the serving layer's
:class:`~repro.service.faults.FaultyTransport`, so sim experiments and
chaos runs share one fault description.

Targeted crashes are ``CrashFault`` windows in a schedule; the paper's
iid model is :func:`~repro.runtime.faults.iid_crash_schedule`.  Network
partitions as *symmetric link cuts* remain a sim-only concept
(:meth:`Network.set_partition` / ``heal_partition`` from scheduled
events); the schedule's ``PartitionFault`` is a client-site reachability
rule and is applied by the transport layer, not by
:class:`ScheduleInjector`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from ..runtime.faults import (
    CrashFault,
    FaultSchedule,
    FlappingFault,
    iid_crash_schedule,
    sample_iid_crash_set,
)
from .network import Network

__all__ = [
    "sample_iid_crash_set",
    "iid_crash_schedule",
    "ScheduleInjector",
    "alive_set",
]


class ScheduleInjector:
    """Apply a :class:`~repro.runtime.faults.FaultSchedule`'s node
    down-set to a simulated :class:`~repro.sim.network.Network`.

    The injector evaluates ``schedule.crash_down_at(t)`` (crash and
    flapping rules — the node-failure faults) and crashes/recovers nodes
    so the network always matches the schedule.  Two stepping modes:

    * **event-driven** (default): apply at every change point of the
      schedule up to ``horizon`` — minimal event count;
    * **fixed cadence** (``step=``): apply every ``step`` ticks from 0 to
      ``horizon`` inclusive, invoking ``on_step(index)`` after each
      application — the epoch-sampling shape availability probes expect
      (:meth:`repro.sim.metrics.AvailabilityProbe.observe` plugs straight
      into ``on_step``).

    Link-level rules (partition/latency/drop/duplicate) are transport
    concerns and are ignored here; symmetric sim partitions remain
    available via :meth:`Network.set_partition`.
    """

    def __init__(
        self,
        network: Network,
        schedule: FaultSchedule,
        *,
        horizon: float,
        step: Optional[float] = None,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> None:
        if horizon < 0:
            raise SimulationError(f"horizon must be >= 0, got {horizon}")
        if step is not None and step <= 0:
            raise SimulationError(f"step must be positive, got {step}")
        if on_step is not None and step is None:
            raise SimulationError("on_step requires a fixed step cadence")
        self.network = network
        self.sim = network.sim
        self.schedule = schedule
        self.horizon = float(horizon)
        self.step = step
        self.on_step = on_step
        self.steps_run = 0
        # Applications happen in ascending time order, so the down-set is
        # maintained incrementally with one sweep over the schedule's
        # activation/deactivation events: O(rules + applications) for a
        # whole run, where evaluating crash_down_at() per application
        # would be O(rules * applications) — ruinous for the 30k-epoch
        # availability experiments.
        self._events = self._down_events()
        self._cursor = 0
        self._down_counts: Dict[int, int] = {}

    def _down_events(self) -> List[Tuple[float, int, frozenset]]:
        """Sorted ``(time, +1/-1, replicas)`` down-set change events."""
        events: List[Tuple[float, int, frozenset]] = []
        for fault in self.schedule:
            if isinstance(fault, CrashFault):
                if fault.window.start > self.horizon:
                    continue
                events.append((fault.window.start, +1, fault.replicas))
                if fault.window.end != math.inf:
                    events.append((fault.window.end, -1, fault.replicas))
            elif isinstance(fault, FlappingFault):
                start, end = fault.window
                half = fault.period * fault.down_fraction
                cycle = 0
                while True:
                    base = start + cycle * fault.period
                    if base >= end or base > self.horizon:
                        break
                    events.append((base, +1, fault.replicas))
                    events.append((min(base + half, end), -1, fault.replicas))
                    cycle += 1
        events.sort(key=lambda event: (event[0], -event[1]))
        return events

    def start(self) -> None:
        """Schedule every application up front (all times are known)."""
        if self.step is None:
            for time in self.schedule.change_points(self.horizon):
                self.sim.schedule_at(time, self._apply, time)
        else:
            index = 0
            while True:
                time = index * self.step
                if time > self.horizon + 1e-9:
                    break
                self.sim.schedule_at(time, self._step, index, time)
                index += 1

    def _apply(self, time: float) -> None:
        # Fold in every event up to and including `time`; the half-open
        # [start, end) window semantics match crash_down_at() exactly
        # (the deactivation event at `end` fires at t == end).
        while self._cursor < len(self._events) and self._events[self._cursor][0] <= time:
            _, sign, replicas = self._events[self._cursor]
            for replica in replicas:
                self._down_counts[replica] = self._down_counts.get(replica, 0) + sign
            self._cursor += 1
        for node_id in self.network.node_ids:
            node = self.network.node(node_id)
            if self._down_counts.get(node_id, 0) > 0:
                node.crash()
            else:
                node.recover()

    def _step(self, index: int, time: float) -> None:
        self._apply(time)
        if self.on_step is not None:
            self.on_step(index)
        self.steps_run += 1


def alive_set(network: Network) -> frozenset:
    """The ids of currently alive nodes (availability-probe helper)."""
    return frozenset(
        node_id
        for node_id in network.node_ids
        if network.node(node_id).alive
    )
