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

from ..core.errors import SimulationError
from ..runtime.faults import FaultSchedule
from .network import Network

__all__ = ["ScheduleInjector", "alive_set"]


class ScheduleInjector:
    """Apply a :class:`~repro.runtime.faults.FaultSchedule`'s node
    down-set to a simulated :class:`~repro.sim.network.Network`.

    At every :meth:`~repro.runtime.faults.FaultSchedule.change_points`
    time up to ``horizon`` the injector crashes the nodes in
    ``schedule.crash_down_at(t)`` (crash and flapping rules — the
    node-failure faults) and recovers the rest, so the network always
    matches the schedule.

    Link-level rules (partition/latency/drop/duplicate) are transport
    concerns and are ignored here; symmetric sim partitions remain
    available via :meth:`Network.set_partition`.
    """

    def __init__(self, network: Network, schedule: FaultSchedule, *, horizon: float) -> None:
        if horizon < 0:
            raise SimulationError(f"horizon must be >= 0, got {horizon}")
        self.network = network
        self.sim = network.sim
        self.schedule = schedule
        self.horizon = float(horizon)

    def start(self) -> None:
        """Schedule every application up front (all times are known)."""
        for time in self.schedule.change_points(self.horizon):
            self.sim.schedule_at(time, self._apply, time)

    def _apply(self, time: float) -> None:
        down = self.schedule.crash_down_at(time)
        for node_id in self.network.node_ids:
            node = self.network.node(node_id)
            if node_id in down:
                node.crash()
            else:
                node.recover()


def alive_set(network: Network) -> frozenset:
    """The ids of currently alive nodes."""
    return frozenset(
        node_id
        for node_id in network.node_ids
        if network.node(node_id).alive
    )
