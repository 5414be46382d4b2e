"""Discrete-event simulation substrate.

The distributed-system environment the paper's quorum systems coordinate:
message-passing nodes with transient crashes, lossy links and partitions,
plus the two classic quorum protocols (mutual exclusion and replicated
data) and the instrumentation that ties simulated behaviour back to the
analytic metrics.  Crashes come from a
:class:`~repro.runtime.faults.FaultSchedule`: the injector applies its
down-set to the network, and availability is measured by reading the
schedule itself (:func:`~repro.sim.metrics.schedule_availability`).
"""

from .engine import Simulator
from .failures import ScheduleInjector, alive_set
from .metrics import AvailabilityProbe, LoadMeter, schedule_availability
from .network import (
    ExponentialLatency,
    LatencyModel,
    Message,
    Network,
    UniformLatency,
)
from .node import Node
from .scenarios import measure_availability, measure_strategy_load
from .protocols.mutex import MutexMonitor, MutexNode
from .protocols.reconfiguration import ReconfigurableRegister
from .protocols.rwlock import RWLockMonitor, RWLockNode
from .protocols.replication import (
    OperationResult,
    ReplicaNode,
    ReplicatedRegisterClient,
)

__all__ = [
    "AvailabilityProbe",
    "ExponentialLatency",
    "LatencyModel",
    "LoadMeter",
    "Message",
    "MutexMonitor",
    "MutexNode",
    "Network",
    "Node",
    "OperationResult",
    "RWLockMonitor",
    "RWLockNode",
    "ReconfigurableRegister",
    "ReplicaNode",
    "ReplicatedRegisterClient",
    "ScheduleInjector",
    "Simulator",
    "UniformLatency",
    "alive_set",
    "measure_availability",
    "measure_strategy_load",
    "schedule_availability",
]
