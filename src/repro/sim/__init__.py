"""Discrete-event simulation substrate.

The distributed-system environment the paper's quorum systems coordinate:
message-passing nodes with transient crashes, lossy links and partitions,
plus the two classic quorum protocols (mutual exclusion and replicated
data) and the instrumentation that ties simulated behaviour back to the
analytic metrics.
"""

from .engine import Simulator
from .failures import (
    ScheduleInjector,
    alive_set,
    iid_crash_schedule,
    sample_iid_crash_set,
)
from .metrics import AvailabilityProbe, LatencyStats, LoadMeter
from .network import (
    ExponentialLatency,
    LatencyModel,
    Message,
    Network,
    UniformLatency,
)
from .node import Node
from .scenarios import (
    MutexCluster,
    ReplicatedCluster,
    measure_availability,
    measure_strategy_load,
    mutex_cluster,
    replicated_cluster,
)
from .trace import Tracer, TracingNetworkMixin, attach_crash_tracing
from .protocols.mutex import MutexMonitor, MutexNode
from .protocols.reconfiguration import ReconfigurableRegister
from .protocols.rwlock import RWLockMonitor, RWLockNode
from .protocols.replication import (
    OperationResult,
    ReplicaNode,
    ReplicatedRegisterClient,
)
from .workload import ClosedLoopWorkload, PoissonWorkload, QuorumPicker

__all__ = [
    "AvailabilityProbe",
    "ClosedLoopWorkload",
    "ExponentialLatency",
    "LatencyModel",
    "LatencyStats",
    "LoadMeter",
    "Message",
    "MutexCluster",
    "MutexMonitor",
    "MutexNode",
    "Network",
    "Node",
    "OperationResult",
    "PoissonWorkload",
    "RWLockMonitor",
    "RWLockNode",
    "ReconfigurableRegister",
    "QuorumPicker",
    "ReplicatedCluster",
    "ReplicaNode",
    "ReplicatedRegisterClient",
    "ScheduleInjector",
    "Simulator",
    "Tracer",
    "TracingNetworkMixin",
    "attach_crash_tracing",
    "UniformLatency",
    "alive_set",
    "iid_crash_schedule",
    "measure_availability",
    "measure_strategy_load",
    "mutex_cluster",
    "replicated_cluster",
    "sample_iid_crash_set",
]
