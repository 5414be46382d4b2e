"""Serving layer: an asyncio quorum-replicated key-value store.

Turns any :class:`~repro.core.quorum_system.QuorumSystem` in the repo
into a running service:

* :mod:`repro.service.replica` — per-element versioned replicas
  (timestamp ordering, read-repair targets);
* :mod:`repro.service.transport` — the transport interface and the
  one TCP client, the coalescing binary wire-v2 transport
  (:mod:`repro.service.wire`), with its replica servers;
* :mod:`repro.service.simtransport` — the one in-memory substrate:
  seeded latencies spent on a clock (virtual time under
  :func:`~repro.runtime.clock.run_virtual`) and iid crash epochs
  shared with :mod:`repro.sim.failures`;
* :mod:`repro.service.cluster` — multi-process replica hosting
  (``workers=N`` OS processes behind one address map) with crash
  detection;
* :mod:`repro.service.coordinator` — strategy-sampling coordinator with
  concurrent fan-out, per-request timeouts, capped-exponential-backoff
  retries and fallback to quorums avoiding suspected-down replicas;
* :mod:`repro.service.metrics` — observed per-element load (comparable
  to the LP-predicted load of Definition 3.4), latency percentiles,
  success rate;
* :mod:`repro.service.loadgen` — the kvbench and capacity benchmarks
  behind ``quorumtool kvbench``, driven by the shared workload driver
  (:mod:`repro.runtime.driver`);
* :mod:`repro.service.faults` — :class:`FaultyTransport`, which applies
  a declarative :class:`~repro.runtime.faults.FaultSchedule` (crash
  windows, asymmetric partitions, latency spikes, drop/duplication,
  flapping) over any transport;
* :mod:`repro.service.cache` — coordinator-side TTL +
  stale-while-revalidate read cache (the tier the cache-avalanche
  incident exercises);
* :class:`ChaosConfig` / :func:`run_chaos` — seeded randomized chaos
  runs with safety invariant checking and measured-vs-exact
  availability, behind ``quorumtool chaos``; resolved lazily from
  :mod:`repro.scenarios.engine`, where the engine lives.
"""

from .cache import CacheEntry, CoordinatorCache
from .coordinator import Coordinator, OperationFailed, ReadResult, WriteResult
from .faults import ActivationLog, FaultyTransport
from .loadgen import (
    BenchmarkReport,
    WorkloadConfig,
    run_capacity_benchmark,
    run_kv_benchmark,
    run_workload,
)
from .cluster import ReplicaCluster
from .metrics import ServiceMetrics, transport_summary
from .replica import NULL_TIMESTAMP, Replica, Versioned, make_replicas
from .simtransport import InProcessTransport, SimTransport
from .transport import (
    DEFAULT_TIMEOUT_MS,
    BinaryTcpTransport,
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    Transport,
    TransportError,
    start_tcp_replicas,
)
from .wire import WireError

# The chaos engine lives in repro.scenarios.engine (which imports the
# service submodules above); resolve its exports lazily (PEP 562) so
# `from repro.service import run_chaos` keeps working without a cycle.
_CHAOS_EXPORTS = ("ChaosConfig", "ChaosReport", "run_chaos")


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from ..scenarios import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BenchmarkReport",
    "BinaryTcpTransport",
    "CacheEntry",
    "ChaosConfig",
    "CoordinatorCache",
    "ChaosReport",
    "Coordinator",
    "ActivationLog",
    "DEFAULT_TIMEOUT_MS",
    "FaultyTransport",
    "InProcessTransport",
    "NULL_TIMESTAMP",
    "OperationFailed",
    "ReadResult",
    "Replica",
    "ReplicaCluster",
    "ReplicaUnavailable",
    "Reply",
    "RequestTimeout",
    "ServiceMetrics",
    "SimTransport",
    "Transport",
    "TransportError",
    "Versioned",
    "WireError",
    "WorkloadConfig",
    "WriteResult",
    "make_replicas",
    "run_chaos",
    "run_capacity_benchmark",
    "run_kv_benchmark",
    "run_workload",
    "start_tcp_replicas",
    "transport_summary",
]
