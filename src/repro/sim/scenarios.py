"""Canned experiment scenarios.

The examples and benchmarks all assemble the same building blocks —
simulator, network, replicas/lock nodes, failure injection, probes.
These helpers standardise the assembly so an experiment reads as one
call, with every knob still exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.quorum_system import QuorumSystem
from ..core.strategy import Strategy
from ..runtime.faults import iid_crash_schedule
from .engine import Simulator
from .failures import ScheduleInjector
from .metrics import AvailabilityProbe, LoadMeter
from .network import LatencyModel, Network
from .node import Node
from .protocols.mutex import MutexMonitor, MutexNode
from .protocols.replication import ReplicaNode, ReplicatedRegisterClient


class _Sink(Node):
    """A node that exists only to be crashed/probed."""

    def on_message(self, src, message) -> None:  # pragma: no cover
        pass


@dataclass
class ReplicatedCluster:
    """A simulator with one replica per system element plus a client."""

    system: QuorumSystem
    sim: Simulator
    network: Network
    replicas: List[ReplicaNode]
    client: ReplicatedRegisterClient


def replicated_cluster(
    system: QuorumSystem,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    timeout: float = 50.0,
    client_id: int = 10_000,
) -> ReplicatedCluster:
    """Build a replicated-register cluster over the system's universe."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency)
    replicas = [ReplicaNode(element, network) for element in system.universe.ids]
    client = ReplicatedRegisterClient(client_id, network, timeout=timeout)
    return ReplicatedCluster(system, sim, network, replicas, client)


@dataclass
class MutexCluster:
    """A simulator with one mutex node per element and a safety monitor."""

    system: QuorumSystem
    sim: Simulator
    network: Network
    nodes: List[MutexNode]
    monitor: MutexMonitor


def mutex_cluster(
    system: QuorumSystem,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    capacity: int = 1,
) -> MutexCluster:
    """Build a mutual-exclusion cluster with a capacity-aware monitor."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency)
    nodes = [MutexNode(element, network) for element in system.universe.ids]
    return MutexCluster(system, sim, network, nodes, MutexMonitor(capacity=capacity))


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
    :func:`~repro.runtime.faults.iid_crash_schedule` drawn from the
    simulator RNG (one draw per element per epoch, in id order), so
    measured rates are bit-stable per seed.
    """
    sim = Simulator(seed=seed)
    network = Network(sim)
    for element in system.universe.ids:
        _Sink(element, network)
    probe = AvailabilityProbe(system, network)
    horizon = float(epochs)
    schedule = iid_crash_schedule(
        sim.rng, network.node_ids, p, horizon=horizon, epoch=1.0
    )
    injector = ScheduleInjector(
        network, schedule, horizon=horizon, step=1.0, on_step=probe.observe
    )
    injector.start()
    sim.run(until=horizon)
    return probe


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
