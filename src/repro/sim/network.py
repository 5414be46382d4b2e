"""Simulated message-passing network.

Nodes communicate exclusively by messages routed through a
:class:`Network`, which models latency (several distributions), message
loss and network partitions — the failure environment quorum systems are
designed for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from ..core.errors import SimulationError
from .engine import Simulator


@dataclass(frozen=True)
class Message:
    """A protocol message.

    ``kind`` is a short protocol-specific verb (``"request"``,
    ``"grant"``, ...); ``payload`` carries the data.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"Message({self.kind}, {self.payload})"


class LatencyModel:
    """Base latency model: fixed delay."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise SimulationError(f"latency must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, sim: Simulator) -> float:
        """Delay for the next message."""
        return self.delay


class UniformLatency(LatencyModel):
    """Uniform latency on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"bad latency range [{low}, {high}]")
        super().__init__(low)
        self.low = low
        self.high = high

    def sample(self, sim: Simulator) -> float:
        return float(sim.rng.uniform(self.low, self.high))


class ExponentialLatency(LatencyModel):
    """Exponential latency with the given mean (plus optional floor)."""

    def __init__(self, mean: float, floor: float = 0.0) -> None:
        super().__init__(floor)
        self.mean = mean
        self.floor = floor

    def sample(self, sim: Simulator) -> float:
        return self.floor + float(sim.rng.exponential(self.mean))


class Network:
    """Routes messages between registered nodes.

    Parameters
    ----------
    sim:
        The event loop.
    latency:
        Latency model applied per message.
    drop_probability:
        Independent loss probability per message.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise SimulationError(
                f"drop probability must be in [0, 1), got {drop_probability}"
            )
        self.sim = sim
        self.latency = latency or LatencyModel(1.0)
        self.drop_probability = drop_probability
        self._nodes: Dict[int, "Node"] = {}
        self._partition: Optional[List[Set[int]]] = None
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Attach a node; its id must be unique."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> "Node":
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    @property
    def node_ids(self) -> List[int]:
        """All registered node ids, sorted."""
        return sorted(self._nodes)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network: messages may only travel within a group."""
        sets = [set(g) for g in groups]
        self._partition = sets

    def heal_partition(self) -> None:
        """Remove any partition."""
        self._partition = None

    def _connected(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return True
        for group in self._partition:
            if src in group and dst in group:
                return True
        return False

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        """Send a message; it may be dropped, delayed or partitioned away."""
        self.messages_sent += 1
        if not self._connected(src, dst):
            self.messages_dropped += 1
            return
        if self.drop_probability and self.sim.rng.random() < self.drop_probability:
            self.messages_dropped += 1
            return
        delay = self.latency.sample(self.sim)
        self.sim.schedule(delay, self._deliver, src, dst, message)

    def _deliver(self, src: int, dst: int, message: Message) -> None:
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        node.receive(src, message)


# Imported at the bottom to avoid a cycle (node.py imports Network for
# type checking only).
from .node import Node  # noqa: E402  (deliberate tail import)
