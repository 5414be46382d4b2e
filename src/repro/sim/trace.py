"""Structured event tracing for the simulator.

Protocol debugging needs to answer "what happened, in what order, at
which node" — a :class:`Tracer` records structured events (time, node,
category, detail), supports filtered queries, renders a readable
timeline, and exports to JSON for offline analysis.  The network and the
failure injectors accept an optional tracer; protocols can emit their
own events through :meth:`Tracer.record`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.errors import SimulationError


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    category: str
    node: Optional[int]
    detail: Dict[str, Any]

    def render(self) -> str:
        """Single-line human-readable form."""
        who = f"node {self.node}" if self.node is not None else "-"
        payload = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.3f}] {self.category:<12} {who:<8} {payload}"


class Tracer:
    """Collects :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Maximum number of retained events (oldest dropped beyond it);
        guards against unbounded memory in long simulations.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise SimulationError("tracer capacity must be positive")
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append one event."""
        if len(self._events) >= self.capacity:
            self._events.pop(0)
            self.dropped += 1
        self._events.append(TraceEvent(time, category, node, dict(detail)))

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    def events(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[TraceEvent]:
        """Filtered events in recording order."""
        return [
            event
            for event in self._events
            if (category is None or event.category == category)
            and (node is None or event.node == node)
            and since <= event.time <= until
        ]

    def categories(self) -> Dict[str, int]:
        """Event counts per category."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def timeline(self, limit: Optional[int] = None, **filters: Any) -> str:
        """Readable multi-line timeline (optionally filtered/truncated)."""
        selected = self.events(**filters)
        if limit is not None:
            selected = selected[-limit:]
        return "\n".join(event.render() for event in selected)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Export all retained events as a JSON array."""
        return json.dumps([asdict(event) for event in self._events])

    def save(self, path: Union[str, Path]) -> None:
        """Write the JSON export to a file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "Tracer":
        """Rebuild a tracer from a JSON export."""
        tracer = cls()
        for blob in json.loads(text):
            tracer.record(
                blob["time"], blob["category"], blob.get("node"), **blob["detail"]
            )
        return tracer


class TracingNetworkMixin:
    """Glue helpers that wire a tracer into an existing network."""

    @staticmethod
    def attach(network, tracer: Tracer) -> None:
        """Wrap a network's send/deliver paths with trace records.

        Non-invasive: monkey-patches the instance, leaving the class
        untouched, so only the instrumented runs pay the cost.
        """
        original_send = network.send
        original_deliver = network._deliver

        def traced_send(src: int, dst: int, message) -> None:
            tracer.record(
                network.sim.now, "send", node=src, dst=dst, kind=message.kind
            )
            original_send(src, dst, message)

        def traced_deliver(src: int, dst: int, message) -> None:
            tracer.record(
                network.sim.now, "deliver", node=dst, src=src, kind=message.kind
            )
            original_deliver(src, dst, message)

        network.send = traced_send
        network._deliver = traced_deliver


def attach_crash_tracing(network, tracer: Tracer) -> None:
    """Record crash/recover transitions of every registered node."""
    for node_id in network.node_ids:
        node = network.node(node_id)
        original_crash = node.crash
        original_recover = node.recover

        def traced_crash(node=node, original=original_crash):
            if node.alive:
                tracer.record(node.sim.now, "crash", node=node.node_id)
            original()

        def traced_recover(node=node, original=original_recover):
            if not node.alive:
                tracer.record(node.sim.now, "recover", node=node.node_id)
            original()

        node.crash = traced_crash
        node.recover = traced_recover
