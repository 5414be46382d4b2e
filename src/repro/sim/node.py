"""Process (node) abstraction for the simulator.

A node is a message-driven state machine with a crash/recover lifecycle
matching the paper's failure model: crashes are transient (the node
eventually recovers) and a crashed node neither sends nor receives.
Protocol classes subclass :class:`Node` and implement
:meth:`Node.on_message`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Message, Network


class Node:
    """A process in the distributed system.

    Parameters
    ----------
    node_id:
        Unique integer identity (matches the quorum-system element id).
    network:
        The network the node is attached to (auto-registers).
    """

    def __init__(self, node_id: int, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        self.sim = network.sim
        self.alive = True
        self.crash_count = 0
        self.messages_handled = 0
        network.register(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the node: it stops handling messages and loses any
        volatile protocol state (see :meth:`on_crash`)."""
        if self.alive:
            self.alive = False
            self.crash_count += 1
            self.on_crash()

    def recover(self) -> None:
        """Bring the node back (transient failures, paper §3)."""
        if not self.alive:
            self.alive = True
            self.on_recover()

    def on_crash(self) -> None:
        """Hook: clear volatile state.  Default does nothing."""

    def on_recover(self) -> None:
        """Hook: reinitialise after recovery.  Default does nothing."""

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: int, message: "Message") -> None:
        """Send a message (silently ignored while crashed)."""
        if self.alive:
            self.network.send(self.node_id, dst, message)

    def receive(self, src: int, message: "Message") -> None:
        """Called by the network on delivery."""
        if not self.alive:
            return
        self.messages_handled += 1
        self.on_message(src, message)

    def on_message(self, src: int, message: "Message") -> None:
        """Protocol logic; subclasses must override."""
        raise SimulationError(
            f"node {self.node_id} received {message.kind!r} but defines no handler"
        )

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} id={self.node_id} {state}>"
