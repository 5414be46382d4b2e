"""Quorum-replicated register (the h-grid protocol's data operations).

The hierarchical grid of [9] was proposed to manage replicated data with
three operations (§4.1 of the paper):

* ``read``        — needs a **read quorum** (row-cover); concurrent reads
  are allowed;
* ``blind write`` — needs a **write quorum** (full-line); concurrent
  blind writes are allowed (last-writer-wins by timestamp);
* ``read-write``  — needs a **read-write quorum** and gives exclusive
  read-modify-write semantics (version = max seen + 1).

Because every read quorum intersects every write quorum, a read always
sees the latest completed write's version; the test suite asserts this
*regular register* property under message delays and crashes.

An operation succeeds only if every member of the chosen quorum responds
before the timeout — matching the availability semantics analysed in the
paper (a quorum must be fully alive).  Clients may retry over several
candidate quorums; the oracle probe in :mod:`repro.sim.failures` measures
the analytic availability directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...core.errors import ProtocolError
from ...core.quorum_system import Quorum
from ..network import Message, Network
from ..node import Node

Version = Tuple[float, int]  # (sequence-or-timestamp, writer id)


@dataclass
class OperationResult:
    """Outcome of a client operation."""

    kind: str
    ok: bool
    value: Any = None
    version: Optional[Version] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 1

    @property
    def latency(self) -> float:
        """Virtual-time duration of the operation."""
        return self.finished_at - self.started_at


class ReplicaNode(Node):
    """Stores one versioned copy of the register.

    Replica state is durable across crashes (the paper's crashes are
    transient process outages, not disk losses); while down, the replica
    simply does not respond, which is what makes quorums unavailable.
    """

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.version: Version = (0.0, -1)
        self.value: Any = None
        self.reads_served = 0
        self.writes_served = 0

    def on_message(self, src: int, message: Message) -> None:
        if message.kind == "read_req":
            self.reads_served += 1
            self.send(
                src,
                Message(
                    "read_resp",
                    {
                        "op": message.payload["op"],
                        "version": self.version,
                        "value": self.value,
                    },
                ),
            )
        elif message.kind == "write_req":
            version = tuple(message.payload["version"])
            if version > self.version:
                self.version = version
                self.value = message.payload["value"]
            self.writes_served += 1
            self.send(src, Message("write_ack", {"op": message.payload["op"]}))
        else:
            raise ProtocolError(f"replica got unknown message {message.kind!r}")


class ReplicatedRegisterClient(Node):
    """Client executing read / blind-write / read-write operations.

    Parameters
    ----------
    node_id:
        Client id (use ids disjoint from the replicas').
    network:
        The shared network.
    timeout:
        Virtual-time budget per quorum attempt.
    """

    def __init__(self, node_id: int, network: Network, timeout: float = 50.0) -> None:
        super().__init__(node_id, network)
        self.timeout = timeout
        self.results: List[OperationResult] = []
        self._op_counter = itertools.count()
        self._pending: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def read(
        self,
        quorums: Sequence[Quorum],
        on_done: Optional[Callable[[OperationResult], None]] = None,
    ) -> None:
        """Regular read over candidate read quorums (tried in order)."""
        self._start_op("read", list(quorums), None, on_done)

    def blind_write(
        self,
        quorums: Sequence[Quorum],
        value: Any,
        on_done: Optional[Callable[[OperationResult], None]] = None,
    ) -> None:
        """Blind write over write quorums: timestamp ordering, one phase."""
        self._start_op("blind_write", list(quorums), value, on_done)

    def read_write(
        self,
        quorums: Sequence[Quorum],
        update: Callable[[Any], Any],
        on_done: Optional[Callable[[OperationResult], None]] = None,
    ) -> None:
        """Read-modify-write over read-write quorums: two phases
        (collect versions, then write max+1)."""
        self._start_op("read_write", list(quorums), update, on_done)

    # ------------------------------------------------------------------
    # Operation machinery
    # ------------------------------------------------------------------
    def _start_op(self, kind, quorums, argument, on_done) -> None:
        if not quorums:
            raise ProtocolError("operation needs at least one candidate quorum")
        op = next(self._op_counter)
        self._pending[op] = {
            "kind": kind,
            "quorums": quorums,
            "attempt": 0,
            "argument": argument,
            "on_done": on_done,
            "started_at": self.sim.now,
            "phase": None,
            "waiting": set(),
            "responses": {},
        }
        self._attempt(op)

    def _attempt(self, op: int) -> None:
        state = self._pending.get(op)
        if state is None:
            return
        if state["attempt"] >= len(state["quorums"]):
            self._finish(op, ok=False)
            return
        quorum = frozenset(state["quorums"][state["attempt"]])
        state["attempt"] += 1
        state["quorum"] = quorum
        state["waiting"] = set(quorum)
        state["responses"] = {}
        kind = state["kind"]
        if kind == "blind_write":
            state["phase"] = "write"
            version = (self.sim.now, self.node_id)
            state["version"] = version
            for member in sorted(quorum):
                self.send(
                    member,
                    Message(
                        "write_req",
                        {"op": op, "version": version, "value": state["argument"]},
                    ),
                )
        else:
            state["phase"] = "read"
            for member in sorted(quorum):
                self.send(member, Message("read_req", {"op": op}))
        attempt_index = state["attempt"]
        self.sim.schedule(self.timeout, self._check_timeout, op, attempt_index)

    def _check_timeout(self, op: int, attempt_index: int) -> None:
        state = self._pending.get(op)
        if state is None or state["attempt"] != attempt_index:
            return
        if state["waiting"]:
            self._attempt(op)  # try the next candidate quorum

    def on_message(self, src: int, message: Message) -> None:
        op = message.payload.get("op")
        state = self._pending.get(op)
        if state is None or src not in state["waiting"]:
            return
        state["waiting"].discard(src)
        if message.kind == "read_resp":
            state["responses"][src] = (
                tuple(message.payload["version"]),
                message.payload["value"],
            )
        if state["waiting"]:
            return
        self._phase_complete(op)

    def _phase_complete(self, op: int) -> None:
        state = self._pending[op]
        kind = state["kind"]
        if state["phase"] == "read":
            version, value = max(state["responses"].values(), key=lambda vv: vv[0])
            if kind == "read":
                state["version"], state["value"] = version, value
                self._finish(op, ok=True)
                return
            # read_write: move to the write phase with version max+1.
            new_value = state["argument"](value)
            new_version = (version[0] + 1.0, self.node_id)
            state["version"], state["value"] = new_version, new_value
            state["phase"] = "write"
            state["waiting"] = set(state["quorum"])
            for member in sorted(state["quorum"]):
                self.send(
                    member,
                    Message(
                        "write_req",
                        {"op": op, "version": new_version, "value": new_value},
                    ),
                )
            return
        # Write phase complete.
        state["value"] = state.get("value", state.get("argument"))
        self._finish(op, ok=True)

    def _finish(self, op: int, ok: bool) -> None:
        state = self._pending.pop(op)
        result = OperationResult(
            kind=state["kind"],
            ok=ok,
            value=state.get("value"),
            version=state.get("version"),
            started_at=state["started_at"],
            finished_at=self.sim.now,
            attempts=state["attempt"],
        )
        self.results.append(result)
        if state["on_done"] is not None:
            state["on_done"](result)
