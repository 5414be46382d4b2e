"""Per-element replica servers for the quorum-replicated key-value store.

Each element of the quorum system's universe is backed by one
:class:`Replica` holding a versioned copy of every key it has seen.
Versions are ordered by ``(counter, writer)`` timestamps — the classic
lexicographic logical-clock order — so concurrent coordinators converge:
a replica applies a write only when its timestamp is strictly newer than
the stored one, which makes writes idempotent and reorderable.

Replicas are transport-agnostic: :meth:`Replica.handle` maps a request
dict to a response dict; the in-memory ``SimTransport`` speaks exactly
that dict protocol, and the binary TCP transport
(:mod:`repro.service.transport`) carries it through the wire v2 codec.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem

#: Timestamp of a key that was never written: older than every real write.
NULL_TIMESTAMP: Tuple[int, int] = (0, -1)


class Versioned(NamedTuple):
    """A stored value together with its logical timestamp."""

    value: Any
    counter: int
    writer: int

    @property
    def timestamp(self) -> Tuple[int, int]:
        """The ``(counter, writer)`` pair; compared lexicographically."""
        return (self.counter, self.writer)


class Replica:
    """In-memory versioned store for one element of the universe.

    Parameters
    ----------
    replica_id:
        Dense element id this replica backs.
    name:
        Optional user-facing element name (e.g. a grid coordinate).
    on_apply:
        Optional journal hook invoked as ``on_apply(key, counter, writer)``
        after every stored write (regular, repair or hinted-handoff
        replay).  The chaos harness uses it to verify that stored
        timestamps only ever move forward.
    """

    def __init__(
        self,
        replica_id: int,
        name: Optional[object] = None,
        on_apply: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        self.replica_id = replica_id
        self.name = replica_id if name is None else name
        self.on_apply = on_apply
        self.store: Dict[str, Versioned] = {}
        self.reads_served = 0
        self.writes_applied = 0
        self.writes_ignored = 0
        self.repairs_applied = 0
        self.joins_served = 0
        # coordinator id -> last granted lease TTL (ops); the replica's
        # view of who currently holds a quorum lease through it.
        self.lessees: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Versioned]:
        """Current version of ``key``, or ``None`` if never written."""
        return self.store.get(key)

    def apply_write(self, key: str, value: Any, counter: int, writer: int) -> bool:
        """Apply a (possibly stale) write; returns True when stored.

        Timestamp ordering: the write lands only when ``(counter, writer)``
        is strictly newer than the stored version, so replayed and
        out-of-order writes are harmless.
        """
        incoming = (counter, writer)
        current = self.store.get(key)
        if current is not None and incoming <= current.timestamp:
            self.writes_ignored += 1
            return False
        self.store[key] = Versioned(value, counter, writer)
        self.writes_applied += 1
        if self.on_apply is not None:
            self.on_apply(key, counter, writer)
        return True

    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; always returns a response dict.

        Operations: ``read``, ``write``, ``repair`` (a write issued by
        read-repair, tracked separately), ``keys`` (the key census the
        resharding handoff enumerates migrating state with) and
        ``ping``.  Malformed requests yield ``{"ok": False, "error":
        ...}`` rather than an exception so a broken client cannot kill a
        TCP replica server.
        """
        try:
            op = request.get("op")
            if op == "read":
                return self._handle_read(request)
            if op in ("write", "repair"):
                return self._handle_write(request, repair=op == "repair")
            if op == "keys":
                return {
                    "ok": True,
                    "replica": self.replica_id,
                    "keys": sorted(self.store),
                }
            if op == "ping":
                return {"ok": True, "replica": self.replica_id}
            if op == "join":
                return self._handle_join(request)
            raise ServiceError(f"unknown operation {op!r}")
        except ServiceError as exc:
            return {"ok": False, "replica": self.replica_id, "error": str(exc)}

    def handle_batch(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Serve a coalesced batch of requests, one response per request.

        The binary transport's replica servers decode a whole frame and
        apply it through this single call — one pass over the batch, one
        reply frame, one writer wakeup — instead of interleaving the
        event loop between ops.  Semantically identical to calling
        :meth:`handle` per request in order.
        """
        handle = self.handle
        return [handle(request) for request in requests]

    def _handle_read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = _require_key(request)
        self.reads_served += 1
        version = self.store.get(key)
        if version is None:
            counter, writer = NULL_TIMESTAMP
            return {
                "ok": True,
                "replica": self.replica_id,
                "value": None,
                "counter": counter,
                "writer": writer,
            }
        return {
            "ok": True,
            "replica": self.replica_id,
            "value": version.value,
            "counter": version.counter,
            "writer": version.writer,
        }

    def _handle_join(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Grant a quorum lease to a coordinator (Timed-Quorum re-join).

        The replica side of the handshake is deliberately thin: record
        the lessee and acknowledge.  Reachability *is* the validation —
        a coordinator whose join cannot reach every member must fall
        back to a different quorum, which is what turns static
        membership into a dynamic one.
        """
        try:
            coordinator = int(request["coordinator"])
            ttl = int(request.get("ttl", 0))
        except (KeyError, TypeError, ValueError):
            raise ServiceError("join needs an integer 'coordinator'")
        if ttl < 0:
            raise ServiceError(f"join ttl must be >= 0, got {ttl}")
        self.joins_served += 1
        self.lessees[coordinator] = ttl
        return {
            "ok": True,
            "replica": self.replica_id,
            "granted": True,
            "ttl": ttl,
        }

    def _handle_write(self, request: Dict[str, Any], repair: bool) -> Dict[str, Any]:
        key = _require_key(request)
        try:
            counter = int(request["counter"])
            writer = int(request["writer"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError("write needs integer 'counter' and 'writer'")
        applied = self.apply_write(key, request.get("value"), counter, writer)
        if repair and applied:
            self.repairs_applied += 1
        stored = self.store[key]
        return {
            "ok": True,
            "replica": self.replica_id,
            "applied": applied,
            "counter": stored.counter,
            "writer": stored.writer,
        }

    def __repr__(self) -> str:
        return (
            f"<Replica {self.name!r} keys={len(self.store)}"
            f" reads={self.reads_served} writes={self.writes_applied}>"
        )


def make_replicas(system: QuorumSystem) -> List[Replica]:
    """One replica per universe element, in id order, carrying the
    element's name."""
    return [
        Replica(element, name=system.universe.name_of(element))
        for element in system.universe.ids
    ]


def _require_key(request: Dict[str, Any]) -> str:
    key = request.get("key")
    if not isinstance(key, str) or not key:
        raise ServiceError("request needs a non-empty string 'key'")
    return key
