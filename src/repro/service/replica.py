"""Per-element replica servers for the quorum-replicated key-value store.

Each element of the quorum system's universe is backed by one
:class:`Replica` holding a versioned copy of every key it has seen.
Versions are ordered by ``(counter, writer)`` timestamps — the classic
lexicographic logical-clock order — so concurrent coordinators converge:
a replica applies a write only when its timestamp is strictly newer than
the stored one, which makes writes idempotent and reorderable.

Replicas are transport-agnostic: :meth:`Replica.handle` answers one
request of the op model (:mod:`repro.service.ops`) with one reply; the
in-memory ``SimTransport`` hands both over as they are, and the binary
TCP transport (:mod:`repro.service.transport`) carries them through the
wire v2 codec.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from .ops import (
    ErrorReply,
    Join,
    JoinReply,
    Keys,
    KeysReply,
    Payload,
    Ping,
    PingReply,
    Read,
    ReadReply,
    Repair,
    Request,
    Write,
    WriteReply,
)

#: Timestamp of a key that was never written: older than every real write.
NULL_TIMESTAMP: Tuple[int, int] = (0, -1)

# Builds a reply (or a ``Versioned``) from all its fields, as the wire
# decoders do (``wire._new``).
_new = tuple.__new__

_NEEDS_KEY = "request needs a non-empty string 'key'"


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
        current = self.store.get(key)
        # ``current[1:]`` is its ``(counter, writer)`` timestamp.
        if current is not None and (counter, writer) <= current[1:]:
            self.writes_ignored += 1
            return False
        self.store[key] = _new(Versioned, (value, counter, writer))
        self.writes_applied += 1
        if self.on_apply is not None:
            self.on_apply(key, counter, writer)
        return True

    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Payload:
        """Serve one request; always returns a reply.

        Requests: :class:`~repro.service.ops.Read`, ``Write``, ``Repair``
        (a write issued by read-repair, tracked separately), ``Keys``
        (the key census the resharding handoff enumerates migrating
        state with), ``Ping`` and ``Join``.  A request the replica
        refuses yields an :class:`~repro.service.ops.ErrorReply` rather
        than an exception, so a broken client cannot kill a TCP replica
        server.  Reads and writes are served inline: a write's one
        further Python call is :meth:`apply_write`.
        """
        kind = type(request)
        try:
            if kind is Read or kind is Write or kind is Repair:
                key = request[0]  # all three lead with the key
                if not isinstance(key, str) or not key:
                    return _new(ErrorReply, (self.replica_id, _NEEDS_KEY))
                if kind is Read:
                    self.reads_served += 1
                    version = self.store.get(key)
                    if version is None:
                        return _new(ReadReply, (self.replica_id, None, NULL_TIMESTAMP))
                    value, counter, writer = version
                    return _new(ReadReply, (self.replica_id, value, (counter, writer)))
                _, value, (counter, writer) = request
                applied = self.apply_write(key, value, counter, writer)
                if applied and kind is Repair:
                    self.repairs_applied += 1
                return _new(WriteReply, (self.replica_id, applied, self.store[key][1:]))
            if kind is Keys:
                return KeysReply(self.replica_id, sorted(self.store))
            if kind is Ping:
                return PingReply(self.replica_id)
            if kind is Join:
                return self._handle_join(request)
            raise ServiceError(f"unknown request {request!r}")
        except ServiceError as exc:
            return ErrorReply(self.replica_id, str(exc))

    def _handle_join(self, request: Join) -> JoinReply:
        """Grant a quorum lease to a coordinator (Timed-Quorum re-join).

        The replica side of the handshake is deliberately thin: record
        the lessee and acknowledge.  Reachability *is* the validation —
        a coordinator whose join cannot reach every member must fall
        back to a different quorum, which is what turns static
        membership into a dynamic one.
        """
        ttl = request.ttl
        if ttl < 0:
            raise ServiceError(f"join ttl must be >= 0, got {ttl}")
        self.joins_served += 1
        self.lessees[request.coordinator] = ttl
        return JoinReply(self.replica_id, True, ttl)

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
