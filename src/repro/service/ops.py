"""The service's op model: one immutable type per request and per reply.

Every layer speaks these types.  The coordinator builds requests,
:meth:`~repro.service.replica.Replica.handle` answers each with one
reply, the transports carry both unchanged, and the binary codec
(:mod:`repro.service.wire`) maps each type to one frame kind and back.
A timestamp is one ``(counter, writer)`` tuple, ordered
lexicographically.

The types are :class:`~typing.NamedTuple` s: slotted, immutable, and
cheap to build and read.  Two ops are equal only when their types are
too, so a :class:`Write` never equals the :class:`Repair` it mirrors.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple, Union

#: ``(counter, writer)``; compared lexicographically.
Timestamp = Tuple[int, int]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class Read(NamedTuple):
    """The replica's current version of ``key``."""

    key: str


class Write(NamedTuple):
    """Store ``value`` at ``ts`` unless the replica holds a version at
    least as new."""

    key: str
    value: Any
    ts: Timestamp


class Repair(NamedTuple):
    """A :class:`Write` of an existing version (read-repair, hinted
    handoff, a reshard's transfer), counted apart by the replica."""

    key: str
    value: Any
    ts: Timestamp


class Join(NamedTuple):
    """Ask for a quorum lease of ``ttl`` operations for ``coordinator``."""

    coordinator: int
    ttl: int


class Ping(NamedTuple):
    """Liveness probe; touches nothing."""


class Keys(NamedTuple):
    """The census of every key the replica stores."""


#: The one :class:`Ping` and :class:`Keys` every sender shares.
PING = Ping()
KEYS = Keys()

Request = Union[Read, Write, Repair, Join, Ping, Keys]


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
class ReadReply(NamedTuple):
    """The stored version; ``NULL_TIMESTAMP`` and ``None`` if never written."""

    replica: int
    value: Any
    ts: Timestamp


class WriteReply(NamedTuple):
    """The answer to a :class:`Write` or :class:`Repair`: whether it was
    stored, and the version the replica holds now."""

    replica: int
    applied: bool
    ts: Timestamp


class JoinReply(NamedTuple):
    """The answer to a :class:`Join`."""

    replica: int
    granted: bool
    ttl: int


class PingReply(NamedTuple):
    """The answer to a :class:`Ping`."""

    replica: int


class KeysReply(NamedTuple):
    """The answer to :class:`Keys`: every stored key, sorted."""

    replica: int
    keys: List[str]


class ErrorReply(NamedTuple):
    """A request the replica refused; ``replica`` is ``None`` when the
    sender is unknown."""

    replica: Optional[int]
    error: str


Payload = Union[ReadReply, WriteReply, JoinReply, PingReply, KeysReply, ErrorReply]


def _eq(self: tuple, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self: tuple, other: object) -> bool:
    return not _eq(self, other)


for _op in (Read, Write, Repair, Join, Ping, Keys) + (
    ReadReply, WriteReply, JoinReply, PingReply, KeysReply, ErrorReply
):
    _op.__eq__, _op.__ne__, _op.__hash__ = _eq, _ne, tuple.__hash__
del _op
