"""Distributed reader-writer locks from read / write quorum families.

The h-grid protocol (§4.1 of the paper) defines three operations with
three quorum families: *reads* (row-covers) may run concurrently,
*blind writes* (full-lines) may run concurrently with each other, and
*read-writes* exclude everything.  This module realises the same
semantics as a locking service:

* a **shared** lock contacts a read quorum; members count concurrent
  shared holders (reads never conflict with reads);
* an **exclusive** lock contacts a read-write quorum; a member grants it
  only while it has no shared or exclusive holder.

Correctness follows from the family intersections: every read quorum
intersects every read-write quorum, so a shared and an exclusive holder
would need a common member — which never grants both.  Two exclusive
holders conflict on the intersection of their read-write quorums.  Two
shared locks never conflict anywhere, which is exactly the concurrency
the paper's read operation wants.

Fairness/deadlock policy: members queue conflicting requests in
``(timestamp, node id)`` order; a shared request never waits behind
another shared request.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from ...core.errors import ProtocolError
from ...core.quorum_system import Quorum
from ..network import Message, Network
from ..node import Node

Priority = Tuple[float, int]


class RWLockNode(Node):
    """A member of the locking service; also issues its own requests."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        # Member (arbiter) state.
        self._shared_holders: Set[int] = set()
        self._exclusive_holder: Optional[int] = None
        self._queue: List[Tuple[Priority, str, int]] = []
        # Requester state.
        self._mode: Optional[str] = None
        self._quorum: Optional[Quorum] = None
        self._grants: Set[int] = set()
        self._on_acquired: Optional[Callable[[], None]] = None
        self._held: Optional[Tuple[str, Quorum]] = None
        # Statistics.
        self.shared_grants = 0
        self.exclusive_grants = 0

    # ------------------------------------------------------------------
    # Requester API
    # ------------------------------------------------------------------
    @property
    def holds_lock(self) -> Optional[str]:
        """``"shared"``, ``"exclusive"`` or ``None``."""
        return self._held[0] if self._held else None

    def acquire_shared(self, quorum: Quorum, on_acquired: Callable[[], None]) -> None:
        """Take a shared (read) lock through a read quorum."""
        self._acquire("shared", quorum, on_acquired)

    def acquire_exclusive(self, quorum: Quorum, on_acquired: Callable[[], None]) -> None:
        """Take an exclusive (read-write) lock through a read-write quorum."""
        self._acquire("exclusive", quorum, on_acquired)

    def _acquire(self, mode: str, quorum: Quorum, on_acquired) -> None:
        if self._mode is not None or self._held is not None:
            raise ProtocolError(
                f"node {self.node_id} already holds or awaits a lock"
            )
        self._mode = mode
        self._quorum = frozenset(quorum)
        self._grants = set()
        self._on_acquired = on_acquired
        priority = (self.sim.now, self.node_id)
        for member in sorted(self._quorum):
            self.send(member, Message("lock_request", {"mode": mode, "priority": priority}))

    def release(self) -> None:
        """Release the held lock at every member."""
        if self._held is None:
            raise ProtocolError(f"node {self.node_id} holds no lock")
        mode, quorum = self._held
        self._held = None
        for member in sorted(quorum):
            self.send(member, Message("lock_release", {"mode": mode}))

    def on_crash(self) -> None:
        # Requester state is volatile; member state is durable (see the
        # mutual-exclusion module for the rationale).
        self._mode = None
        self._quorum = None
        self._grants = set()
        self._on_acquired = None
        self._held = None

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        if message.kind == "lock_request":
            self._member_request(src, message.payload["mode"], tuple(message.payload["priority"]))
        elif message.kind == "lock_release":
            self._member_release(src, message.payload["mode"])
        elif message.kind == "lock_grant":
            self._requester_grant(src)
        else:
            raise ProtocolError(f"rwlock got unknown message {message.kind!r}")

    # --- member side ----------------------------------------------------
    def _member_request(self, src: int, mode: str, priority: Priority) -> None:
        if self._can_grant(mode):
            self._member_grant(src, mode)
        else:
            heapq.heappush(self._queue, (priority, mode, src))

    def _can_grant(self, mode: str) -> bool:
        if self._exclusive_holder is not None:
            return False
        if mode == "shared":
            return True
        return not self._shared_holders

    def _member_grant(self, src: int, mode: str) -> None:
        if mode == "shared":
            self._shared_holders.add(src)
            self.shared_grants += 1
        else:
            self._exclusive_holder = src
            self.exclusive_grants += 1
        self.send(src, Message("lock_grant", {}))

    def _member_release(self, src: int, mode: str) -> None:
        if mode == "shared":
            self._shared_holders.discard(src)
        elif self._exclusive_holder == src:
            self._exclusive_holder = None
        self._drain_queue()

    def _drain_queue(self) -> None:
        while self._queue and self._can_grant(self._queue[0][1]):
            _priority, mode, src = heapq.heappop(self._queue)
            self._member_grant(src, mode)

    # --- requester side ---------------------------------------------------
    def _requester_grant(self, src: int) -> None:
        if self._quorum is None or src not in self._quorum or src in self._grants:
            # Stale grant (aborted/crashed request): hand it straight back.
            self.send(src, Message("lock_release", {"mode": "shared"}))
            return
        self._grants.add(src)
        if self._grants == self._quorum:
            mode, quorum = self._mode, self._quorum
            self._mode = None
            self._quorum = None
            self._grants = set()
            callback = self._on_acquired
            self._on_acquired = None
            self._held = (mode, quorum)
            if callback is not None:
                callback()


class RWLockMonitor:
    """Safety monitor: readers may overlap; writers exclude everyone."""

    def __init__(self) -> None:
        self.readers: Set[int] = set()
        self.writer: Optional[int] = None
        self.violations = 0
        self.reader_sessions = 0
        self.writer_sessions = 0
        self.max_concurrent_readers = 0

    def enter(self, node_id: int, mode: str) -> None:
        """Record a lock acquisition."""
        if mode == "shared":
            if self.writer is not None:
                self.violations += 1
            self.readers.add(node_id)
            self.reader_sessions += 1
            self.max_concurrent_readers = max(
                self.max_concurrent_readers, len(self.readers)
            )
        else:
            if self.writer is not None or self.readers:
                self.violations += 1
            self.writer = node_id
            self.writer_sessions += 1

    def leave(self, node_id: int, mode: str) -> None:
        """Record a lock release."""
        if mode == "shared":
            self.readers.discard(node_id)
        elif self.writer == node_id:
            self.writer = None
