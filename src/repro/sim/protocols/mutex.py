"""Quorum-based distributed mutual exclusion.

The protocol outlined in §1 of the paper, hardened the way Maekawa's
algorithm hardens it: a requester collects permissions (grants) from
every member of one quorum; the intersection property then guarantees
mutual exclusion.  Deadlocks between concurrently granted requests are
resolved with INQUIRE/YIELD messages ordered by Lamport-style priorities
``(timestamp, node id)``.

Message flow
------------
``request(ts)``      requester -> member     ask for the member's grant
``grant``            member -> requester     permission
``inquire``          member -> requester     someone older wants my grant
``yield``            requester -> member     grant returned (not in CS yet)
``release``          requester -> member     CS left, grant returned

Safety (never two nodes in the critical section) holds for *any* quorum
system satisfying Definition 3.1 and is asserted by a global monitor in
the tests, for every construction in :mod:`repro.systems`.

Failure semantics: requester state is volatile (a crashed requester's
pending request dies; stray grants arriving later are returned), while
arbiter grant state is durable across the paper's transient crashes —
forgetting an outstanding grant would break mutual exclusion.  A grant
held by a requester that crashes *before releasing* is only recovered
when that requester returns (stray-grant bounce) — full grant leases are
out of scope, as in the paper's protocol sketch (§1), which also defers
deadlock/fault handling to the underlying mutual-exclusion machinery.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from ...core.errors import ProtocolError
from ...core.quorum_system import Quorum
from ..network import Message, Network
from ..node import Node

Priority = Tuple[float, int]  # (timestamp, requester id): smaller wins


class MutexNode(Node):
    """A node that is both a quorum member (arbiter) and a requester."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        # Arbiter state.
        self._granted_to: Optional[Priority] = None
        self._queue: List[Priority] = []
        self._inquired = False
        # Requester state.
        self._quorum: Optional[Quorum] = None
        self._grants: Set[int] = set()
        self._priority: Optional[Priority] = None
        self._in_cs = False
        self._on_acquired: Optional[Callable[[], None]] = None
        # Statistics.
        self.grants_issued = 0
        self.cs_entries = 0
        self.requests_aborted = 0

    # ------------------------------------------------------------------
    # Requester API
    # ------------------------------------------------------------------
    @property
    def in_critical_section(self) -> bool:
        """Whether this node currently holds the lock."""
        return self._in_cs

    def request_cs(
        self,
        quorum: Quorum,
        on_acquired: Callable[[], None],
        timeout: Optional[float] = None,
        on_failed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Ask the given quorum for the lock.

        ``on_acquired`` fires once every member has granted.  With a
        ``timeout``, a request that has not acquired all grants in time
        is aborted: collected grants are returned (so crashed members
        cannot wedge the rest of the system) and ``on_failed`` fires.
        """
        if self._quorum is not None:
            raise ProtocolError(f"node {self.node_id} already has a pending request")
        self._quorum = frozenset(quorum)
        self._grants = set()
        self._priority = (self.sim.now, self.node_id)
        self._on_acquired = on_acquired
        for member in sorted(self._quorum):
            self.send(member, Message("request", {"priority": self._priority}))
        if timeout is not None:
            priority = self._priority
            self.sim.schedule(timeout, self._abort_if_pending, priority, on_failed)

    def _abort_if_pending(self, priority: Priority, on_failed) -> None:
        """Timeout hook: abandon the request if it is still the active one."""
        if self._priority != priority or self._in_cs:
            return
        quorum = self._quorum or frozenset()
        granted = set(self._grants)
        self._quorum = None
        self._grants = set()
        self._priority = None
        self._on_acquired = None
        for member in sorted(granted):
            self.send(member, Message("release", {}))
        self.requests_aborted += 1
        if on_failed is not None:
            on_failed()

    def release_cs(self) -> None:
        """Leave the critical section and return all grants."""
        if not self._in_cs:
            raise ProtocolError(f"node {self.node_id} is not in the CS")
        quorum = self._quorum or frozenset()
        self._in_cs = False
        self._quorum = None
        self._grants = set()
        self._priority = None
        self._on_acquired = None
        for member in sorted(quorum):
            self.send(member, Message("release", {}))

    # ------------------------------------------------------------------
    # Crash semantics: requester state is volatile (an in-flight request
    # dies with the node), but the *arbiter* grant state is durable —
    # forgetting an outstanding grant on recovery would let the member
    # grant a second, overlapping request and break mutual exclusion.
    # This mirrors Maekawa-style implementations that log grants.
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self._quorum = None
        self._grants = set()
        self._priority = None
        self._in_cs = False
        self._on_acquired = None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Message) -> None:
        handler = getattr(self, f"_handle_{message.kind}", None)
        if handler is None:
            raise ProtocolError(f"mutex node got unknown message {message.kind!r}")
        handler(src, message)

    # --- arbiter side -------------------------------------------------
    def _handle_request(self, src: int, message: Message) -> None:
        priority = tuple(message.payload["priority"])
        entry = (priority, src)
        if self._granted_to is None:
            self._grant(priority, src)
        else:
            heapq.heappush(self._queue, entry)
            # If the newcomer outranks the current holder, try to recall.
            if priority < self._granted_to[0] and not self._inquired:
                self._inquired = True
                self.send(self._granted_to[1], Message("inquire", {}))

    def _grant(self, priority: Priority, requester: int) -> None:
        self._granted_to = (priority, requester)
        self._inquired = False
        self.grants_issued += 1
        self.send(requester, Message("grant", {}))

    def _handle_release(self, src: int, message: Message) -> None:
        if self._granted_to is not None and self._granted_to[1] != src:
            # Stale release from a crashed/recovered node; ignore.
            return
        self._granted_to = None
        self._inquired = False
        self._grant_next()

    def _handle_yield(self, src: int, message: Message) -> None:
        if self._granted_to is None or self._granted_to[1] != src:
            return
        # Re-queue the yielder, then grant to the best waiting request.
        heapq.heappush(self._queue, (self._granted_to[0], src))
        self._granted_to = None
        self._inquired = False
        self._grant_next()

    def _grant_next(self) -> None:
        while self._queue:
            priority, requester = heapq.heappop(self._queue)
            self._grant(priority, requester)
            return

    # --- requester side -------------------------------------------------
    def _handle_grant(self, src: int, message: Message) -> None:
        if self._quorum is None or src not in self._quorum:
            # Grant for an aborted request: give it straight back.
            self.send(src, Message("release", {}))
            return
        self._grants.add(src)
        if self._grants == self._quorum and not self._in_cs:
            self._in_cs = True
            self.cs_entries += 1
            callback = self._on_acquired
            if callback is not None:
                callback()

    def _handle_inquire(self, src: int, message: Message) -> None:
        if self._in_cs:
            return  # keep the grant; release will free it
        if self._quorum is None or src not in self._grants:
            return
        self._grants.discard(src)
        self.send(src, Message("yield", {}))


class MutexMonitor:
    """Global safety monitor: counts simultaneous critical sections.

    Wire it into the ``on_acquired`` callbacks; `violations` stays 0 for
    any correct quorum system (asserted by the tests for every
    construction, and demonstrably broken by a non-intersecting family).

    ``capacity`` generalises to k-mutual exclusion (k-coteries allow up
    to ``k`` concurrent holders): a violation is recorded only when the
    holder count would exceed the capacity.
    """

    def __init__(self, capacity: int = 1) -> None:
        self.capacity = capacity
        self.holders: Set[int] = set()
        self.violations = 0
        self.entries = 0
        self.max_concurrent = 0

    def enter(self, node_id: int) -> None:
        """Record a CS entry."""
        if len(self.holders) >= self.capacity:
            self.violations += 1
        self.holders.add(node_id)
        self.max_concurrent = max(self.max_concurrent, len(self.holders))
        self.entries += 1

    def leave(self, node_id: int) -> None:
        """Record a CS exit."""
        self.holders.discard(node_id)
