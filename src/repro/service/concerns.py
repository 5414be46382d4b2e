"""The coordinator's concerns besides the quorum pick, one object each.

A :class:`~repro.service.coordinator.Coordinator` builds each once from
its keywords, and a disabled feature is a null instance, not a flag the
coordinator branches on.  None of them touches a transport: the
coordinator sends join handshakes and hint replays, and passes ``now``,
its count of issued operations, wherever a concern keeps time.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import AnalysisError, ServiceError
from ..core.quorum_system import Quorum
from ..core.rwstrategy import ReadWriteStrategy
from .metrics import ServiceMetrics
from .replica import NULL_TIMESTAMP

Payload = Dict[str, Any]


class ReplicaHealth:
    """Which replicas quorum selection avoids: suspects, open breakers.

    A replica that fails a request is *suspected* for the next ``ttl``
    operations (the coordinator's ``suspicion_ttl``), then probed again:
    crashed replicas may recover.  A circuit breaker avoids it for
    longer, so a hard-down replica stops burning timeouts: ``threshold``
    consecutive failures open its breaker for ``cooldown`` operations.
    After the cooldown the replica is half-open: the next quorum may
    probe it, a success closes the breaker and a failure reopens it.
    Threshold 0 turns breakers off, as a threshold no failure count
    reaches.  A replica the read rule catches lying is marked in
    :attr:`lied_replicas` for good, and counts as a failure.
    """

    def __init__(self, ttl: int, threshold: int, cooldown: int, metrics: ServiceMetrics) -> None:
        if threshold < 0:
            raise ServiceError(f"breaker_threshold must be >= 0, got {threshold}")
        if cooldown < 1:
            raise ServiceError(f"breaker_cooldown must be >= 1, got {cooldown}")
        self.ttl = ttl
        self.threshold = threshold or math.inf
        self.cooldown = cooldown
        self.metrics = metrics
        self.suspected: Dict[int, int] = {}  # replica id -> op suspected at
        self.fails: Dict[int, int] = {}  # replica id -> consecutive failures
        self.open_until: Dict[int, int] = {}  # replica id -> op its breaker closes at
        #: Replicas caught lying; never forgotten, unlike suspicion.
        self.lied_replicas: Set[int] = set()
        #: Every replica ever suspected, decayed suspicions included.
        self.suspicion_history: Set[int] = set()

    def blocked(self, now: int) -> frozenset:
        """Active suspects and open breakers at operation ``now``."""
        horizon = now - self.ttl
        self.suspected = {rid: at for rid, at in self.suspected.items() if at > horizon}
        breakers = {rid for rid, until in self.open_until.items() if now < until}
        return frozenset(self.suspected).union(breakers)

    def succeeded(self, rids: Iterable[int]) -> None:
        """The replicas answered: clear their suspicion and breakers."""
        for rid in rids:
            self.suspected.pop(rid, None)
            self.fails.pop(rid, None)
            self.open_until.pop(rid, None)

    def failed(self, rid: int, now: int) -> None:
        """The replica failed a request: suspect it and count the
        failure toward its breaker, which opens (once) at the threshold."""
        self.suspected[rid] = now
        self.suspicion_history.add(rid)
        fails = self.fails.get(rid, 0) + 1
        self.fails[rid] = fails
        if fails >= self.threshold:
            if now >= self.open_until.get(rid, 0):
                self.metrics.record_breaker_open()
            self.open_until[rid] = now + self.cooldown

    def lied(self, rids: Iterable[int], now: int) -> None:
        """The read rule caught the replicas lying."""
        for rid in rids:
            self.metrics.record_lie()
            self.lied_replicas.add(rid)
            self.failed(rid, now)

    def forgive(self) -> None:
        """Forget every suspicion and breaker: when every quorum touches
        a blocked replica, betting on recovery beats refusing to serve."""
        self.suspected.clear()
        self.fails.clear()
        self.open_until.clear()


class HintQueue:
    """Writes queued for quorum members that missed them (hinted handoff).

    A write that could not reach a member is queued, newest version per
    key, and the coordinator replays it as an idempotent ``repair`` once
    the member looks reachable again: anti-entropy that speeds up
    convergence after a recovery.  Hints never make an operation
    succeed.  At most ``capacity`` key-hints are queued over all
    replicas; when full, read-repair still converges, only slower.
    Capacity 0 turns handoff off.
    """

    def __init__(self, capacity: int, metrics: ServiceMetrics) -> None:
        self.capacity = capacity
        self.metrics = metrics
        #: replica id -> {key: (counter, writer, value)}, never empty.
        self.pending: Dict[int, Dict[str, Tuple[int, int, Any]]] = {}
        #: Set while a replay runs.  A sharded service funnels concurrent
        #: clients through one coordinator, so replays could overlap.
        self.replaying = False

    def record(self, rid: int, request: Payload) -> None:
        """Queue the versioned ``request`` for replica ``rid``."""
        key = str(request["key"])
        timestamp = (int(request["counter"]), int(request["writer"]))
        pending = self.pending.get(rid, {})
        existing = pending.get(key)
        if existing is None:
            if sum(map(len, self.pending.values())) >= self.capacity:
                return
        elif existing[:2] >= timestamp:
            return
        pending[key] = (timestamp[0], timestamp[1], request.get("value"))
        self.pending[rid] = pending
        self.metrics.record_hint()


class LeaseTable:
    """Timed-Quorum leases: a quorum serves only under a live lease.

    A lease lasts ``ttl`` operations.  Before a sampled quorum without a
    live lease serves, the coordinator re-joins it: a concurrent
    ``join`` to every member, all of which must grant it.  A member
    that cannot answer has in effect left, so the quorum is abandoned
    for that attempt: membership is re-validated continuously instead
    of assumed static.  Hedge spares are not leased; they only complete
    a candidate quorum whose members all answered that very phase.
    """

    def __init__(self, ttl: int, metrics: ServiceMetrics) -> None:
        if ttl < 0:
            raise ServiceError(f"lease_ttl must be >= 0, got {ttl}")
        self.ttl = ttl
        self.metrics = metrics
        self.expiry: Dict[Quorum, int] = {}  # quorum -> op its lease ends at

    def live(self, quorum: Quorum, now: int) -> bool:
        """Whether ``quorum`` holds a live lease; counts an expired one."""
        expiry = self.expiry.get(quorum)
        if expiry is not None and now >= expiry:
            self.metrics.record_lease_expired()
        return expiry is not None and now < expiry

    def joined(self, quorum: Quorum, granted: bool, now: int) -> None:
        """Record a join handshake: every member granted it, or not."""
        if granted:
            self.expiry[quorum] = now + self.ttl
            self.metrics.record_lease_renewed()
        else:
            self.expiry.pop(quorum, None)
            self.metrics.record_rejoin_failed()


class _NoLeases:
    """Leases off: every quorum is always live."""

    @staticmethod
    def live(quorum: Quorum, now: int) -> bool:
        return True


NO_LEASES = _NoLeases()


class NewestWins:
    """The crash-fault read rule: the newest timestamp wins, and no
    replica is taken for a liar."""

    @staticmethod
    def resolve(payloads: Dict[int, Payload], key: str) -> Tuple[Payload, Sequence[int]]:
        return max(payloads.values(), key=itemgetter("counter", "writer")), ()

    @staticmethod
    def note_ack(key: str, rids: Iterable[int], counter: int, writer: int) -> None:
        pass


class MaskingVote:
    """The Malkhi–Reiter–Wool masking-quorum read rule for ``b`` liars.

    Replicas may lie, not just crash.  A read accepts a version only
    when at least ``b+1`` members of the quorum returned it
    byte-identically; with at most ``b`` liars in the quorum, such a
    version is vouched for by a correct member.  The newest quorate
    version wins.  Ties at one timestamp break by vote count, then by
    serialised value *descending*: the adversarial direction, so the
    tie-break never prefers the honest value and ``b+1`` colluding liars
    are caught by the chaos harness, not masked by luck.  A quorum whose
    replies elect nothing is abandoned for a fresh one.

    Two detectors name liars:

    * a reply that contradicts a quorate version at that version's own
      timestamp (the ``b+1`` matching copies include a correct one);
    * a reply older than the replica's *ack floor*, the newest version
      it acknowledged for the key (:meth:`note_ack`).  An honest store
      is monotone, so that replica rolled back or fake-acked.

    The system must be ``b``-masking: the constructor checks it with
    :func:`repro.analysis.byzantine.validate_masking`, whose error names
    the :func:`~repro.analysis.byzantine.boost` call that fixes it.  On
    a split read/write pair, every read/write support pair must also
    share ``2b+1`` members, so voted reads out-vote ``b`` liars inside
    the overlap with the newest write quorum.
    """

    def __init__(self, b: int, strategy: ReadWriteStrategy, metrics: ServiceMetrics) -> None:
        from ..analysis.byzantine import validate_masking

        try:
            validate_masking(strategy.system, b)
        except AnalysisError as exc:
            raise ServiceError(str(exc)) from None
        needed = 2 * b + 1
        depth = strategy.min_read_write_intersection() if strategy.is_split else needed
        if depth < needed:
            raise ServiceError(
                f"split read path is too shallow for b={b} masking reads:"
                f" min |R ∩ W| = {depth} < {needed}; use"
                f" read_write_capacity(min_intersection={needed}) to build"
                " a maskable pair"
            )
        self.b = b
        self.metrics = metrics
        #: key -> {replica id -> newest (counter, writer) it acknowledged}.
        self.ack_floor: Dict[str, Dict[int, Tuple[int, int]]] = {}

    def note_ack(self, key: str, rids: Iterable[int], counter: int, writer: int) -> None:
        """The replicas acknowledged ``key`` at this timestamp.  Only
        real acknowledgements may raise a floor: it is the ground truth
        of the second lie detector."""
        floors = self.ack_floor.setdefault(key, {})
        timestamp = (int(counter), int(writer))
        for rid in rids:
            if timestamp > floors.get(rid, NULL_TIMESTAMP):
                floors[rid] = timestamp

    def resolve(
        self, payloads: Dict[int, Payload], key: str
    ) -> Tuple[Optional[Payload], List[int]]:
        """Vote over one quorum's read replies.  Returns ``(accepted
        payload or None, replicas caught lying)``; a replica is listed
        once per detection."""
        threshold = self.b + 1
        votes: Dict[Tuple[int, int, str], List[int]] = {}
        for rid, payload in sorted(payloads.items()):
            # Values vote together only when they serialise identically.
            value = json.dumps(payload.get("value"), sort_keys=True, default=str)
            candidate = (int(payload["counter"]), int(payload["writer"]), value)
            votes.setdefault(candidate, []).append(rid)
        liars: List[int] = []
        floors = self.ack_floor.get(key)
        if floors:
            for candidate, rids in votes.items():
                for rid in rids:
                    floor = floors.get(rid)
                    if floor is not None and candidate[:2] < floor:
                        liars.append(rid)
        quorate = {cand: rids for cand, rids in votes.items() if len(rids) >= threshold}
        if not quorate:
            self.metrics.record_vote_failure()
            return None, liars
        for elected in quorate:
            for candidate, rids in votes.items():
                if candidate[:2] == elected[:2] and candidate[2] != elected[2]:
                    liars.extend(rids)  # same timestamp, different bytes
        accepted = max(
            quorate, key=lambda cand: (cand[0], cand[1], len(quorate[cand]), cand[2])
        )
        self.metrics.record_vote(len(quorate[accepted]) - threshold)
        return payloads[quorate[accepted][0]], liars
