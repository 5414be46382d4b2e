"""Quorum coordinator: the client-facing side of the KV service.

One :class:`Coordinator` turns ``read``/``write`` calls into quorum
phases against any :class:`~repro.core.quorum_system.QuorumSystem`:

1. pick a quorum by sampling the configured
   :class:`~repro.core.strategy.Strategy` (so the *observed* per-element
   load converges to the strategy's analytic
   :meth:`~repro.core.strategy.Strategy.element_loads`);
2. fan the request out concurrently to every member with a per-request
   timeout: each call is begun at once with
   :meth:`~repro.service.transport.Transport.start`, and its
   continuation hands the outcome to one collector per fan-out, which
   classifies it where it lands by one rule — ``ok`` replies count,
   timeouts and unavailable replicas are counted failures, and any
   other error cancels the other calls and propagates to the caller —
   and wakes the coordinator once, when the fan-out is decided;
3. on any member failure, mark the culprits suspected, back off
   (capped exponential) and fall back to a quorum avoiding suspects via
   :meth:`~repro.core.strategy.Strategy.avoiding`;
4. reads resolve the replies with the one read rule bound at
   construction — newest timestamp wins, or the masking vote below —
   and apply read-repair: replicas that returned a stale version get
   the accepted version written back.

Writes carry ``(counter, coordinator_id)`` timestamps from a logical
clock that also advances on every read (the clock adopts the largest
counter seen), so concurrent coordinators converge on a total order.

Graceful degradation (added for the fault-injection layer):

* **Circuit breakers** (``breaker_threshold > 0``): a replica that fails
  ``breaker_threshold`` consecutive requests is excluded from quorum
  selection for ``breaker_cooldown`` operations — longer-horizon
  avoidance than the short suspicion TTL, so a hard-down replica stops
  burning timeouts.  After the cooldown the replica is half-open: the
  next sampled quorum may probe it; success closes the breaker, failure
  reopens it.
* **Hinted handoff** (``hinted_handoff=True``): writes that could not
  reach a quorum member are queued as hints and replayed (as idempotent
  ``repair`` requests) once the member looks reachable again —
  anti-entropy that accelerates convergence after recovery.  Hints never
  make an operation succeed; they only repair afterwards.
* **Degraded reads** (``degraded_reads=True``, opt-in): when every
  quorum attempt fails, serve a best-effort read from the least-damaged
  support quorum instead of raising :class:`OperationFailed`.  The
  result carries ``stale=True`` — the caller explicitly trades
  freshness for availability.

Hedged fan-out (``hedge_spares > 0``): each quorum phase contacts the
sampled quorum *plus* up to ``hedge_spares`` spare replicas drawn from
the strategy's other ranked quorums.  The phase completes with the
reply that makes *any* candidate quorum inside the contacted set fully
acknowledged (first-quorum-wins; candidates are checked primary
first), so one straggling member no longer sets the phase's latency.
Replies that land after it — even in the same loop iteration — are
stragglers, absorbed where they land: their latency feeds the
straggler histogram, failures feed suspicion and hinted handoff, and
:meth:`Coordinator.drain` awaits every fan-out with calls still in
flight (call it before tearing down the transport).  Deferred spares
(``hedge_delay_ms > 0``) are sent by the collector itself, from its
hedge timer or on the first member failure.  With ``hedge_spares=0``
(default) exactly the sampled quorum is contacted and the phase waits
for every member — the original semantics.

Masking-mode reads (``byzantine_b > 0``): replicas may *lie*, not just
crash, so the read rule accepts a ``(value, timestamp)`` only when at
least ``b+1`` members of the quorum returned it byte-identically — the
Malkhi–Reiter–Wool masking-quorum read; a quorum whose replies elect
no version is abandoned for a fresh one.  Startup validates the system
against :func:`repro.analysis.byzantine.masking_threshold` and points a
misconfigured deployment at :func:`repro.analysis.byzantine.boost`.
Replicas that vote against the accepted version at its own timestamp
are *caught lying*: they feed the same suspicion/circuit-breaker
machinery as crashes (see :attr:`Coordinator.lied_replicas`), and the
metrics count detected lies and vote margins.  Degraded reads vote too
— a fabricated value must never be served, not even flagged stale.

Quorum leases (``lease_ttl > 0``): each sampled quorum carries a
Timed-Quorum-style lease measured in operations.  Using a quorum whose
lease is missing or expired first runs a re-join handshake (``join`` to
every member); a handshake that cannot reach every member invalidates
the quorum for this attempt and falls back — membership is re-validated
continuously instead of assumed static.

The quorum-selection hot path is O(1) per operation after warm-up:
strategy sampling goes through a cached alias table
(:meth:`~repro.core.strategy.Strategy.sample_index`), sampled indices
resolve to pre-sorted member tuples, and the avoiding-strategy and
hedge-plan computations are memoised per blocked-set / per quorum.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..core.errors import AnalysisError, ServiceError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.rwstrategy import ReadWriteStrategy
from ..core.strategy import Strategy
from .metrics import ServiceMetrics
from .replica import NULL_TIMESTAMP
from .transport import (
    DEFAULT_TIMEOUT_MS,
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    Transport,
)


def _value_key(value: Any) -> str:
    """Canonical byte representation of a stored value for vote matching.

    Two replies vote together only when their values serialise
    identically — structural equality, stable across dict ordering.
    """
    return json.dumps(value, sort_keys=True, default=str)


def _versioned(op: str, key: str, value: Any, counter: int, writer: int) -> Dict:
    """A request carrying one timestamped version (write, repair)."""
    return {"op": op, "key": key, "value": value, "counter": counter, "writer": writer}


class OperationFailed(ServiceError):
    """Every attempt (including fallbacks) failed for one operation."""

    def __init__(self, kind: str, key: str, attempts: int, latency: float) -> None:
        self.kind = kind
        self.key = key
        self.attempts = attempts
        self.latency = latency
        super().__init__(
            f"{kind}({key!r}) failed after {attempts} quorum attempts"
        )


class ReadResult(NamedTuple):
    """Outcome of a quorum read.

    ``stale`` is False for quorum reads; True only for opt-in degraded
    reads served without a full quorum (the value may miss newer writes).
    """

    value: Any
    counter: int
    writer: int
    latency: float
    attempts: int
    stale: bool = False


class WriteResult(NamedTuple):
    """Outcome of a quorum write."""

    counter: int
    writer: int
    latency: float
    attempts: int


class _Call:
    """The continuation of one started call: it reports the outcome to
    its fan-out's collector, and is cancelled once an error settled
    that fan-out."""

    __slots__ = ("collector", "rid")

    def __init__(self, collector: "_Collector", rid: int) -> None:
        self.collector = collector
        self.rid = rid

    def __call__(self, outcome: Any) -> None:
        self.collector.settle(self.rid, outcome)

    def cancelled(self) -> bool:
        return self.collector.error is not None


class _Collector:
    """One fan-out's state, settled by its calls' continuations.

    Each outcome is classified where it lands
    (:meth:`Coordinator._settle`), and the fan-out is decided as soon as
    the first complete candidate quorum is known, or once every call has
    settled.  Outcomes
    after the decision are stragglers.  While calls are being started,
    outcomes that settle synchronously (an admission fault, a crashed
    in-process replica) are only recorded: the fan-out is judged once
    every call of the batch is out.  ``waiter`` is the future of whoever
    awaits this collector: the coordinator until the decision, then
    :meth:`Coordinator.drain`.
    """

    __slots__ = (
        "owner",
        "request",
        "candidates",
        "hint",
        "spares",
        "counted",
        "payloads",
        "failed",
        "latency",
        "in_flight",
        "starting",
        "decided",
        "winner",
        "error",
        "timer",
        "waiter",
    )

    def __init__(
        self,
        owner: "Coordinator",
        request: Dict[str, Any],
        candidates: Tuple[Tuple[Quorum, Tuple[int, ...]], ...],
        hint: Optional[Dict[str, Any]],
        spares: Tuple[int, ...],
        counted: bool,
    ) -> None:
        self.owner = owner
        self.request = request
        self.candidates = candidates
        self.hint = hint
        self.spares = spares
        self.counted = counted
        self.payloads: Dict[int, Dict[str, Any]] = {}
        self.failed: List[int] = []
        self.latency = 0.0
        self.in_flight = 0
        self.starting = False
        self.decided = False
        self.winner: Optional[Quorum] = None
        self.error: Optional[BaseException] = None
        self.timer: Optional[asyncio.TimerHandle] = None
        self.waiter: Optional["asyncio.Future[None]"] = None

    def start(self, rids: Tuple[int, ...]) -> None:
        """Start one call per replica id, then judge the fan-out."""
        begin = self.owner.transport.start
        request, timeout = self.request, self.owner.timeout
        self.starting = True
        for rid in rids:
            call = _Call(self, rid)
            self.in_flight += 1
            try:
                begin(rid, request, timeout, call)
            except Exception as exc:
                call(exc)
        self.starting = False
        if not self.decided:
            self._progress(True)

    def hedge(self) -> None:
        """Send the deferred spares (hedge deadline, or a failure)."""
        spares, self.spares = self.spares, ()
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.owner.metrics.record_hedges_issued(len(spares))
        self.start(spares)

    def settle(self, rid: int, outcome: Any) -> None:
        if self.error is not None:
            return  # cancelled
        self.in_flight -= 1
        if self.decided:
            self.owner._absorb_straggler(rid, outcome, self.hint)
            if not self.in_flight:
                del self.owner._stragglers[self]
                self._wake()
            return
        try:
            payload, latency = self.owner._settle(outcome, self.counted)
        except Exception as exc:
            self.error = exc
            self._decide()
            return
        if latency > self.latency:
            self.latency = latency
        if payload is None:
            self.failed.append(rid)
        else:
            self.payloads[rid] = payload
        if not self.starting:
            self._progress(payload is not None)

    def _progress(self, acked: bool) -> None:
        """Decide on a complete candidate, or when nothing is in flight;
        a failure sends the deferred spares first."""
        if acked:
            acked_ids = self.payloads.keys()
            for candidate, _ in self.candidates:
                if acked_ids >= candidate:
                    self.winner = candidate
                    self._decide()
                    return
        if self.failed and self.spares:
            # A member failed outright: hedge immediately, an alternate
            # candidate may still complete the phase.
            self.hedge()
        elif not self.in_flight:
            self._decide()

    def _decide(self) -> None:
        self.decided = True
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.in_flight and self.error is None:
            self.owner._stragglers[self] = None
        self._wake()

    def _wake(self) -> None:
        waiter, self.waiter = self.waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)


class Coordinator:
    """Executes KV operations through quorums of a system.

    Parameters
    ----------
    system:
        The quorum system to serve through.
    transport:
        Channel to the replicas (in-process or TCP).
    strategy:
        Quorum-picking distribution; defaults to the LP-optimal strategy
        from :mod:`repro.analysis.load`, i.e. the system served at its
        analytic load ``L(S)``.  A plain :class:`Strategy` serves every
        operation from one distribution (the unified path); a
        :class:`~repro.core.rwstrategy.ReadWriteStrategy` routes reads
        through its read distribution and writes / repairs / transfers
        through its write distribution — plain strategies are
        auto-lifted to a degenerate pair, so behaviour is unchanged
        unless a split pair is passed explicitly.
    coordinator_id:
        Tie-breaker in write timestamps; give every concurrent client a
        distinct id.
    seed:
        Seed for this coordinator's sampling RNG.
    timeout:
        Per-request deadline (ms) handed to the transport.
    max_attempts:
        Quorum attempts per operation (first try + fallbacks), with a
        capped exponential backoff between attempts (ms):
        ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(attempt-1))``.
    suspicion_ttl:
        Suspected-down replicas are avoided for this many subsequent
        operations, then probed again (crashed replicas may recover).
    breaker_threshold:
        Consecutive failures that trip a replica's circuit breaker
        (0 disables breakers, the default).
    breaker_cooldown:
        Operations a tripped breaker stays open before the replica is
        probed again (half-open).
    degraded_reads:
        Opt-in: serve best-effort stale reads (``stale=True``) instead of
        raising :class:`OperationFailed` when no full quorum responds.
    hinted_handoff:
        Queue writes for unreachable quorum members and replay them after
        recovery (capped at ``HINT_CAPACITY`` queued key-hints).
    hedge_spares:
        Spare replicas contacted beyond the sampled quorum (0 disables
        hedging, the default).  Spares come from the strategy's ranked
        fallback quorums, and the phase completes when the first
        candidate quorum within the contacted set fully acknowledges.
    hedge_delay_ms:
        When positive, spares are *deferred*: the phase contacts only
        the primary quorum, and issues the spares only if the primary
        has not fully acknowledged after this many wall-clock
        milliseconds (or as soon as a primary member fails).  The fast
        path then costs zero extra requests; spares fire exactly on the
        tail.  0 (the default) issues spares upfront with the quorum —
        fully deterministic, used by the in-process tests.
    require_full_quorum:
        **Testing only.**  When False, an operation is acknowledged as
        soon as *any* member responds, which breaks quorum intersection —
        the chaos harness flips this to demonstrate split-brain detection.
    byzantine_b:
        Number of lying replicas to mask (0 disables voting, the
        default).  When positive, the system must be ``b``-masking —
        validated at startup against
        :func:`repro.analysis.byzantine.masking_threshold`, with
        :func:`repro.analysis.byzantine.boost` suggested otherwise —
        and every read accepts only a version at least ``b+1`` members
        agree on byte-for-byte.
    lease_ttl:
        Operations a quorum lease stays valid (0 disables leases, the
        default).  Every sampled quorum must hold a live lease before
        serving; expired or missing leases trigger a ``join`` handshake
        with every member, and a failed handshake abandons the quorum
        for that attempt.
    """

    #: Backoff between quorum attempts (ms), see ``max_attempts``.
    BACKOFF_BASE = 8.0
    BACKOFF_CAP = 128.0
    #: Most key-hints queued for hinted handoff, over all replicas.
    HINT_CAPACITY = 256

    def __init__(
        self,
        system: QuorumSystem,
        transport: Transport,
        strategy: Optional[Strategy] = None,
        *,
        coordinator_id: int = 0,
        seed: int = 0,
        timeout: float = DEFAULT_TIMEOUT_MS,
        max_attempts: int = 5,
        suspicion_ttl: int = 25,
        read_repair: bool = True,
        breaker_threshold: int = 0,
        breaker_cooldown: int = 50,
        degraded_reads: bool = False,
        hinted_handoff: bool = True,
        hedge_spares: int = 0,
        hedge_delay_ms: float = 0.0,
        require_full_quorum: bool = True,
        byzantine_b: int = 0,
        lease_ttl: int = 0,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        if byzantine_b < 0:
            raise ServiceError(f"byzantine_b must be >= 0, got {byzantine_b}")
        if lease_ttl < 0:
            raise ServiceError(f"lease_ttl must be >= 0, got {lease_ttl}")
        if timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        if breaker_threshold < 0:
            raise ServiceError(
                f"breaker_threshold must be >= 0, got {breaker_threshold}"
            )
        if breaker_cooldown < 1:
            raise ServiceError(
                f"breaker_cooldown must be >= 1, got {breaker_cooldown}"
            )
        if hedge_spares < 0:
            raise ServiceError(f"hedge_spares must be >= 0, got {hedge_spares}")
        if hedge_delay_ms < 0:
            raise ServiceError(f"hedge_delay_ms must be >= 0, got {hedge_delay_ms}")
        self.system = system
        self.transport = transport
        if strategy is None:
            from ..analysis.load import optimal_strategy

            strategy = optimal_strategy(system)
        if strategy.system is not system:
            raise ServiceError("strategy belongs to a different system")
        # Reads and writes may draw from different quorum families
        # (2-intersecting read/write pairs); plain strategies become the
        # degenerate pair whose two paths share one distribution.
        self.rw_strategy = ReadWriteStrategy.lift(strategy)
        #: Write-path distribution; for lifted plain strategies this is
        #: the strategy originally passed in (back-compat alias).
        self.strategy = self.rw_strategy.writes
        #: Read-path distribution (same object as ``strategy`` unless a
        #: split pair was configured).
        self.read_strategy = self.rw_strategy.reads
        self.coordinator_id = coordinator_id
        self.rng = np.random.default_rng(seed)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.suspicion_ttl = suspicion_ttl
        self.read_repair = read_repair
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.degraded_reads = degraded_reads
        self.hinted_handoff = hinted_handoff
        self.hedge_spares = hedge_spares
        self.hedge_delay_ms = hedge_delay_ms
        self.require_full_quorum = require_full_quorum
        self.byzantine_b = byzantine_b
        self.lease_ttl = lease_ttl
        # The read rule (see _read_phase): newest wins, or a b+1 vote.
        self._resolve = self._voted_payload if byzantine_b > 0 else self._newest_payload
        if byzantine_b > 0:
            from ..analysis.byzantine import validate_masking

            try:
                validate_masking(system, byzantine_b)
            except AnalysisError as exc:
                raise ServiceError(str(exc)) from None
            if self.rw_strategy.is_split:
                # Voted reads must out-vote b liars inside the overlap
                # with the newest write quorum: every read/write support
                # pair needs at least 2b+1 common members (which also
                # forces read quorums of size >= 2b+1).
                needed = 2 * byzantine_b + 1
                depth = self.rw_strategy.min_read_write_intersection()
                if depth < needed:
                    raise ServiceError(
                        f"split read path is too shallow for b={byzantine_b}"
                        f" masking reads: min |R ∩ W| = {depth} < {needed};"
                        " use read_write_capacity(min_intersection="
                        f"{needed}) to build a maskable pair"
                    )
        self.metrics = metrics if metrics is not None else ServiceMetrics(system.n)
        self._clock = 0
        self._ops_issued = 0
        self._suspected: Dict[int, int] = {}  # replica id -> op index suspected at
        self._breaker_fails: Dict[int, int] = {}  # consecutive failures
        self._breaker_open_until: Dict[int, int] = {}  # replica id -> op index
        # replica id -> {key: (counter, writer, value)} pending handoffs
        self._hints: Dict[int, Dict[str, Tuple[int, int, Any]]] = {}
        self._replaying = False  # reentrancy guard for _replay_hints
        # Hot-path caches: quorum -> sorted member tuple, (path, quorum)
        # -> hedge plan.  Plans are path-keyed because a split pair hedges
        # each distribution independently; unsplit pairs canonicalise
        # both paths to "write" so nothing is computed twice.
        self._members_cache: Dict[Quorum, Tuple[int, ...]] = {}
        self._hedge_plans: Dict[
            Tuple[str, Quorum],
            Tuple[Tuple[int, ...], Tuple[Tuple[Quorum, Tuple[int, ...]], ...]],
        ] = {}
        # Decided fan-outs with calls still in flight (insertion-ordered).
        self._stragglers: Dict[_Collector, None] = {}
        #: Replicas caught returning a divergent value for an accepted
        #: timestamp during a masking read — definite liars, not mere
        #: timeouts.  Never forgotten (unlike suspicion, which decays).
        self.lied_replicas: Set[int] = set()
        #: Every replica ever suspected, including decayed suspicions —
        #: the chaos harness checks detected liars ended up in here.
        self.suspicion_history: Set[int] = set()
        # quorum -> op index its lease expires at (lease_ttl > 0 only).
        self._quorum_leases: Dict[Quorum, int] = {}
        # key -> {replica id -> newest (counter, writer) that replica
        # acknowledged for the key} (masking mode only).  An honest
        # replica's store is monotone, so a read reply *older* than its
        # own ack floor is proof of lying — the channel that catches a
        # fake-acking liar whose fabrications hide at stale timestamps.
        self._ack_floor: Dict[str, Dict[int, Tuple[int, int]]] = {}

    @property
    def clock(self) -> int:
        """Current logical-clock counter (the next write gets ``clock+1``)."""
        return self._clock

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    async def read(self, key: str) -> ReadResult:
        """Quorum read through the read rule; stale members get repaired.

        With ``degraded_reads`` enabled, a read that exhausts every quorum
        attempt is retried best-effort against the least-damaged support
        quorum and, if anyone answers, served with ``stale=True``.
        """
        self._ops_issued += 1
        self.metrics.record_key_access(key)
        try:
            best, payloads, latency, attempts = await self._read_phase(key)
        except OperationFailed as exc:
            if self.degraded_reads:
                degraded = await self._degraded_read(key, exc)
                if degraded is not None:
                    return degraded
            self.metrics.record_op("read", exc.latency, ok=False, attempts=exc.attempts)
            raise
        self._clock = max(self._clock, int(best["counter"]))
        self.metrics.record_op("read", latency, ok=True, attempts=attempts)
        if self.read_repair and best["counter"] > NULL_TIMESTAMP[0]:
            await self._repair_stale(key, best, payloads)
        await self._replay_hints()
        return ReadResult(
            best["value"], int(best["counter"]), int(best["writer"]), latency, attempts
        )

    async def write(self, key: str, value: Any) -> WriteResult:
        """Quorum write stamped by this coordinator's logical clock."""
        self._ops_issued += 1
        self.metrics.record_key_access(key)
        self._clock += 1
        counter, writer = self._clock, self.coordinator_id
        request = _versioned("write", key, value, counter, writer)
        try:
            payloads, latency, attempts, quorum = await self._quorum_phase(
                request, kind="write", key=key, hint=request
            )
        except OperationFailed as exc:
            self.metrics.record_op("write", exc.latency, ok=False, attempts=exc.attempts)
            raise
        # A replica that ignored us saw a newer version; catch the clock up
        # so the next write of this coordinator is not stale too.
        newest = max(int(p["counter"]) for p in payloads.values())
        self._clock = max(self._clock, newest)
        for rid in payloads:
            self._note_ack(key, rid, counter, writer)
        self.metrics.record_op("write", latency, ok=True, attempts=attempts)
        await self._replay_hints()
        return WriteResult(counter, writer, latency, attempts)

    async def transfer(self, key: str, value: Any, counter: int, writer: int) -> WriteResult:
        """Quorum write of an *existing* version, timestamp preserved.

        The resharding handoff uses this to copy versioned state into a
        destination shard: unlike :meth:`write` it does not mint a new
        timestamp, so a transferred version never wins over a client
        write that superseded it mid-migration.  The request goes out as
        an idempotent ``repair``, making replays harmless.
        """
        self._ops_issued += 1
        request = _versioned("repair", key, value, counter, writer)
        try:
            payloads, latency, attempts, _ = await self._quorum_phase(
                request, kind="transfer", key=key
            )
        except OperationFailed as exc:
            self.metrics.record_op(
                "transfer", exc.latency, ok=False, attempts=exc.attempts
            )
            raise
        self._clock = max(self._clock, int(counter))
        for rid in payloads:
            self._note_ack(key, rid, counter, writer)
        self.metrics.record_op("transfer", latency, ok=True, attempts=attempts)
        return WriteResult(int(counter), int(writer), latency, attempts)

    # ------------------------------------------------------------------
    # Quorum machinery
    # ------------------------------------------------------------------
    def _active_suspects(self) -> frozenset:
        horizon = self._ops_issued - self.suspicion_ttl
        self._suspected = {
            rid: at for rid, at in self._suspected.items() if at > horizon
        }
        return frozenset(self._suspected)

    def _open_breakers(self) -> frozenset:
        if self.breaker_threshold <= 0:
            return frozenset()
        return frozenset(
            rid
            for rid, until in self._breaker_open_until.items()
            if self._ops_issued < until
        )

    def _blocked_replicas(self) -> frozenset:
        """Replicas excluded from quorum selection: suspects + open breakers."""
        return self._active_suspects() | self._open_breakers()

    def _note_success(self, rid: int) -> None:
        self._suspected.pop(rid, None)
        self._breaker_fails.pop(rid, None)
        self._breaker_open_until.pop(rid, None)

    def _note_failure(self, rid: int) -> None:
        self._suspected[rid] = self._ops_issued
        self.suspicion_history.add(rid)
        if self.breaker_threshold <= 0:
            return
        fails = self._breaker_fails.get(rid, 0) + 1
        self._breaker_fails[rid] = fails
        if fails >= self.breaker_threshold:
            already_open = self._ops_issued < self._breaker_open_until.get(rid, 0)
            self._breaker_open_until[rid] = self._ops_issued + self.breaker_cooldown
            if not already_open:
                self.metrics.record_breaker_open()

    def _note_ack(self, key: str, rid: int, counter: int, writer: int) -> None:
        """Record that ``rid`` acknowledged ``key`` at this timestamp.

        Masking mode only: the floor is the lie detector's ground truth,
        so it must never be polluted by unacked sends.
        """
        if self.byzantine_b <= 0:
            return
        floors = self._ack_floor.setdefault(key, {})
        timestamp = (int(counter), int(writer))
        if timestamp > floors.get(rid, NULL_TIMESTAMP):
            floors[rid] = timestamp

    def _mark_liar(self, rid: int) -> None:
        self.metrics.record_lie()
        self.lied_replicas.add(rid)
        self._note_failure(rid)

    def _members_for(self, quorum: Quorum) -> Tuple[int, ...]:
        """Sorted member tuple of a quorum, cached (no per-op sorting)."""
        members = self._members_cache.get(quorum)
        if members is None:
            members = tuple(sorted(quorum))
            self._members_cache[quorum] = members
        return members

    def _path_for(self, path: str) -> str:
        """Canonical path key: unsplit pairs collapse reads onto "write"."""
        return path if path == "read" and self.rw_strategy.is_split else "write"

    def _strategy_for(self, path: str) -> Strategy:
        return self.read_strategy if path == "read" else self.strategy

    def _pick_quorum(self, path: str) -> Quorum:
        """Sample the path's quorum, avoiding blocked replicas if it can.

        The restriction to quorums that avoid every suspected replica
        and open breaker comes from :meth:`Strategy.avoiding`, which
        memoises it on the strategy: every coordinator sharing the
        strategy shares each restriction and its alias table, and an op
        under a blocked set seen before samples with one lookup.
        """
        strategy = self._strategy_for(self._path_for(path))
        blocked = self._blocked_replicas()
        if blocked:
            restricted = strategy.avoiding(blocked)
            if restricted is not None:
                return restricted.quorums[restricted.sample_index(self.rng)]
            # Every quorum touches a blocked replica: optimistically forget
            # suspicions and open breakers (replicas recover) rather than
            # refusing to serve.
            self._suspected.clear()
            self._breaker_fails.clear()
            self._breaker_open_until.clear()
        return strategy.quorums[strategy.sample_index(self.rng)]

    def _hedge_plan(
        self, path: str, primary: Quorum
    ) -> Tuple[Tuple[int, ...], Tuple[Tuple[Quorum, Tuple[int, ...]], ...]]:
        """Spares to contact and candidate quorums for a primary quorum.

        Spares are the first ``hedge_spares`` replicas outside the primary
        encountered walking the path's ranked quorums, so they belong
        to the most probable alternatives.  Candidates are the primary
        first, then every other support quorum of the same path contained
        in primary ∪ spares — the sets that can win the phase.
        """
        path = self._path_for(path)
        cache_key = (path, primary)
        plan = self._hedge_plans.get(cache_key)
        if plan is not None:
            return plan
        strategy = self._strategy_for(path)
        spares: List[int] = []
        candidates: List[Tuple[Quorum, Tuple[int, ...]]] = [
            (primary, self._members_for(primary))
        ]
        if self.hedge_spares > 0:
            order = strategy.ranked_order()
            all_members = strategy.quorum_members()
            for index in order:
                for rid in all_members[index]:
                    if rid not in primary and rid not in spares:
                        spares.append(rid)
                        if len(spares) == self.hedge_spares:
                            break
                if len(spares) == self.hedge_spares:
                    break
            contacted = primary | frozenset(spares)
            for index in order:
                quorum = strategy.quorums[index]
                if quorum != primary and quorum <= contacted:
                    candidates.append((quorum, all_members[index]))
        plan = (tuple(spares), tuple(candidates))
        self._hedge_plans[cache_key] = plan
        return plan

    def _absorb_straggler(
        self, rid: int, outcome: Any, hint: Optional[Dict[str, Any]]
    ) -> None:
        """Account one call that settled after its attempt was decided.

        The reply is never discarded silently: latency goes into the
        straggler histogram, success clears suspicion, failure feeds
        suspicion and hinted handoff — exactly as if the phase had waited.
        """
        if isinstance(outcome, Reply):
            self.metrics.record_straggler(outcome.latency)
            if outcome.payload.get("ok"):
                self._note_success(rid)
        elif isinstance(outcome, (ReplicaUnavailable, RequestTimeout)):
            self.metrics.record_straggler(outcome.latency)
            self._note_failure(rid)
            if hint is not None:
                self._record_hint(rid, hint)
        # Anything else was already surfaced by the winning path or is
        # unraisable from a callback; dropping it here is deliberate.

    async def drain(self) -> None:
        """Await every decided fan-out whose calls are still in flight
        (call before teardown)."""
        while self._stragglers:
            collector = next(iter(self._stragglers))
            if collector.waiter is None or collector.waiter.done():
                # Concurrent drains of one coordinator share the future.
                collector.waiter = asyncio.get_running_loop().create_future()
            await collector.waiter

    async def _collect(
        self,
        rids: Tuple[int, ...],
        request: Dict[str, Any],
        candidates: Tuple[Tuple[Quorum, Tuple[int, ...]], ...] = (),
        hint: Optional[Dict[str, Any]] = None,
        deferred_spares: Tuple[int, ...] = (),
        counted: bool = True,
    ) -> "_Collector":
        """Send ``request`` to ``rids`` and await the decided fan-out.

        Every call is started now through
        :meth:`~repro.service.transport.Transport.start`, and its
        outcome goes straight to one :class:`_Collector`, which settles
        it where it lands and decides the fan-out: as soon as the first
        of ``candidates`` (primary first) is fully acknowledged, or
        once every call has settled.  The coordinator sleeps on one
        future until then; a fan-out decided inside the start loop
        costs no wait at all.  Calls still in flight after the decision
        are stragglers (see :meth:`drain`).  An error other than a
        timeout or an unavailable replica cancels the other calls and
        is raised here.

        ``deferred_spares`` are hedge replicas *not yet contacted*: they
        are sent ``request`` as soon as ``hedge_delay_ms`` elapses *from
        the start of the fan-out* without it being decided, or a
        contacted member fails — Dean-style hedging that costs nothing
        on the fast path.  The deadline is anchored once: early partial
        replies must not keep resetting the window, or a phase that is
        slow in aggregate (members trickling in just under the delay
        apiece) never hedges at all.  ``counted=False`` keeps timeouts
        and unavailable replicas out of the metrics (read-repair).
        """
        collector = _Collector(
            self, request, candidates, hint, deferred_spares, counted
        )
        collector.start(rids)
        if not collector.decided:
            loop = asyncio.get_running_loop()
            if collector.spares:
                collector.timer = loop.call_later(
                    self.hedge_delay_ms / 1000.0, collector.hedge
                )
            collector.waiter = loop.create_future()
            await collector.waiter
        if collector.error is not None:
            raise collector.error
        return collector

    async def _quorum_phase(
        self,
        request: Dict[str, Any],
        kind: str = "op",
        key: str = "",
        hint: Optional[Dict[str, Any]] = None,
        path: str = "write",
    ) -> Tuple[Dict[int, Dict[str, Any]], float, int, Quorum]:
        """Run ``request`` against a full quorum, retrying with fallbacks.

        Each attempt is one :meth:`_collect` fan-out to the sampled
        quorum (plus its hedge spares, upfront or deferred), decided by
        the reply that completes the first candidate quorum.  Returns
        ``(payloads by replica id, total latency, attempts, quorum)``
        where ``quorum`` is that candidate (the sampled primary unless a
        hedge won).  Attempt latency is the slowest outcome settled
        before the decision (fan-out is concurrent; stragglers do not
        count); operation latency accumulates attempts plus backoffs.
        ``hint`` is the write request to queue for members that could
        not be reached (hinted handoff).  ``path`` picks the
        distribution: reads sample the read side of a split pair,
        everything else (writes, repairs, transfers) the write side.
        """
        total_latency = 0.0
        for attempt in range(1, self.max_attempts + 1):
            quorum = self._pick_quorum(path)
            if self.lease_ttl > 0:
                joined, join_latency = await self._ensure_lease(quorum)
                total_latency += join_latency
                if not joined:
                    # Could not re-validate membership: abandon this
                    # quorum exactly like a failed fan-out attempt.
                    total_latency += await self._fall_back(attempt)
                    continue
            spares, candidates = self._hedge_plan(path, quorum)
            members = candidates[0][1]
            if spares:
                blocked = self._blocked_replicas()
                live_spares = tuple(rid for rid in spares if rid not in blocked)
            else:
                live_spares = ()
            deferred = self.hedge_delay_ms > 0
            upfront_spares = () if deferred else live_spares
            if upfront_spares:
                self.metrics.record_hedges_issued(len(upfront_spares))
            collector = await self._collect(
                members + upfront_spares,
                request,
                candidates if self.require_full_quorum else (),
                hint,
                live_spares if deferred else (),
            )
            payloads, failed, winner = (
                collector.payloads, collector.failed, collector.winner
            )
            total_latency += collector.latency
            # Failed members are suspected (and hinted) whether or not a
            # candidate quorum still won the phase.
            for rid in failed:
                self._note_failure(rid)
                if hint is not None:
                    self._record_hint(rid, hint)
            if winner is None and not self.require_full_quorum and payloads:
                winner = quorum
            if winner is not None:
                for rid in payloads:
                    self._note_success(rid)
                if winner != quorum:
                    self.metrics.record_hedge_won()
                self.metrics.record_quorum_access(winner, path)
                return payloads, total_latency, attempt, winner
            # Every failed attempt is a fallback: the coordinator abandons
            # the picked quorum (the final attempt too, so failed ops do
            # not undercount by one).
            total_latency += await self._fall_back(attempt)
        raise OperationFailed(kind, key, self.max_attempts, total_latency)

    def _settle(
        self, outcome: Any, counted: bool = True
    ) -> Tuple[Optional[Dict[str, Any]], float]:
        """Classify one fan-out outcome as ``(payload if ok else None,
        latency)``.  Timeouts and unavailable replicas are counted here
        (unless ``counted`` is False), and only here; any other error
        propagates."""
        if isinstance(outcome, Reply):
            payload = outcome.payload
            return (payload if payload.get("ok") else None), outcome.latency
        if isinstance(outcome, RequestTimeout):
            if counted:
                self.metrics.record_timeout()
        elif isinstance(outcome, ReplicaUnavailable):
            if counted:
                self.metrics.record_unavailable()
        else:
            raise outcome
        return None, outcome.latency

    async def _broadcast(
        self, members: Tuple[int, ...], request: Dict[str, Any], counted: bool = True
    ) -> Tuple[Dict[int, Optional[Dict[str, Any]]], float]:
        """Send ``request`` to every member and await every reply.
        Returns ``({rid: payload or None} in member order, slowest
        latency)``."""
        collector = await self._collect(members, request, counted=counted)
        payloads = collector.payloads
        return {rid: payloads.get(rid) for rid in members}, collector.latency

    async def _fall_back(self, attempt: int) -> float:
        """Abandon this attempt's quorum: count the fallback and, unless
        it was the last attempt, back off.  Returns the backoff (ms)."""
        self.metrics.record_fallback()
        if attempt >= self.max_attempts:
            return 0.0
        backoff = min(self.BACKOFF_CAP, self.BACKOFF_BASE * 2 ** (attempt - 1))
        await self.transport.pause(backoff)
        return backoff

    @staticmethod
    def _newest_payload(payloads: Dict[int, Dict[str, Any]], key: str) -> Dict[str, Any]:
        """Crash-mode read rule: the newest timestamp wins."""
        return max(payloads.values(), key=lambda p: (p["counter"], p["writer"]))

    async def _read_phase(
        self, key: str
    ) -> Tuple[Dict[str, Any], Dict[int, Dict[str, Any]], float, int]:
        """Quorum phases until the read rule accepts a version.

        A quorum whose replies elect nothing (masking mode: partial
        writes, or more liars than the budget) is abandoned for a fresh
        one, up to ``max_attempts`` rounds; newest-wins always accepts in
        the first.  Returns ``(accepted payload, all payloads, latency,
        attempts)``: read-repair targets the *accepted* version.
        """
        request = {"op": "read", "key": key}
        total_latency = 0.0
        total_attempts = 0
        for _ in range(self.max_attempts):
            try:
                payloads, latency, attempts, _ = await self._quorum_phase(
                    request, kind="read", key=key, path="read"
                )
            except OperationFailed as exc:
                total_attempts += exc.attempts
                total_latency += exc.latency
                raise OperationFailed("read", key, total_attempts, total_latency) from None
            total_latency += latency
            total_attempts += attempts
            accepted = self._resolve(payloads, key)
            if accepted is not None:
                return accepted, payloads, total_latency, total_attempts
        raise OperationFailed("read", key, total_attempts, total_latency)

    def _voted_payload(
        self, payloads: Dict[int, Dict[str, Any]], key: str
    ) -> Optional[Dict[str, Any]]:
        """Masking-quorum vote over one quorum's read replies.

        Accepts the candidate with the newest timestamp among those at
        least ``b+1`` members returned byte-identically; with at most
        ``b`` liars in the quorum, any quorate candidate is vouched for
        by a correct member.  Ties at one timestamp break by vote count
        and then by serialised value — *descending*, which is the
        adversarial direction for the fabricated-value chaos invariant:
        the deterministic tie-break never charitably prefers the honest
        value, so ``b+1`` colluding liars are caught by the harness, not
        masked by luck.  Returns ``None`` when no candidate is quorate
        (the caller retries on a fresh quorum).

        Two lie detectors feed :attr:`lied_replicas` and the
        suspicion/breaker machinery:

        * a reply that contradicts *any* quorate candidate at that
          candidate's own timestamp (the b+1 matching copies include a
          correct one, so the divergent bytes are fabricated);
        * a reply older than the replica's own ack floor — an honest
          store is monotone, so a replica that acknowledged version T of
          this key and now serves < T has rolled back or fake-acked.
        """
        threshold = self.byzantine_b + 1
        votes: Dict[Tuple[int, int, str], List[int]] = {}
        for rid in sorted(payloads):
            payload = payloads[rid]
            candidate = (
                int(payload["counter"]),
                int(payload["writer"]),
                _value_key(payload.get("value")),
            )
            votes.setdefault(candidate, []).append(rid)
        floors = self._ack_floor.get(key)
        if floors:
            for candidate, rids in votes.items():
                for rid in rids:
                    floor = floors.get(rid)
                    if floor is not None and candidate[:2] < floor:
                        self._mark_liar(rid)
        quorate = {
            candidate: rids
            for candidate, rids in votes.items()
            if len(rids) >= threshold
        }
        if not quorate:
            self.metrics.record_vote_failure()
            return None
        for accepted_candidate, accepted_rids in quorate.items():
            for candidate, rids in votes.items():
                if (
                    candidate[:2] == accepted_candidate[:2]
                    and candidate[2] != accepted_candidate[2]
                ):
                    # Same timestamp, different bytes: someone fabricated.
                    for rid in rids:
                        self._mark_liar(rid)
        accepted = max(
            quorate, key=lambda cand: (cand[0], cand[1], len(quorate[cand]), cand[2])
        )
        self.metrics.record_vote(len(quorate[accepted]) - threshold)
        return payloads[quorate[accepted][0]]

    # ------------------------------------------------------------------
    # Quorum leases (Timed-Quorum membership)
    # ------------------------------------------------------------------
    def _lease_live(self, quorum: Quorum) -> bool:
        expiry = self._quorum_leases.get(quorum)
        return expiry is not None and self._ops_issued < expiry

    async def _ensure_lease(self, quorum: Quorum) -> Tuple[bool, float]:
        """Hold a live lease on ``quorum``, re-joining if needed.

        Returns ``(lease held, handshake latency)``.  A fresh grant and
        a renewal look the same on the wire: a concurrent ``join`` to
        every member, all of which must acknowledge.  Reachability is
        the membership test — a member that cannot answer its join has
        effectively left, and the quorum is invalid until it rejoins.
        Spares contacted by hedging are deliberately *not* leased: they
        only ever complete a candidate quorum whose own members all
        answered this very phase.
        """
        if self._lease_live(quorum):
            return True, 0.0
        if quorum in self._quorum_leases:
            self.metrics.record_lease_expired()
        replies, latency = await self._broadcast(
            self._members_for(quorum),
            {"op": "join", "coordinator": self.coordinator_id, "ttl": self.lease_ttl},
        )
        joined = True
        for rid, payload in replies.items():
            if payload is None or not payload.get("granted"):
                joined = False
                self._note_failure(rid)
        if joined:
            self._quorum_leases[quorum] = self._ops_issued + self.lease_ttl
            self.metrics.record_lease_renewed()
        else:
            self._quorum_leases.pop(quorum, None)
            self.metrics.record_rejoin_failed()
        return joined, latency

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    async def _degraded_read(
        self, key: str, failure: OperationFailed
    ) -> Optional[ReadResult]:
        """Best-effort read against the least-damaged support quorum.

        Returns ``None`` when nobody answered or the read rule accepted
        nothing (the caller then raises the original
        :class:`OperationFailed`); otherwise the accepted version,
        flagged ``stale=True``.
        """
        probe = self.read_strategy.least_damaged(self._blocked_replicas())
        replies, attempt_latency = await self._broadcast(
            tuple(sorted(probe)), {"op": "read", "key": key}
        )
        payloads = {rid: reply for rid, reply in replies.items() if reply is not None}
        # Quorum reads' rule: even a stale-flagged answer must out-vote
        # the lie budget in masking mode.
        best = self._resolve(payloads, key) if payloads else None
        if best is None:
            return None
        self._clock = max(self._clock, int(best["counter"]))
        latency = failure.latency + attempt_latency
        attempts = failure.attempts + 1
        self.metrics.record_op("read", latency, ok=True, attempts=attempts)
        self.metrics.record_degraded_read()
        counter, writer = int(best["counter"]), int(best["writer"])
        return ReadResult(best["value"], counter, writer, latency, attempts, stale=True)

    def _record_hint(self, rid: int, request: Dict[str, Any]) -> None:
        """Queue a write for an unreachable member, newest version per key."""
        if not self.hinted_handoff:
            return
        key = str(request["key"])
        timestamp = (int(request["counter"]), int(request["writer"]))
        pending = self._hints.setdefault(rid, {})
        existing = pending.get(key)
        if existing is not None and (existing[0], existing[1]) >= timestamp:
            return
        if existing is None:
            queued = sum(len(per) for per in self._hints.values())
            if queued >= self.HINT_CAPACITY:
                return  # full: read-repair still converges, just slower
        pending[key] = (timestamp[0], timestamp[1], request.get("value"))
        self.metrics.record_hint()

    async def _replay_hints(self) -> None:
        """Anti-entropy: deliver queued hints to replicas that look alive.

        Runs after successful operations, best-effort.  A replica that
        fails its replay is re-suspected and keeps its remaining hints
        for the next round.  Reentrancy-safe: a sharded service funnels
        concurrent clients through one coordinator, so two replays can
        overlap — only one proceeds, and deletions go through ``pop``.
        """
        if not self._hints or self._replaying:
            return
        self._replaying = True
        try:
            blocked = self._blocked_replicas()
            for rid in sorted(self._hints):
                if rid in blocked:
                    continue
                pending = self._hints.get(rid)
                if pending is None:
                    continue
                for key, (counter, writer, value) in sorted(pending.items()):
                    request = _versioned("repair", key, value, counter, writer)
                    try:
                        reply = await self.transport.call(rid, request, self.timeout)
                    except (ReplicaUnavailable, RequestTimeout):
                        self._note_failure(rid)
                        break
                    if reply.payload.get("ok") and pending.pop(key, None) is not None:
                        self.metrics.record_hint_replayed()
                        self._note_ack(key, rid, counter, writer)
                if not pending:
                    self._hints.pop(rid, None)
        finally:
            self._replaying = False

    async def _repair_stale(
        self,
        key: str,
        best: Dict[str, Any],
        payloads: Dict[int, Dict[str, Any]],
    ) -> None:
        """Write the winning version back to members that returned older
        data.  Best-effort: repair failures never fail the read, and
        repair traffic is tracked separately from quorum-access load."""
        best_ts = (int(best["counter"]), int(best["writer"]))
        stale = [
            rid
            for rid, payload in payloads.items()
            if (int(payload["counter"]), int(payload["writer"])) < best_ts
        ]
        if not stale:
            return
        request = _versioned("repair", key, best["value"], best_ts[0], best_ts[1])
        # Repair failures are neither counted nor suspected.
        replies, _ = await self._broadcast(tuple(sorted(stale)), request, counted=False)
        for rid, payload in replies.items():
            if payload is not None:
                self.metrics.record_read_repair()
                self._note_ack(key, rid, best_ts[0], best_ts[1])

    def __repr__(self) -> str:
        return (
            f"<Coordinator id={self.coordinator_id}"
            f" system={self.system.system_name!r}"
            f" clock={self._clock} ops={self._ops_issued}>"
        )
