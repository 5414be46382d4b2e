"""Quorum coordinator: the client-facing side of the KV service.

One :class:`Coordinator` turns ``read``/``write`` calls into quorum
phases against any :class:`~repro.core.quorum_system.QuorumSystem`:

1. pick a quorum by sampling the configured
   :class:`~repro.core.strategy.Strategy` (so the *observed* per-element
   load converges to the strategy's analytic
   :meth:`~repro.core.strategy.Strategy.element_loads`), restricted by
   :meth:`~repro.core.strategy.Strategy.avoiding` to quorums clear of
   the replicas :class:`~repro.service.concerns.ReplicaHealth` blocks;
2. fan the request out concurrently to every member with a per-request
   timeout: each call is begun at once with
   :meth:`~repro.service.transport.Transport.start`, and its
   continuation hands the outcome to one collector per fan-out, which
   classifies it where it lands by one rule — ``ok`` replies count,
   timeouts and unavailable replicas are counted failures, and any
   other error cancels the other calls and propagates to the caller —
   and wakes the coordinator once, when the fan-out is decided;
3. on any member failure, report the culprits to the replica health
   (and queue the write for them, :class:`~repro.service.concerns.HintQueue`),
   back off (capped exponential) and sample a fresh quorum;
4. reads resolve the replies with the read rule
   (:class:`~repro.service.concerns.NewestWins` or
   :class:`~repro.service.concerns.MaskingVote`) and apply read-repair:
   replicas that returned a stale version get the accepted version
   written back.

Writes carry ``(counter, coordinator_id)`` timestamps from a logical
clock that also advances on every read (the clock adopts the largest
counter seen), so concurrent coordinators converge on a total order.
With leases on (:class:`~repro.service.concerns.LeaseTable`), a sampled
quorum without a live lease is re-joined before it serves.

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

The quorum-selection hot path is O(1) per operation after warm-up:
strategy sampling goes through a cached alias table
(:meth:`~repro.core.strategy.Strategy.sample_index`), and the
avoiding-strategy and hedge-plan computations are memoised per
blocked set and per quorum.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.errors import ServiceError
from ..core.quorum_system import Quorum, QuorumSystem
from ..core.rwstrategy import ReadWriteStrategy
from ..core.strategy import Strategy
from .concerns import (
    NO_LEASES,
    HintQueue,
    LeaseTable,
    MaskingVote,
    NewestWins,
    ReplicaHealth,
)
from .metrics import ServiceMetrics
from .ops import ErrorReply, Join, Payload, Read, ReadReply, Repair, Request, Write
from .replica import NULL_TIMESTAMP
from .transport import (
    DEFAULT_TIMEOUT_MS,
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    Transport,
)


# Builds a ``_Call`` from its fields, as the wire decoders build ops.
_new = tuple.__new__

#: Spares to contact, and candidate quorums with their sorted members.
_HedgePlan = Tuple[Tuple[int, ...], Tuple[Tuple[Quorum, Tuple[int, ...]], ...]]


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


class _Call(tuple):
    """The continuation of one started call, ``(collector, rid)``: it
    reports the outcome to its fan-out's collector, and is cancelled
    once an error settled that fan-out.  A tuple, so the collector
    builds one per call with ``tuple.__new__`` and no ``__init__``."""

    __slots__ = ()

    def __call__(self, outcome: Any) -> None:
        collector, rid = self
        collector.settle(rid, outcome)

    def cancelled(self) -> bool:
        return self[0].error is not None


class _Collector:
    """One fan-out's state, settled by its calls' continuations.

    Each outcome is classified where it lands (a reply's payload, unless
    it is an error reply; a failure through
    :meth:`Coordinator._count_failure`), and the fan-out is decided as
    soon as the first complete candidate quorum is known, or once every
    call has settled.  Outcomes after the decision are stragglers.
    While calls are being started, outcomes that settle synchronously
    (an admission fault) are only recorded: the fan-out is judged once
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
        request: Request,
        candidates: Tuple[Tuple[Quorum, Tuple[int, ...]], ...],
        hint: Optional[Write],
        spares: Tuple[int, ...],
        counted: bool,
    ) -> None:
        self.owner = owner
        self.request = request
        self.candidates = candidates
        self.hint = hint
        self.spares = spares
        self.counted = counted
        self.payloads: Dict[int, Payload] = {}
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
            call = _new(_Call, (self, rid))
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
        if isinstance(outcome, Reply):
            payload = outcome.payload
            if type(payload) is ErrorReply:
                payload = None
            latency = outcome.latency
        else:
            try:
                latency = self.owner._count_failure(outcome, self.counted)
            except Exception as exc:
                self.error = exc
                self._decide()
                return
            payload = None
        if latency > self.latency:
            self.latency = latency
        if payload is None:
            self.failed.append(rid)
            if not self.starting:
                self._progress(False)
            return
        payloads = self.payloads
        payloads[rid] = payload
        if self.starting:
            return
        # _progress(True), inline: every reply of a fan-out lands here.
        acked_ids = payloads.keys()
        for candidate, _ in self.candidates:
            if acked_ids >= candidate:
                self.winner = candidate
                self._decide()
                return
        if self.failed and self.spares:
            self.hedge()
        elif not self.in_flight:
            self._decide()

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
        Channel to the replicas (virtual-time ``SimTransport`` or TCP).
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
    suspicion_ttl, breaker_threshold, breaker_cooldown:
        Replica health, see :class:`~repro.service.concerns.ReplicaHealth`
        (breaker threshold 0, the default, turns breakers off).
    degraded_reads:
        Opt-in: serve best-effort stale reads (``stale=True``) instead of
        raising :class:`OperationFailed` when no full quorum responds.
    hinted_handoff:
        Queue writes for unreachable quorum members and replay them
        after recovery, up to ``HINT_CAPACITY`` key-hints, see
        :class:`~repro.service.concerns.HintQueue`.
    hedge_spares:
        Spare replicas contacted beyond the sampled quorum (0 disables
        hedging, the default).  Spares come from the strategy's ranked
        fallback quorums, and the phase completes when the first
        candidate quorum within the contacted set fully acknowledges.
    hedge_delay_ms:
        When positive, spares are *deferred*: the phase contacts only
        the primary quorum, and issues the spares only if the primary
        has not fully acknowledged after this many milliseconds of the
        event loop's clock (virtual time under
        :func:`~repro.runtime.run_virtual`), or as soon as a primary
        member fails.  The fast path then costs zero extra requests;
        spares fire exactly on the tail.  0 (the default) issues spares
        upfront with the quorum.
    require_full_quorum:
        **Testing only.**  When False, the phase has no candidate quorum
        to complete: it is decided only once every call has settled, and
        then acknowledged if *any* member replied, which breaks quorum
        intersection — the chaos harness flips this to demonstrate
        split-brain detection.
    byzantine_b:
        Lying replicas to mask.  When positive, reads vote, see
        :class:`~repro.service.concerns.MaskingVote`; 0 (the default)
        reads newest-wins.
    lease_ttl:
        Operations a quorum lease stays valid (0, the default, turns
        leases off), see :class:`~repro.service.concerns.LeaseTable`.
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
        if timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
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
        self.coordinator_id = coordinator_id
        self.rng = np.random.default_rng(seed)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.read_repair = read_repair
        self.degraded_reads = degraded_reads
        self.hedge_spares = hedge_spares
        self.hedge_delay_ms = hedge_delay_ms
        self.require_full_quorum = require_full_quorum
        self.metrics = metrics if metrics is not None else ServiceMetrics(system.n)
        self.health = ReplicaHealth(
            suspicion_ttl, breaker_threshold, breaker_cooldown, self.metrics
        )
        self.hints = HintQueue(self.HINT_CAPACITY if hinted_handoff else 0, self.metrics)
        self.leases = LeaseTable(lease_ttl, self.metrics) if lease_ttl else NO_LEASES
        self.read_rule = (
            MaskingVote(byzantine_b, self.rw_strategy, self.metrics) if byzantine_b else NewestWins()
        )
        self._clock = 0
        self._ops_issued = 0
        # (strategy, primary quorum) -> hedge plan, see _hedge_plan.
        self._hedge_plans: Dict[Tuple[Strategy, Quorum], _HedgePlan] = {}
        # Decided fan-outs with calls still in flight (insertion-ordered).
        self._stragglers: Dict[_Collector, None] = {}

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
        counter, writer = best.ts
        self._clock = max(self._clock, counter)
        self.metrics.record_op("read", latency, ok=True, attempts=attempts)
        if self.read_repair and counter > NULL_TIMESTAMP[0]:
            await self._repair_stale(key, best, payloads)
        await self._replay_hints()
        return ReadResult(best.value, counter, writer, latency, attempts)

    async def write(self, key: str, value: Any) -> WriteResult:
        """Quorum write stamped by this coordinator's logical clock."""
        self.metrics.record_key_access(key)
        self._clock += 1
        request = Write(key, value, (self._clock, self.coordinator_id))
        payloads, ack = await self._store("write", request, hint=request)
        # A replica that ignored us saw a newer version; catch the clock up
        # so the next write of this coordinator is not stale too.
        newest = max(reply.ts[0] for reply in payloads.values())
        self._clock = max(self._clock, newest)
        await self._replay_hints()
        return ack

    async def transfer(self, key: str, value: Any, counter: int, writer: int) -> WriteResult:
        """Quorum write of an *existing* version, timestamp preserved.

        The resharding handoff uses this to copy versioned state into a
        destination shard: unlike :meth:`write` it does not mint a new
        timestamp, so a transferred version never wins over a client
        write that superseded it mid-migration.  The request goes out as
        an idempotent ``repair``, making replays harmless.
        """
        _, ack = await self._store("transfer", Repair(key, value, (counter, writer)))
        self._clock = max(self._clock, counter)
        return ack

    async def _store(
        self, kind: str, request: Union[Write, Repair], hint: Optional[Write] = None
    ) -> Tuple[Dict[int, Payload], WriteResult]:
        """Run one versioned request through a write quorum; returns the
        members' payloads and the acknowledgement."""
        self._ops_issued += 1
        key, ts = request.key, request.ts
        try:
            payloads, latency, attempts, _ = await self._quorum_phase(
                request, kind=kind, key=key, hint=hint
            )
        except OperationFailed as exc:
            self.metrics.record_op(kind, exc.latency, ok=False, attempts=exc.attempts)
            raise
        self.read_rule.note_ack(key, payloads, ts)
        self.metrics.record_op(kind, latency, ok=True, attempts=attempts)
        return payloads, WriteResult(ts[0], ts[1], latency, attempts)

    # ------------------------------------------------------------------
    # Quorum machinery
    # ------------------------------------------------------------------
    def _pick_quorum(self, strategy: Strategy) -> Quorum:
        """Sample a quorum of ``strategy`` clear of blocked replicas, if
        one exists; otherwise forgive every block and sample freely.

        The restriction comes from :meth:`Strategy.avoiding`, which
        memoises it on the strategy: every coordinator sharing the
        strategy shares each restriction and its alias table, and an op
        under a blocked set seen before samples with one lookup.
        """
        blocked = self.health.blocked(self._ops_issued)
        if blocked:
            restricted = strategy.avoiding(blocked)
            if restricted is not None:
                return restricted.quorums[restricted.sample_index(self.rng)]
            self.health.forgive()
        return strategy.quorums[strategy.sample_index(self.rng)]

    def _hedge_plan(self, strategy: Strategy, primary: Quorum) -> _HedgePlan:
        """Spares to contact and candidate quorums for a primary quorum.

        Spares are the first ``hedge_spares`` replicas outside the primary
        encountered walking the strategy's ranked quorums, so they belong
        to the most probable alternatives.  Candidates are the primary
        first, then every other support quorum of the strategy contained
        in primary ∪ spares — the sets that can win the phase.  Each
        candidate comes with its sorted member tuple.
        """
        cache_key = (strategy, primary)
        plan = self._hedge_plans.get(cache_key)
        if plan is not None:
            return plan
        spares: List[int] = []
        candidates: List[Tuple[Quorum, Tuple[int, ...]]] = [
            (primary, tuple(sorted(primary)))
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

    def _missed(self, rid: int, hint: Optional[Write]) -> None:
        """``rid`` failed its call: suspect it and queue ``hint`` for it."""
        self.health.failed(rid, self._ops_issued)
        if hint is not None:
            self.hints.record(rid, hint)

    def _absorb_straggler(
        self, rid: int, outcome: Any, hint: Optional[Write]
    ) -> None:
        """Account one call that settled after its attempt was decided.

        The reply is never discarded silently: latency goes into the
        straggler histogram, success clears suspicion, failure feeds
        suspicion and hinted handoff — exactly as if the phase had waited.
        """
        if isinstance(outcome, Reply):
            self.metrics.record_straggler(outcome.latency)
            if type(outcome.payload) is not ErrorReply:
                self.health.succeeded((rid,))
        elif isinstance(outcome, (ReplicaUnavailable, RequestTimeout)):
            self.metrics.record_straggler(outcome.latency)
            self._missed(rid, hint)
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
        request: Request,
        candidates: Tuple[Tuple[Quorum, Tuple[int, ...]], ...] = (),
        hint: Optional[Write] = None,
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
        request: Request,
        kind: str = "op",
        key: str = "",
        hint: Optional[Write] = None,
        path: str = "write",
    ) -> Tuple[Dict[int, Payload], float, int, Quorum]:
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
        strategy = self.rw_strategy.for_path(path)
        total_latency = 0.0
        for attempt in range(1, self.max_attempts + 1):
            quorum = self._pick_quorum(strategy)
            spares, candidates = self._hedge_plan(strategy, quorum)
            members = candidates[0][1]
            if not self.leases.live(quorum, self._ops_issued):
                joined, join_latency = await self._join(quorum, members)
                total_latency += join_latency
                if not joined:
                    # Could not re-validate membership: abandon this
                    # quorum exactly like a failed fan-out attempt.
                    total_latency += await self._fall_back(attempt)
                    continue
            if spares:
                blocked = self.health.blocked(self._ops_issued)
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
            payloads, winner = collector.payloads, collector.winner
            total_latency += collector.latency
            # Failed members are suspected (and hinted) whether or not a
            # candidate quorum still won the phase.
            for rid in collector.failed:
                self._missed(rid, hint)
            if winner is None and not self.require_full_quorum and payloads:
                winner = quorum
            if winner is not None:
                self.health.succeeded(payloads)
                if winner != quorum:
                    self.metrics.record_hedge_won()
                self.metrics.record_quorum_access(winner, path)
                return payloads, total_latency, attempt, winner
            # Every failed attempt is a fallback: the coordinator abandons
            # the picked quorum (the final attempt too, so failed ops do
            # not undercount by one).
            total_latency += await self._fall_back(attempt)
        raise OperationFailed(kind, key, self.max_attempts, total_latency)

    def _count_failure(self, outcome: BaseException, counted: bool) -> float:
        """The latency of a fan-out call that failed with ``outcome``.
        Timeouts and unavailable replicas are counted here (unless
        ``counted`` is False), and only here; any other error
        propagates."""
        if isinstance(outcome, RequestTimeout):
            if counted:
                self.metrics.record_timeout()
        elif isinstance(outcome, ReplicaUnavailable):
            if counted:
                self.metrics.record_unavailable()
        else:
            raise outcome
        return outcome.latency

    async def _broadcast(
        self, members: Tuple[int, ...], request: Request, counted: bool = True
    ) -> Tuple[Dict[int, Optional[Payload]], float]:
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

    async def _read_phase(
        self, key: str
    ) -> Tuple[ReadReply, Dict[int, Payload], float, int]:
        """Quorum phases until the read rule accepts a version.

        A quorum whose replies elect nothing (masking mode: partial
        writes, or more liars than the budget) is abandoned for a fresh
        one, up to ``max_attempts`` rounds; newest-wins always accepts in
        the first.  Returns ``(accepted payload, all payloads, latency,
        attempts)``: read-repair targets the *accepted* version.
        """
        request = Read(key)
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
            accepted, liars = self.read_rule.resolve(payloads, key)
            self.health.lied(liars, self._ops_issued)
            if accepted is not None:
                return accepted, payloads, total_latency, total_attempts
        raise OperationFailed("read", key, total_attempts, total_latency)

    async def _join(self, quorum: Quorum, members: Tuple[int, ...]) -> Tuple[bool, float]:
        """Re-join ``quorum`` for a lease (see :class:`LeaseTable`): a
        concurrent ``join`` to every member, all of which must grant it.
        Returns ``(lease held, handshake latency)``."""
        replies, latency = await self._broadcast(
            members, Join(self.coordinator_id, self.leases.ttl)
        )
        refused = [rid for rid, reply in replies.items() if reply is None or not reply.granted]
        for rid in refused:
            self.health.failed(rid, self._ops_issued)
        self.leases.joined(quorum, not refused, self._ops_issued)
        return not refused, latency

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
        flagged ``stale=True``.  The read rule is the quorum reads'
        one: in masking mode even a stale answer must out-vote the lie
        budget.
        """
        blocked = self.health.blocked(self._ops_issued)
        probe = self.rw_strategy.reads.least_damaged(blocked)
        replies, attempt_latency = await self._broadcast(tuple(sorted(probe)), Read(key))
        payloads = {rid: reply for rid, reply in replies.items() if reply is not None}
        if not payloads:
            return None
        best, liars = self.read_rule.resolve(payloads, key)
        self.health.lied(liars, self._ops_issued)
        if best is None:
            return None
        counter, writer = best.ts
        self._clock = max(self._clock, counter)
        latency = failure.latency + attempt_latency
        attempts = failure.attempts + 1
        self.metrics.record_op("read", latency, ok=True, attempts=attempts)
        self.metrics.record_degraded_read()
        return ReadResult(best.value, counter, writer, latency, attempts, stale=True)

    async def _replay_hints(self) -> None:
        """Deliver queued hints (:class:`HintQueue`) to replicas that look
        alive, after successful operations, best-effort.  A replica that
        fails its replay is suspected again and keeps its remaining
        hints for the next round.  Deletions go through ``pop``: a
        sharded service's concurrent clients may record meanwhile."""
        hints = self.hints
        if not hints.pending or hints.replaying:
            return
        hints.replaying = True
        try:
            blocked = self.health.blocked(self._ops_issued)
            for rid in sorted(hints.pending):
                pending = hints.pending.get(rid)
                if rid in blocked or pending is None:
                    continue
                for key, hint in sorted(pending.items()):
                    try:
                        reply = await self.transport.call(rid, hint, self.timeout)
                    except (ReplicaUnavailable, RequestTimeout):
                        self.health.failed(rid, self._ops_issued)
                        break
                    if type(reply.payload) is not ErrorReply and pending.pop(key, None) is not None:
                        self.metrics.record_hint_replayed()
                        self.read_rule.note_ack(key, (rid,), hint.ts)
                if not pending:
                    hints.pending.pop(rid, None)
        finally:
            hints.replaying = False

    async def _repair_stale(
        self,
        key: str,
        best: ReadReply,
        payloads: Dict[int, ReadReply],
    ) -> None:
        """Write the winning version back to members that returned older
        data.  Best-effort: repair failures never fail the read, and
        repair traffic is tracked separately from quorum-access load."""
        ts = best.ts
        stale = [rid for rid, reply in payloads.items() if reply.ts < ts]
        if not stale:
            return
        request = Repair(key, best.value, ts)
        # Repair failures are neither counted nor suspected.
        replies, _ = await self._broadcast(tuple(sorted(stale)), request, counted=False)
        for rid, reply in replies.items():
            if reply is not None:
                self.metrics.record_read_repair()
                self.read_rule.note_ack(key, (rid,), ts)

    def __repr__(self) -> str:
        return (
            f"<Coordinator id={self.coordinator_id}"
            f" system={self.system.system_name!r}"
            f" clock={self._clock} ops={self._ops_issued}>"
        )
