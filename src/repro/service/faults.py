"""Fault injection for the KV service.

The declarative fault model — :class:`~repro.runtime.faults.Window`, the
fault rule types and :class:`~repro.runtime.faults.FaultSchedule` —
lives in :mod:`repro.runtime.faults` so that a single schedule can drive
the asyncio service, the discrete-event simulator and the analytic
availability comparison alike; import it from there.  This module is
the service-side executor: :class:`FaultyTransport`, which applies a
schedule on top of any inner :class:`~repro.service.transport.Transport`
(TCP, or the virtual-time :class:`~repro.service.simtransport.SimTransport`).

A call goes through the wrapper one of three ways.  :meth:`FaultyTransport.
start` first burns the call's coins and settles a call to a crashed or
partitioned replica at once with its error.  A call to a replica whose
rules are :data:`~repro.runtime.faults.NO_RULES` (no drop, duplicate,
latency or Byzantine rule touches it) then goes straight to the inner
transport's ``start`` with the caller's own continuation: nothing left
could fire, so the caller gets the inner outcome unchanged.  Any other
call applies the request-drop rule and chains through the inner
``start`` with a :class:`~repro.service.transport.Then`, which runs the
second half synchronously: a duplicated request is sent again through
the inner ``start`` and the reply is held until the duplicate settles
(its timeout or unavailability is swallowed); then the response-drop,
latency and Byzantine rules decide what the caller gets.  No task or
coroutine is created per call, and a direct caller's
:meth:`~repro.service.transport.Transport.call` takes the same path.

The schedule is resolved per tick, not per call.  The wrapper keeps the
schedule's ``view`` (segment, crash down-set, the site's unreachable
set) until its ``clock`` moves, and each replica's ``replica_rules``
(drop, duplicate, latency and Byzantine rules) until the view's segment
changes; see :class:`~repro.runtime.faults.FaultSchedule`.  A call then
costs dictionary lookups, and the plan of an admitted call carries its
replica's rules, so its reply is judged by the rules of the tick it was
sent at.

Determinism: the drop/duplicate coin flips come from the wrapper's own
seeded RNG, three per call *unconditionally* (active or not), so a fixed
seed gives one fixed randomness stream no matter how the schedule is
edited.  They are drawn in blocks of :data:`COIN_BLOCK` calls; the RNG
serves nothing else, so that is the same stream as three draws per
call.  Every injected fault is appended to :attr:`FaultyTransport.
activation_log` as ``(tick, kind, replica_id)`` — the cross-substrate
determinism tests assert this log is identical whichever inner transport
the wrapper runs over.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..runtime.faults import NO_RULES, FaultSchedule, FaultView, ReplicaRules
from .replica import NULL_TIMESTAMP
from .transport import (
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    Then,
    Transport,
)

__all__ = [
    "ActivationLog",
    "COIN_BLOCK",
    "DEFAULT_ACTIVATION_LOG_CAP",
    "FaultyTransport",
    "injected_totals",
]

#: Default bound on :attr:`FaultyTransport.activation_log`.  Large enough
#: that every single-run test sees the complete history, small enough
#: that a multi-seed sweep cannot grow memory without bound.
DEFAULT_ACTIVATION_LOG_CAP = 65536

#: Calls whose coins :class:`FaultyTransport` draws in one numpy call.
COIN_BLOCK = 256


class ActivationLog:
    """Bounded injection history: a ring buffer of ``(tick, kind, id)``.

    Behaves like the list it replaced — iteration, indexing, ``len`` and
    equality against plain lists/tuples all work — but keeps only the
    most recent ``cap`` entries and counts the rest in :attr:`dropped`,
    so week-long sweeps cannot grow memory without bound.
    """

    def __init__(self, cap: int = DEFAULT_ACTIVATION_LOG_CAP) -> None:
        if cap <= 0:
            raise ValueError(f"activation log cap must be positive, got {cap}")
        self.cap = int(cap)
        self.dropped = 0
        self._entries: deque = deque(maxlen=self.cap)

    def append(self, entry: Tuple[float, str, int]) -> None:
        if len(self._entries) == self.cap:
            self.dropped += 1
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, str, int]]:
        return iter(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ActivationLog):
            return list(self._entries) == list(other._entries)
        if isinstance(other, (list, tuple)):
            return list(self._entries) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"<ActivationLog {len(self._entries)}/{self.cap}"
            f" dropped={self.dropped}>"
        )


class _Plan(NamedTuple):
    """One admitted call through :class:`FaultyTransport`: its coins,
    its replica's rules and what goes on the wire."""

    replica_id: int
    request: Dict[str, Any]
    wire_request: Dict[str, Any]
    timeout: float
    u_response: float
    u_duplicate: float
    rules: ReplicaRules
    fake_ack: bool


class FaultyTransport(Transport):
    """Applies a :class:`FaultSchedule` on top of an inner transport.

    Parameters
    ----------
    inner:
        The real channel (TCP, or the virtual-time sim).  All
        faults are injected in this wrapper; the inner transport is never
        touched, so a post-run verifier can read the replicas fault-free
        through it.
    schedule:
        The fault rules.
    seed:
        Seed for the drop/duplicate coin flips.
    site:
        Which client site this transport represents for partition faults
        and equivocation (coordinators on different sides of a partition
        hold different ``FaultyTransport`` instances over one shared
        inner transport; an equivocating replica tells each site a
        different lie).
    log_cap:
        Ring-buffer bound for :attr:`activation_log`; older entries are
        evicted and counted in :attr:`activations_dropped`.
    fabricated_registry:
        Optional shared set collecting every fabricated value this
        wrapper hands out.  The chaos harness passes one set to every
        client's wrapper so its safety invariant can recognise a
        Byzantine fabrication no matter which liar produced it.
    """

    def __init__(
        self,
        inner: Transport,
        schedule: FaultSchedule,
        *,
        seed: int = 0,
        site: int = 0,
        log_cap: int = DEFAULT_ACTIVATION_LOG_CAP,
        fabricated_registry: Optional[Set[str]] = None,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.site = site
        self.rng = np.random.default_rng(seed)
        self.clock = 0.0
        self.calls = 0
        self.injected: Dict[str, int] = {
            "crash": 0,
            "partition": 0,
            "latency_timeout": 0,
            "drop_request": 0,
            "drop_response": 0,
            "duplicate": 0,
            "byz_wrong_value": 0,
            "byz_stale_timestamp": 0,
            "byz_equivocate": 0,
            "byz_write_fakeack": 0,
        }
        #: Every injected fault as ``(tick, kind, replica_id)``, in
        #: injection order.  Pure function of (schedule, seed, call
        #: sequence) — independent of the inner transport, which the
        #: cross-substrate determinism tests rely on.  Bounded: only the
        #: most recent ``log_cap`` entries are kept.
        self.activation_log = ActivationLog(log_cap)
        #: Every fabricated value handed to a caller (shared when a
        #: ``fabricated_registry`` was passed in).
        self.fabricated_values: Set[str] = (
            fabricated_registry if fabricated_registry is not None else set()
        )
        # The schedule resolved once per tick (the view, kept until the
        # clock moves) and once per segment and replica (the rules, kept
        # until the view's segment changes).
        self._view: Optional[FaultView] = None
        self._view_tick: Optional[float] = None
        self._rules: Dict[int, ReplicaRules] = {}
        # The current block of coins and the index of the next call's.
        self._coins: List[float] = []
        self._coin = 0

    @property
    def activations_dropped(self) -> int:
        """Entries evicted from the bounded :attr:`activation_log`."""
        return self.activation_log.dropped

    def advance(self, ticks: float = 1.0) -> None:
        """Move the fault clock forward (the harness calls this per op)."""
        self.clock += ticks

    def _inject(self, kind: str, replica_id: int) -> None:
        self.injected[kind] += 1
        self.activation_log.append((self.clock, kind, replica_id))

    def _view_now(self) -> FaultView:
        """The schedule's view of the current tick, built once per tick."""
        view = self._view
        if view is None or self._view_tick != self.clock:
            fresh = self.schedule.view(self.clock, self.site)
            if view is None or fresh.segment != view.segment:
                self._rules = {}
            view = self._view = fresh
            self._view_tick = self.clock
        return view

    def start(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float,
        resolve: Any,
    ) -> None:
        self.calls += 1
        # Unconditional draws keep the randomness stream independent of
        # which rules are active (edit the schedule, keep the coins).
        coin = self._coin
        if coin == len(self._coins):
            self._coins = self.rng.random(3 * COIN_BLOCK).tolist()
            coin = 0
        self._coin = coin + 3
        view = self._view_now()
        if replica_id in view.unreachable:
            kind = "crash" if replica_id in view.down else "partition"
            self._inject(kind, replica_id)
            resolve(
                ReplicaUnavailable(replica_id, latency=timeout, reason=f"fault: {kind}")
            )
            return
        rules = self._rules.get(replica_id)
        if rules is None:
            rules = self._rules[replica_id] = self.schedule.replica_rules(
                view.segment, replica_id
            )
        if rules is NO_RULES:
            self.inner.start(replica_id, request, timeout, resolve)
            return
        u_request, u_response, u_duplicate = self._coins[coin : coin + 3]
        if u_request < rules.drop_request:
            # The request never reaches the replica: no side effect, the
            # caller burns the deadline waiting for a reply.
            self._inject("drop_request", replica_id)
            resolve(RequestTimeout(replica_id, latency=timeout))
            return
        op = request.get("op")
        fake_ack = rules.byzantine == "wrong_value" and op in ("write", "repair")
        # A fake-acked write must not touch the replica's store, but the
        # liar still answers on time: send a side-effect-free ping down
        # the inner transport so the latency/service-time draws (and the
        # FIFO queue occupancy) are identical to an honest write.
        wire_request = {"op": "ping"} if fake_ack else request
        plan = _Plan(
            replica_id,
            request,
            wire_request,
            timeout,
            u_response,
            u_duplicate,
            rules,
            fake_ack,
        )
        self.inner.start(
            replica_id, wire_request, timeout, Then(resolve, self._replied, plan)
        )

    def _replied(self, resolve: Any, outcome: Any, plan: _Plan) -> Any:
        """Continuation of :meth:`start` once the inner call settled."""
        if isinstance(outcome, BaseException):
            return outcome
        if plan.u_duplicate < plan.rules.duplicate:
            self._inject("duplicate", plan.replica_id)
            # The reply is held until the duplicate settles.
            self.inner.start(
                plan.replica_id,
                plan.wire_request,
                plan.timeout,
                Then(resolve, self._duplicated, plan, outcome),
            )
            return None
        return self._finish(plan, outcome)

    def _duplicated(
        self, resolve: Any, outcome: Any, plan: _Plan, reply: Reply
    ) -> Any:
        if isinstance(outcome, BaseException) and not isinstance(
            outcome, (ReplicaUnavailable, RequestTimeout)
        ):
            return outcome
        return self._finish(plan, reply)  # the duplicate is fire-and-forget

    def _finish(self, plan: _Plan, reply: Reply) -> Reply:
        """The replying half: raise the response-drop and latency
        faults, or return the (possibly Byzantine) reply."""
        replica_id, timeout, rules = plan.replica_id, plan.timeout, plan.rules
        if plan.u_response < rules.drop_response:
            # Side effect applied, reply lost: an acknowledged-by-nobody
            # write the safety checker must tolerate as "pending".
            self._inject("drop_response", replica_id)
            raise RequestTimeout(replica_id, latency=timeout)
        if rules.latency:
            # Only a latency rule times a reply out here; a reply the
            # inner transport settled late is passed on as it came.
            latency = rules.delay(reply.latency)
            if latency > timeout:
                self._inject("latency_timeout", replica_id)
                raise RequestTimeout(replica_id, latency=timeout)
            reply = Reply(reply.payload, latency)
        request = plan.request
        if plan.fake_ack:
            self._inject("byz_write_fakeack", replica_id)
            payload = {
                "ok": True,
                "replica": replica_id,
                "applied": True,
                "counter": int(request.get("counter", 0)),
                "writer": int(request.get("writer", -1)),
            }
        elif (
            rules.byzantine is not None
            and request.get("op") == "read"
            and reply.payload.get("ok")
        ):
            payload = self._fabricate(
                rules.byzantine, replica_id, request, reply.payload
            )
        else:
            return reply
        return Reply(payload, reply.latency)

    def _fabricate(
        self,
        mode: str,
        replica_id: int,
        request: Dict[str, Any],
        payload: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Build the lying read reply for an active Byzantine rule.

        Deterministic by construction (no RNG): ``wrong_value`` liars
        collude — every liar fabricates the same bytes for a given
        (key, version) — because identical lies maximise vote counts,
        the adversary's best play against a b+1-vote reader.  The
        ``zzz-byz:`` prefix sorts above every honest value so the voted
        read's deterministic tie-break is adversarial, not charitable.
        """
        key = request.get("key")
        if mode == "stale_timestamp":
            # Rollback attack: deny the key was ever written.
            self._inject("byz_stale_timestamp", replica_id)
            return {
                "ok": True,
                "replica": replica_id,
                "value": None,
                "counter": NULL_TIMESTAMP[0],
                "writer": NULL_TIMESTAMP[1],
            }
        counter = int(payload.get("counter", 0))
        writer = int(payload.get("writer", -1))
        value = f"zzz-byz:{key}:{counter}:{writer}"
        if mode == "equivocate":
            value = f"{value}:s{self.site}"
            self._inject("byz_equivocate", replica_id)
        else:
            self._inject("byz_wrong_value", replica_id)
        self.fabricated_values.add(value)
        return {
            "ok": True,
            "replica": replica_id,
            "value": value,
            "counter": counter,
            "writer": writer,
        }

    async def pause(self, delay_ms: float) -> None:
        await self.inner.pause(delay_ms)

    async def close(self) -> None:
        await self.inner.close()

    def __repr__(self) -> str:
        return (
            f"<FaultyTransport site={self.site} clock={self.clock:g}"
            f" calls={self.calls} over {self.inner!r}>"
        )


def injected_totals(transports: Iterable[FaultyTransport]) -> Dict[str, int]:
    """Injected faults per kind, summed over ``transports``."""
    totals: Dict[str, int] = {}
    for transport in transports:
        for kind, count in transport.injected.items():
            totals[kind] = totals.get(kind, 0) + count
    return totals
