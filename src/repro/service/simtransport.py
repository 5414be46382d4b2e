"""A discrete-event transport: the real service stack under virtual time.

:class:`SimTransport` implements the :class:`~repro.service.transport.
Transport` interface on top of a :class:`~repro.runtime.clock.Clock`.
It is the service's one in-memory substrate.  Message latencies are
drawn from a seeded RNG and crash epochs reuse the paper's iid model
(:func:`~repro.runtime.faults.sample_iid_crash_set`); each latency is
**spent** on the clock, so concurrent requests complete in latency
order, timeouts elapse, hedging delays fire, and backoff pauses cost
time, just like against real sockets.

A fanned-out call costs no task, no coroutine and one loop iteration:
:meth:`SimTransport.start` draws the latency and arms one
``loop.call_later`` timer that far out, and the timer itself delivers —
``Replica.handle``, then ``resolve(Reply)`` — so the coordinator's
collector settles the reply inside the iteration the virtual clock
reaches it.  A failed call (crashed replica, overshot deadline)
resolves with its error after the full timeout instead.  Cutting the
hops keeps the order of events, because under virtual time that order
is set by the clock: two deliveries meet in one iteration only when
their times are equal.  A caller that awaits one request directly
(:meth:`~repro.service.transport.Transport.call`) goes through the same
``start`` and awaits the future it settles.

Run it under :func:`~repro.runtime.clock.run_virtual` with a
:class:`~repro.runtime.clock.VirtualClock` and the whole thing collapses
to a discrete-event simulation: the unmodified ``Coordinator`` /
``Replica`` code — hedging, circuit breakers, hinted handoff and all —
executes bit-reproducibly at thousands of simulated chaos runs per
second, because every idle wait is a clock jump.  Hand it a
:class:`~repro.runtime.clock.WallClock` under a normal event loop and
the *same* run plays out in real time — the wall-clock control the
``--sim`` speedup is measured against.  The RNG draws, and therefore the
operation outcomes and metric snapshots, are identical in both modes.

Fault injection composes the usual way: wrap a ``SimTransport`` in a
:class:`~repro.service.faults.FaultyTransport` and one declarative
:class:`~repro.runtime.faults.FaultSchedule` drives the virtual-time
world exactly as it drives the TCP world.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..core.errors import ServiceError, TransportError
from ..runtime.clock import Clock, VirtualClock
from ..runtime.faults import sample_iid_crash_set
from ..runtime.metrics import Counter
from .replica import Replica
from .transport import (
    Reply,
    ReplicaUnavailable,
    RequestTimeout,
    Transport,
    deliver,
)

__all__ = ["SimTransport"]


class SimTransport(Transport):
    """Latency-spending transport over a runtime clock.

    Parameters
    ----------
    replicas:
        The replicas, one per universe element (list or {id: replica}).
    clock:
        Time source; a fresh :class:`~repro.runtime.clock.VirtualClock`
        by default.  Share one clock between the transport and the
        :class:`~repro.runtime.clock.VirtualTimeLoop` running it.
    seed / rng:
        Latency randomness — an int seed, or a generator (e.g. a named
        stream from :class:`~repro.runtime.rng.RngStreams`).
    base_latency, mean_latency:
        Message latency (ms) is ``base + Exp(mean)`` per call.
    crash_rate:
        iid crash probability ``p`` for :meth:`resample_crashes`.
    service_time_ms:
        Per-request processing time at the replica (0, the default,
        preserves the historical pure-latency model bit-for-bit).  When
        positive, each replica is a FIFO server: concurrent requests to
        the same replica queue behind each other, so a replica has
        finite *capacity* and overload shows up as queueing delay.
        This is the knob that makes sharding measurable — spreading
        keys over more replicas buys aggregate service capacity, which
        the virtual-time throughput of the sharded benchmark reports.
    wire_check:
        Debug mode: round-trip every request and reply through the
        binary wire-v2 codec (:mod:`repro.service.wire`) and raise on
        any drift.  The sim never frames bytes on its hot path, so the
        default is off; switching it on turns every sim run into a
        proof that the op model the simulator exercises is exactly the
        one :class:`~repro.service.transport.BinaryTcpTransport` puts
        on real sockets.
    """

    def __init__(
        self,
        replicas: Iterable[Replica],
        *,
        clock: Optional[Clock] = None,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        base_latency: float = 1.0,
        mean_latency: float = 4.0,
        crash_rate: float = 0.0,
        service_time_ms: float = 0.0,
        wire_check: bool = False,
    ) -> None:
        if isinstance(replicas, Mapping):
            self.replicas: Dict[int, Replica] = dict(replicas)
        else:
            self.replicas = {r.replica_id: r for r in replicas}
        if not self.replicas:
            raise ServiceError("transport needs at least one replica")
        if not 0.0 <= crash_rate <= 1.0:
            raise ServiceError(f"crash rate must be in [0,1], got {crash_rate}")
        if base_latency < 0 or mean_latency < 0:
            raise ServiceError("latencies must be non-negative")
        if service_time_ms < 0:
            raise ServiceError("service time must be non-negative")
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.base_latency = base_latency
        self.mean_latency = mean_latency
        self.crash_rate = crash_rate
        self.service_time_ms = service_time_ms
        self.wire_check = wire_check
        self.down: frozenset = frozenset()
        self.epochs = 0
        self.calls = Counter()
        self.timeouts = Counter()
        self.unavailable = Counter()
        # replica id -> virtual time its FIFO queue drains (capacity model)
        self._busy_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Crash injection
    # ------------------------------------------------------------------
    def crash(self, *replica_ids: int) -> None:
        """Mark replicas as crashed (targeted injection, e.g. in tests)."""
        self.down = self.down | frozenset(replica_ids)

    def recover(self, *replica_ids: int) -> None:
        """Bring replicas back; with no arguments, recover everyone."""
        if not replica_ids:
            self.down = frozenset()
        else:
            self.down = self.down - frozenset(replica_ids)

    def resample_crashes(self) -> frozenset:
        """Start a new crash epoch: replica ``i`` down iid w.p. ``crash_rate``."""
        self.down = sample_iid_crash_set(
            self.rng, sorted(self.replicas), self.crash_rate
        )
        self.epochs += 1
        return self.down

    # ------------------------------------------------------------------
    def _draw(
        self, replica_id: int, timeout: float
    ) -> Tuple[Replica, float, Optional[TransportError]]:
        """Draw one call's fate: ``(replica, ms until its outcome, error
        or None)``."""
        replica = self.replicas.get(replica_id)
        if replica is None:
            raise ServiceError(f"unknown replica id {replica_id}")
        self.calls += 1
        # Draw the round-trip latency unconditionally so the RNG stream
        # does not depend on the current crash set.
        latency = self.base_latency + float(self.rng.exponential(self.mean_latency))
        if replica_id in self.down:
            # A crashed replica never answers: the caller burns the full
            # deadline — in clock time, not just on paper.
            self.unavailable += 1
            return replica, timeout, ReplicaUnavailable(replica_id, latency=timeout)
        if self.service_time_ms > 0:
            # FIFO capacity model: the request waits for the replica's
            # queue to drain, then occupies it for one service time.
            now = self.clock.now()
            start = max(now, self._busy_until.get(replica_id, now))
            finish = start + self.service_time_ms
            latency += finish - now
            if latency > timeout:
                # Overload: the client gives up before being served; the
                # slot is NOT reserved (the server never saw the work),
                # so a saturated replica's queue is bounded by timeouts.
                self.timeouts += 1
                return replica, timeout, RequestTimeout(replica_id, latency=timeout)
            self._busy_until[replica_id] = finish
        elif latency > timeout:
            self.timeouts += 1
            return replica, timeout, RequestTimeout(replica_id, latency=timeout)
        return replica, latency, None

    def _arrive(
        self,
        replica: Replica,
        request: Dict[str, Any],
        latency: float,
        error: Optional[TransportError],
    ) -> Reply:
        """The call's outcome once its ``latency`` has elapsed."""
        if error is not None:
            raise error
        # The side effect applies at *arrival* time, so concurrent
        # operations interleave in latency order exactly as they would
        # over a network.
        payload = replica.handle(request)
        if self.wire_check:
            # One op model across substrates: anything the sim carries
            # must survive the binary codec byte-exactly, else raise.
            from . import wire

            wire.assert_op_roundtrip(request, payload)
        return Reply(payload, latency)

    # The base ``call``, bound in this class's own namespace: perfbench
    # counts direct calls by wrapping ``SimTransport.__dict__["call"]``.
    call = Transport.call

    def start(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float,
        resolve: Any,
    ) -> None:
        replica, wait, error = self._draw(replica_id, timeout)
        loop = asyncio.get_running_loop()
        delivery = (deliver, resolve, self._arrive, replica, request, wait, error)
        delay = max(0.0, wait) / 1000.0
        # One loop hop: the timer delivers, or one yield for no delay.
        if delay > 0:
            loop.call_later(delay, *delivery)
        else:
            loop.call_soon(*delivery)

    async def pause(self, delay_ms: float) -> None:
        # Backoff costs clock time, like every other wait.
        await self.clock.sleep(delay_ms)

    def __repr__(self) -> str:
        return (
            f"<SimTransport replicas={len(self.replicas)}"
            f" t={self.clock.now():.1f}ms calls={int(self.calls)}>"
        )


class InProcessTransport(SimTransport):
    """A zero-latency :class:`SimTransport` for perfbench's traced replay.

    It exists only so that perfbench's ``coordinator.inproc_us_per_op``
    replay, which builds it under a plain ``asyncio.run``, keeps
    working: with no latency every call delivers with one ``call_soon``
    and no loop timer is armed.  It goes when a ``[benchmark]`` change
    gives perfbench a replay transport of its own; nothing else uses it.
    """

    def __init__(self, replicas: Iterable[Replica], *, seed: int = 0) -> None:
        super().__init__(replicas, seed=seed, base_latency=0.0, mean_latency=0.0)
