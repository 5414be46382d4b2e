"""Transports for the quorum-replicated key-value service.

:class:`Transport` is the abstraction: a transport implements one
request primitive, :meth:`Transport.start`, which begins a call and
settles a continuation with its outcome; :meth:`Transport.call` is the
same request awaited.  The TCP transport lives here; the in-memory
substrate (the virtual-time
:class:`~repro.service.simtransport.SimTransport`) and the
fault-injecting :class:`~repro.service.faults.FaultyTransport` wrapper
live in their own modules.

:class:`BinaryTcpTransport` speaks binary wire v2
(:mod:`repro.service.wire`) over real sockets against replica servers
started with :func:`start_tcp_replicas`; latencies are wall-clock.
Requests are *pipelined* and *coalesced*: every op queued in one
event-loop iteration rides one frame tagged per op with an rpc id the
server echoes back, so N concurrent calls to one replica cost one round
trip each instead of N serialised round trips.

Every transport reports per-message latency in the reply so the
coordinator can aggregate operation latency the same way regardless of
transport.
"""

from __future__ import annotations

import asyncio
import struct
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core.errors import (
    ReplicaUnavailable,
    RequestTimeout,
    ServiceError,
    TransportError,
)
from . import wire
from .ops import PING, Payload, Request
from .replica import Replica

# The transport error taxonomy lives in :mod:`repro.core.errors`
# (shared with the rest of the library); re-exported here next to the
# transports that raise it.
__all__ = [
    "DEFAULT_TIMEOUT_MS",
    "TransportError",
    "ReplicaUnavailable",
    "RequestTimeout",
    "Reply",
    "Resolver",
    "Then",
    "Transport",
    "BinaryTcpTransport",
    "start_tcp_replicas",
]

#: Default per-request deadline (milliseconds, virtual or wall-clock).
DEFAULT_TIMEOUT_MS = 50.0

#: The one request of the old dict protocol :meth:`Transport.call` takes.
_DICT_PING = {"op": "ping"}


class Reply(NamedTuple):
    """A replica's reply plus the observed message latency (ms)."""

    payload: Payload
    latency: float


class Resolver:
    """The continuation of one started call (see :meth:`Transport.start`).

    ``resolver(outcome)`` settles ``future`` with a :class:`Reply` or an
    exception; a call after the future is done — settled, or cancelled
    by a caller that gave up — is ignored.  :meth:`cancelled` lets a
    transport holding a deferred delivery drop it without touching the
    replica.
    """

    __slots__ = ("future",)

    def __init__(self, future: "asyncio.Future[Reply]") -> None:
        self.future = future

    def __call__(self, outcome: Any) -> None:
        future = self.future
        if future.done():
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    def cancelled(self) -> bool:
        return self.future.cancelled()


class Then:
    """A continuation that settles ``resolve`` with
    ``step(resolve, outcome, *args)``.

    Wrapper transports pass one to their inner transport's
    :meth:`Transport.start` to finish a call synchronously inside the
    inner delivery.  ``step`` returns what ``resolve`` gets, or None
    when it has handed ``resolve`` on to another call.  An exception
    escaping ``step`` settles ``resolve`` instead; one escaping
    ``resolve`` goes to the loop's exception handler, so ``resolve`` is
    called once.  It is cancelled when ``resolve`` is.
    """

    __slots__ = ("resolve", "step", "args")

    def __init__(self, resolve: Any, step: Callable[..., Any], *args: Any) -> None:
        self.resolve = resolve
        self.step = step
        self.args = args

    def __call__(self, outcome: Any) -> None:
        try:
            outcome = self.step(self.resolve, outcome, *self.args)
        except Exception as exc:
            outcome = exc
        if outcome is None:
            return
        try:
            self.resolve(outcome)
        except Exception as exc:
            asyncio.get_running_loop().call_exception_handler(
                {"message": "Then: a call's continuation raised", "exception": exc}
            )

    def cancelled(self) -> bool:
        return self.resolve.cancelled()


class Transport(ABC):
    """Request/response channel from a coordinator to replicas.

    A transport implements one request primitive, :meth:`start`;
    :meth:`call` is that primitive awaited.
    """

    @abstractmethod
    def start(
        self,
        replica_id: int,
        request: Request,
        timeout: float,
        resolve: Any,
    ) -> None:
        """Begin one call now; report its outcome through ``resolve``.

        ``resolve`` (a :class:`Resolver`, a :class:`Then`, or the
        coordinator's per-call continuation) is called exactly once,
        synchronously, with the :class:`Reply` or the transport error as
        soon as the outcome exists — possibly before ``start`` returns.
        A transport that delivers later checks ``resolve.cancelled()``
        first and then leaves the replica alone.  An error in the
        caller's own input (an unknown replica id, an object of no
        request type) may raise instead.  Requests are immutable, so a
        transport may hold one (to re-send it on a fresh connection) or
        share its encoding among the calls of one fan-out.
        """

    async def call(
        self,
        replica_id: int,
        request: Request,
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        """Send one request and await it: :meth:`start` with a future.

        Raises :class:`ReplicaUnavailable` / :class:`RequestTimeout` on
        failure.  Cancelling the caller cancels the future, so a
        transport that delivers later leaves the replica alone.
        """
        if request == _DICT_PING:
            # perfbench/workload_tcp.py still pings with the dict of the
            # old protocol; exactly that dict stands for Ping() until
            # perfbench sends the type itself.
            request = PING
        future = asyncio.get_running_loop().create_future()
        self.start(replica_id, request, timeout, Resolver(future))
        return await future

    async def pause(self, delay_ms: float) -> None:
        """Backoff hook: sleep ``delay_ms`` of transport time.

        Real transports sleep wall-clock; ``SimTransport`` sleeps on its
        own clock, which under virtual time costs no wall time at all.
        """
        await asyncio.sleep(delay_ms / 1000.0)

    async def close(self) -> None:
        """Release sockets/resources; idempotent."""


# ----------------------------------------------------------------------
# TCP / binary wire v2
# ----------------------------------------------------------------------

#: HELLO body: (min_version, max_version) supported by the peer.
_HELLO_BODY = struct.Struct("!BB")
#: The rpc id that leads every request message.
_RPC_ID = struct.Struct("!I")
# Builds a ``Reply`` from all its fields, as the wire decoders do (``wire._new``).
_new = tuple.__new__
_CONTINUATION_RAISED = "BinaryTcpTransport: a call's continuation raised"


class _ReplicaProtocol(asyncio.Protocol):
    """One replica-server connection speaking binary wire v2, served
    callback-style.

    The handler runs directly on transport callbacks — no per-connection
    ``StreamReader`` task — so a pipelined burst of N requests costs one
    ``data_received`` and one write, with no task switch in between.

    Each incoming frame is a coalesced batch of requests.  The server
    decodes the whole frame before it applies any of it, so a malformed
    message anywhere in it hangs up with nothing applied; it then
    answers the frame in one pass, one :meth:`Replica.handle` call and
    one encode per message, as one reply frame — one ``write`` per
    ``data_received``.  The first frame must be a HELLO; the reply
    HELLO's header carries the negotiated version (0 = no overlap, then
    hang up).  Any codec violation (bad magic — a JSON line, say —
    oversized frame, truncated message) tears the connection down —
    there is no resync inside a byte stream; the client reconnects.
    """

    __slots__ = ("replica", "transport", "decoder", "version")

    def __init__(self, replica: Replica) -> None:
        self.replica = replica
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = wire.FrameDecoder()
        self.version = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.transport = None

    # Flow control: when the peer stops reading our replies, stop
    # reading its requests instead of buffering replies unboundedly —
    # the callback analogue of the old ``await writer.drain()``.
    def pause_writing(self) -> None:
        if self.transport is not None:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self.transport is not None:
            self.transport.resume_reading()

    def _hang_up(self) -> None:
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()

    def data_received(self, data: bytes) -> None:
        if self.transport is None:  # already hung up; late bytes in flight
            return
        try:
            frames = self.decoder.feed(data)
        except wire.WireError:
            self._hang_up()
            return
        if not frames:
            return
        out: List[bytes] = []
        handle = self.replica.handle
        decode, encode = wire.decode_request, wire.encode_response
        for frame_version, flags, count, body in frames:
            if flags & wire.FLAG_HELLO:
                try:
                    client_min, client_max = _HELLO_BODY.unpack(body)
                except struct.error:
                    self._hang_up()
                    return
                self.version = wire.negotiate(client_min, client_max)
                out.append(wire.hello_frame(version=self.version))
                if self.version == 0:
                    self.transport.write(b"".join(out))
                    self._hang_up()
                    return
                continue
            if self.version == 0:
                self._hang_up()  # protocol violation: data before HELLO
                return
            try:
                offset = 0
                rpc_ids = []
                requests = []
                for _ in range(count):
                    rpc_id, request, offset = decode(body, offset)
                    rpc_ids.append(rpc_id)
                    requests.append(request)
                # The whole frame decoded: apply and encode in one pass.
                out.extend(
                    wire.pack_frames(
                        list(map(encode, rpc_ids, map(handle, requests))),
                        version=self.version,
                    )
                )
            except wire.WireError:
                self._hang_up()
                return
        if out and self.transport is not None:
            self.transport.write(b"".join(out))


async def start_tcp_replicas(
    replicas: Iterable[Replica],
    host: str = "127.0.0.1",
    base_port: int = 0,
    workers: int = 0,
):
    """Start one binary wire v2 server per replica.

    With ``base_port > 0`` replica ``i`` listens on ``base_port + i``;
    with ``base_port == 0`` the OS assigns ephemeral ports.  Returns the
    server objects (close them to "crash" a replica) and the
    ``{replica_id: (host, port)}`` address map
    :class:`BinaryTcpTransport` consumes.

    With ``workers > 0`` the replicas are instead hosted by a
    :class:`~repro.service.cluster.ReplicaCluster` of that many OS
    processes (one event loop each, replicas assigned round-robin) and
    the first element of the return value is the started cluster —
    ``close()`` it instead of closing servers.  The worker processes
    build their *own* fresh ``Replica`` state for the given ids; the
    passed objects only contribute their ``replica_id``.  Prefer
    constructing the cluster before entering the event loop when you
    can; this path exists for loop-bound callers (e.g. ``quorumtool
    serve --workers``).
    """
    if workers > 0:
        from .cluster import ReplicaCluster

        cluster = ReplicaCluster(
            [replica.replica_id for replica in replicas],
            workers=workers,
            host=host,
            base_port=base_port,
        )
        loop = asyncio.get_running_loop()
        addresses = await loop.run_in_executor(None, cluster.start)
        return cluster, addresses
    loop = asyncio.get_running_loop()
    servers: List[asyncio.base_events.Server] = []
    addresses: Dict[int, Tuple[str, int]] = {}
    for replica in replicas:
        port = 0 if base_port == 0 else base_port + replica.replica_id
        server = await loop.create_server(
            lambda rep=replica: _ReplicaProtocol(rep),
            host=host,
            port=port,
        )
        bound_port = server.sockets[0].getsockname()[1]
        servers.append(server)
        addresses[replica.replica_id] = (host, bound_port)
    return servers, addresses


class _BinCall:
    """One logical RPC in flight on the binary transport.

    ``resolve`` is the caller's continuation (see
    :meth:`Transport.start`); ``done`` turns true when it was called, so
    a call reachable from both a dial backlog and its deadline timer is
    settled once.
    """

    __slots__ = (
        "replica_id",
        "request",
        "timeout",
        "resolve",
        "done",
        "start",
        "deadline",
        "reused",
        "retried",
        "rpc_id",
        "timer",
    )

    def __init__(
        self,
        replica_id: int,
        request: Request,
        timeout: float,
        resolve: Any,
        start: float,
    ) -> None:
        self.replica_id = replica_id
        self.request = request
        self.timeout = timeout
        self.resolve = resolve
        self.done = False
        self.start = start
        self.deadline = start + timeout / 1000.0
        self.reused = False
        self.retried = False
        self.rpc_id = -1
        # Armed only while the call waits in a dial backlog; calls
        # pending on a live channel share the channel's deadline sweep.
        self.timer: Optional[asyncio.TimerHandle] = None

    def disarm(self) -> None:
        """Cancel the backlog deadline timer, if armed."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class _BinChannel(asyncio.Protocol):
    """One negotiated binary connection, run directly on transport
    callbacks: pending calls by rpc id, an outbox of encoded messages
    awaiting the next coalesced flush (``flush_scheduled`` while the
    channel is on its transport's dirty list), and a single
    deadline-sweep timer instead of one timer per call.  Replies settle their calls'
    continuations inside ``data_received`` — no reader task, no future,
    no per-reply task switch."""

    __slots__ = (
        "owner",
        "replica_id",
        "state",
        "conn",
        "pending",
        "next_id",
        "outbox",
        "flush_scheduled",
        "closed",
        "version",
        "decoder",
        "sweep_timer",
        "sweep_at",
        "paused",
    )

    def __init__(
        self, owner: "BinaryTcpTransport", replica_id: int, state: "_BinState"
    ) -> None:
        self.owner = owner
        self.replica_id = replica_id
        self.state = state
        self.conn: Optional[asyncio.Transport] = None
        self.pending: Dict[int, _BinCall] = {}
        self.next_id = 0
        self.outbox: List[bytes] = []
        self.flush_scheduled = False
        self.closed = False
        self.version = 0  # 0 until the server's HELLO lands
        self.decoder = wire.FrameDecoder()
        self.sweep_timer: Optional[asyncio.TimerHandle] = None
        self.sweep_at = 0.0
        self.paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.conn = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self.closed:
            reason = str(exc) if exc else "closed"
            self.owner._teardown(self.state, self, reason)

    def data_received(self, data: bytes) -> None:
        self.owner._on_data(self, data)

    # Flow control: hold the outbox while the socket is backed up; the
    # queued messages go out on resume.
    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.outbox and not self.flush_scheduled:
            self.owner._mark_dirty(self)


class _BinState:
    """Per-replica dial state: the live channel (if any), calls waiting
    for a dial to finish, and the dial task itself."""

    __slots__ = ("channel", "backlog", "dial_task")

    def __init__(self) -> None:
        self.channel: Optional[_BinChannel] = None
        self.backlog: List[_BinCall] = []
        self.dial_task: Optional[asyncio.Task] = None


class BinaryTcpTransport(Transport):
    """Pipelined binary v2 client: struct-packed frames, op coalescing,
    and a task-free, future-free hot path end to end.

    * **No per-message JSON.**  Requests and replies are packed with
      :mod:`struct` (:mod:`repro.service.wire`); only values travel as
      JSON blobs, keys and timestamps are length-delimited binary
      fields.
    * **Op coalescing.**  Every logical RPC queued during one flush
      window is packed into a *single* length-prefixed frame; the
      replica server decodes the whole frame, then applies and answers
      it message by message in one pass, with one write.
      ``coalesced_ops`` / ``frames_sent`` / ``ops_per_frame`` /
      ``bytes_per_op`` counters expose the packing.
    * **One encode per fan-out.**  A request object is encoded once per
      flush window; every replica it goes to gets the same bytes behind
      its own 4-byte rpc id.  The memo is emptied by the next flush, so
      it never outlives the loop iteration that filled it.
    * **Task-free, future-free hot path.**  :meth:`start` (the
      coordinator's fan-out, and :meth:`call` underneath) is
      :meth:`submit`, which enqueues a call and its continuation without
      a task or a future (on a live channel without a further Python
      call, but the request's one encode per flush window); the first
      channel a loop iteration dirties schedules the one ``call_soon``
      flush callback of that iteration, which flushes every dirty channel
      (so every op submitted in the iteration lands in its channel's
      frame, and ``resume_writing`` takes the same path); and per-call
      deadline timers are replaced by one deadline-sweep timer per
      channel.
    * **Replies settle where they land.**  ``_on_data`` decodes every
      frame of one socket read, reads the clock once, then calls the
      continuations in wire order — the coordinator's collector runs
      inside the socket callback, with no future and no loop hop in
      between.  A continuation that raises reaches the loop's exception
      handler, never the protocol callback, so it cannot cost the
      channel.  Against a future per call whose done-callback handed
      the outcome on one loop iteration later, on a 2-core host
      (perfbench, alternating 30-s pairs): ``tcp-write50`` ops/s
      3440 → 3734 (median of 10 pairs, 10 won), ``tcp-read95``
      5017 → 5409 (5 of 5).  Traced, the collector's settle work now
      counts as ``transport.io`` self time instead of residual.
    * **Version negotiation.**  The first frame each way is a HELLO;
      the client pipelines requests behind its HELLO optimistically and
      tears the channel down if the server's negotiated version is
      unsupported.

    Failure semantics: a call that dies with its *cached* channel is
    retried once on a fresh connection (``reconnects`` counts re-dials),
    a fresh connection that fails surfaces :class:`ReplicaUnavailable`,
    and a per-request timeout drops the late reply by rpc id without
    costing the channel.  A request that cannot be encoded, or whose
    message exceeds :data:`~repro.service.wire.MAX_FRAME_BYTES`, raises
    from :meth:`start` on a live channel and fails alone with that error
    on a channel still dialing.  A caller whose continuation reports
    ``cancelled()`` while its call waits for a dial is never sent.
    """

    def __init__(self, addresses: Mapping[int, Tuple[str, int]]) -> None:
        if not addresses:
            raise ServiceError("TCP transport needs at least one address")
        self.addresses = dict(addresses)
        self._states: Dict[int, _BinState] = {}
        self._ever_dialed: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # id(request) -> (request, message body after the rpc id).  The
        # entry holds the request, so its id cannot be reused while the
        # entry lives; _flush_dirty empties the memo.
        self._encoded: Dict[int, Tuple[Request, bytes]] = {}
        # Channels with an outbox to send; non-empty exactly while the
        # one flush callback is scheduled.
        self._dirty: List[_BinChannel] = []
        self.reconnects = 0
        self.calls = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.coalesced_ops = 0

    # ------------------------------------------------------------------
    # Derived coalescing metrics
    # ------------------------------------------------------------------
    @property
    def ops_per_frame(self) -> float:
        """Mean logical RPCs coalesced into one outbound frame."""
        return self.coalesced_ops / self.frames_sent if self.frames_sent else 0.0

    @property
    def bytes_per_op(self) -> float:
        """Mean wire bytes (both directions) per logical RPC."""
        return (self.bytes_sent + self.bytes_received) / self.calls if self.calls else 0.0

    # ------------------------------------------------------------------
    # Submission fast path
    # ------------------------------------------------------------------
    def submit(
        self,
        replica_id: int,
        request: Request,
        timeout: float,
        resolve: Any,
    ) -> None:
        """Queue one RPC whose outcome goes to ``resolve``.

        Synchronous: no coroutine, no task, no future — the caller fans
        a whole quorum out in a tight loop.  Must be called from within
        the running event loop.  On a live channel an unencodable or
        oversized request raises here, before anything is queued.  The
        live-channel path runs inline; only a call that must wait for a
        dial goes through :meth:`_dispatch`.
        """
        state = self._states.get(replica_id)
        if state is None:
            if replica_id not in self.addresses:
                raise ServiceError(f"unknown replica id {replica_id}")
            state = self._states[replica_id] = _BinState()
        loop = self._loop
        if loop is None:
            loop = self._loop = asyncio.get_running_loop()
        self.calls += 1
        entry = _BinCall(replica_id, request, timeout, resolve, loop.time())
        channel = state.channel
        if channel is None or channel.closed:
            self._dispatch(state, entry)
            return
        rpc_id = channel.next_id
        # Encode before registering: an unencodable request raises out
        # of submit() without leaving a dangling pending entry.
        cached = self._encoded.get(id(request))
        if cached is None:
            message = self._encode(rpc_id, request)
        else:
            message = _RPC_ID.pack(rpc_id) + cached[1]
        channel.next_id = rpc_id + 1
        entry.reused = True
        entry.rpc_id = rpc_id
        channel.pending[rpc_id] = entry
        if channel.sweep_timer is None or entry.deadline < channel.sweep_at:
            self._arm_sweep(channel, entry.deadline)
        channel.outbox.append(message)
        if not channel.flush_scheduled:
            # _mark_dirty(channel), without its call on the per-RPC path.
            channel.flush_scheduled = True
            dirty = self._dirty
            if not dirty:
                loop.call_soon(self._flush_dirty)
            dirty.append(channel)

    def start(
        self,
        replica_id: int,
        request: Request,
        timeout: float,
        resolve: Any,
    ) -> None:
        # submit stays the one enqueue point, timed on its own by
        # perfbench as transport.submit.
        self.submit(replica_id, request, timeout, resolve)

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def _settle(self, entry: _BinCall, outcome: Any) -> None:
        """Call ``entry``'s continuation once; what it raises goes to the
        loop's exception handler, not to the transport callback.
        ``_on_data`` runs the same step inline for every reply."""
        if entry.done:
            return
        entry.done = True
        try:
            entry.resolve(outcome)
        except Exception as exc:
            self._loop.call_exception_handler(
                {"message": _CONTINUATION_RAISED, "exception": exc}
            )

    # ------------------------------------------------------------------
    # Dispatch / dial
    # ------------------------------------------------------------------
    def _encode(self, rpc_id: int, request: Request) -> bytes:
        """``request``'s message under ``rpc_id``; the body is encoded
        once per request object and flush window."""
        cached = self._encoded.get(id(request))
        if cached is None:
            message = wire.encode_request(rpc_id, request)
            if len(message) > wire.MAX_FRAME_BYTES:
                raise wire.WireError(
                    f"request message {len(message)} exceeds frame cap"
                    f" {wire.MAX_FRAME_BYTES}"
                )
            self._encoded[id(request)] = (request, message[_RPC_ID.size :])
            return message
        return _RPC_ID.pack(rpc_id) + cached[1]

    def _arm_sweep(self, channel: _BinChannel, deadline: float) -> None:
        """(Re-)arm ``channel``'s deadline sweep to fire at ``deadline``."""
        if channel.sweep_timer is not None:
            channel.sweep_timer.cancel()
        loop = self._loop
        channel.sweep_at = deadline
        channel.sweep_timer = loop.call_later(
            max(0.0, deadline - loop.time()), self._sweep, channel
        )

    def _mark_dirty(self, channel: _BinChannel) -> None:
        """Put ``channel`` on the dirty list; the first dirty channel of
        a loop iteration schedules the one flush callback."""
        channel.flush_scheduled = True
        dirty = self._dirty
        if not dirty:
            # End-of-iteration callback: every op submitted during this
            # event-loop iteration joins its channel's frame.
            self._loop.call_soon(self._flush_dirty)
        dirty.append(channel)

    def _dispatch(self, state: _BinState, entry: _BinCall) -> None:
        """Send ``entry`` on a channel its dial just made live, or queue
        it in the dial backlog (dialing if no dial is under way)."""
        channel = state.channel
        if channel is not None and not channel.closed:
            rpc_id = channel.next_id
            message = self._encode(rpc_id, entry.request)
            channel.next_id = rpc_id + 1
            entry.reused = False
            entry.rpc_id = rpc_id
            if entry.timer is not None:
                entry.disarm()
            channel.pending[rpc_id] = entry
            if channel.sweep_timer is None or entry.deadline < channel.sweep_at:
                self._arm_sweep(channel, entry.deadline)
            channel.outbox.append(message)
            if not channel.flush_scheduled:
                self._mark_dirty(channel)
            return
        if entry.timer is None:
            loop = self._loop
            entry.timer = loop.call_later(
                max(0.0, entry.deadline - loop.time()), self._expire, entry
            )
        state.backlog.append(entry)
        if state.dial_task is None or state.dial_task.done():
            state.dial_task = asyncio.ensure_future(
                self._dial(entry.replica_id, state)
            )

    async def _dial(self, replica_id: int, state: _BinState) -> None:
        # One-shot reconnect accounting: re-dialing a replica whose
        # previous channel died counts once.  The replica leaves the set
        # until the dial succeeds, so a truly unreachable replica is only
        # counted once.
        if replica_id in self._ever_dialed:
            self._ever_dialed.discard(replica_id)
            self.reconnects += 1
        host, port = self.addresses[replica_id]
        channel = _BinChannel(self, replica_id, state)
        try:
            await self._loop.create_connection(lambda: channel, host, port)
        except (ConnectionError, OSError) as exc:
            # Continuations run inside this task: one that calls again
            # must start a fresh dial, not wait on this finished one.
            state.dial_task = None
            backlog, state.backlog = state.backlog, []
            for entry in backlog:
                self._fail(entry, str(exc))
            return
        self._ever_dialed.add(replica_id)
        state.channel = channel
        # HELLO goes out first; requests pipeline behind it optimistically
        # and die with the channel if the server rejects the version.
        hello = wire.hello_frame()
        channel.conn.write(hello)
        self.bytes_sent += len(hello)
        backlog, state.backlog = state.backlog, []
        for entry in backlog:
            if entry.done or entry.resolve.cancelled():
                entry.disarm()
                continue
            try:
                self._dispatch(state, entry)
            except Exception as exc:
                # An unencodable request fails alone, at once, as it
                # would from submit() on a live channel.
                entry.disarm()
                self._settle(entry, exc)

    def _fail(self, entry: _BinCall, reason: str) -> None:
        entry.disarm()
        if not entry.done:
            elapsed = (self._loop.time() - entry.start) * 1000.0
            self._settle(
                entry,
                ReplicaUnavailable(entry.replica_id, latency=elapsed, reason=reason),
            )

    def _expire(self, entry: _BinCall) -> None:
        """Backlog deadline timer: the dial did not finish in time."""
        entry.timer = None
        self._settle(entry, RequestTimeout(entry.replica_id, latency=entry.timeout))

    def _sweep(self, channel: _BinChannel) -> None:
        """Channel deadline sweep: one timer for every pending call.

        Fires at the earliest pending deadline, fails whatever expired,
        re-arms at the next one.  Completed calls leave ``pending``
        immediately, so in the common case the sweep wakes rarely and
        finds nothing — versus one ``call_later`` + ``cancel`` per RPC.
        The late reply (if any) is dropped by rpc id in ``_on_data``.
        The timer is re-armed before any continuation runs, so a call
        started from one finds it in place.
        """
        channel.sweep_timer = None
        if channel.closed:
            return
        loop = self._loop
        now = loop.time()
        expired: List[_BinCall] = []
        next_deadline = 0.0
        for entry in channel.pending.values():
            if entry.deadline <= now:
                expired.append(entry)
            elif not next_deadline or entry.deadline < next_deadline:
                next_deadline = entry.deadline
        for entry in expired:
            del channel.pending[entry.rpc_id]
        if next_deadline:
            channel.sweep_at = next_deadline
            channel.sweep_timer = loop.call_later(
                next_deadline - now, self._sweep, channel
            )
        for entry in expired:
            self._settle(entry, RequestTimeout(entry.replica_id, latency=entry.timeout))

    # ------------------------------------------------------------------
    # Flush / receive
    # ------------------------------------------------------------------
    def _flush_dirty(self) -> None:
        """The one flush callback of a loop iteration: end the encode
        memo's window and flush every dirty channel."""
        dirty, self._dirty = self._dirty, []
        self._encoded.clear()
        flush = self._flush
        for channel in dirty:
            flush(channel)

    def _flush(self, channel: _BinChannel) -> None:
        """Pack ``channel``'s outbox into coalesced frames, one write per
        burst (a paused channel keeps its outbox until it resumes)."""
        channel.flush_scheduled = False
        if channel.closed or channel.paused:
            return
        messages = channel.outbox
        if not messages:
            return
        channel.outbox = []
        frames = wire.pack_frames(messages, version=wire.VERSION)
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        channel.conn.write(data)
        self.flushes += 1
        self.frames_sent += len(frames)
        self.coalesced_ops += len(messages)
        self.bytes_sent += len(data)

    def _on_data(self, channel: _BinChannel, data: bytes) -> None:
        """Connection callback: decode every reply frame of one read,
        then settle the calls in wire order (see the class docstring).
        Each settle is :meth:`_settle`'s step, inline."""
        self.bytes_received += len(data)
        try:
            frames = channel.decoder.feed(data)
        except wire.WireError as exc:
            self._teardown(channel.state, channel, str(exc))
            return
        pending = channel.pending
        landed: List[Tuple[_BinCall, Payload]] = []
        failure: Optional[str] = None
        decode = wire.decode_response
        for version, flags, count, body in frames:
            if flags & wire.FLAG_HELLO:
                if not wire.MIN_VERSION <= version <= wire.VERSION:
                    failure = f"server rejected protocol (version {version})"
                    break
                channel.version = version
                continue
            self.frames_received += 1
            offset = 0
            try:
                for _ in range(count):
                    rpc_id, payload, offset = decode(body, offset)
                    entry = pending.pop(rpc_id, None)
                    # Unmatched ids are replies that already timed out: drop.
                    if entry is not None:
                        landed.append((entry, payload))
            except wire.WireError as exc:
                failure = str(exc)
                break
        if landed:
            loop = self._loop
            now = loop.time()
            for entry, payload in landed:
                if entry.done:
                    continue
                entry.done = True
                try:
                    entry.resolve(_new(Reply, (payload, (now - entry.start) * 1000.0)))
                except Exception as exc:
                    loop.call_exception_handler(
                        {"message": _CONTINUATION_RAISED, "exception": exc}
                    )
        if failure is not None:
            self._teardown(channel.state, channel, failure)

    def _teardown(
        self,
        state: _BinState,
        channel: _BinChannel,
        reason: str,
        *,
        allow_retry: bool = True,
    ) -> None:
        """Fail or re-queue every call pending on a dead channel.

        Calls that were riding a *cached* channel get their one retry: a
        fresh dial is kicked off and they go out again with new rpc ids.
        Everything else fails with :class:`ReplicaUnavailable`.
        """
        if channel.closed:
            return
        channel.closed = True
        if channel.sweep_timer is not None:
            channel.sweep_timer.cancel()
            channel.sweep_timer = None
        if state.channel is channel:
            state.channel = None
        pending = list(channel.pending.values())
        channel.pending.clear()
        channel.outbox.clear()
        retry: List[_BinCall] = []
        failed: List[_BinCall] = []
        for entry in pending:
            if entry.done or entry.resolve.cancelled():
                continue
            if allow_retry and entry.reused and not entry.retried:
                entry.retried = True
                retry.append(entry)
            else:
                failed.append(entry)
        if retry:
            state.backlog.extend(retry)
            if state.dial_task is None or state.dial_task.done():
                state.dial_task = asyncio.ensure_future(
                    self._dial(retry[0].replica_id, state)
                )
        # Last: a continuation may start calls, which then queue behind
        # the retries on the fresh dial.
        for entry in failed:
            self._fail(entry, reason)
        conn = channel.conn
        if conn is not None:
            try:
                conn.close()
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    async def close(self) -> None:
        states = list(self._states.values())
        self._states.clear()
        tasks = [
            state.dial_task
            for state in states
            if state.dial_task is not None and not state.dial_task.done()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for state in states:
            backlog, state.backlog = state.backlog, []
            for entry in backlog:
                self._fail(entry, "transport closed")
            if state.channel is not None:
                self._teardown(
                    state, state.channel, "transport closed", allow_retry=False
                )
