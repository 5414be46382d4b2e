"""Work budgets of the binary TCP client.

One in-loop binary stand (replica servers on the test's own event loop,
one ``BinaryTcpTransport``, one coordinator) whose per-op work is
deterministic: a fan-out encodes its request once, no RPC creates an
``asyncio.Future`` of its own, replies settle their continuations
inside the socket callback without putting the channel at risk, the
channels one loop iteration dirties share one flush callback, and an
RPC enters a bounded number of Python frames in ``repro.service``.
"""

import asyncio
import os
import sys
from collections import Counter

import pytest

import repro.service
from repro.cli import build_system
from repro.service import (
    BinaryTcpTransport,
    Coordinator,
    make_replicas,
    start_tcp_replicas,
    wire,
)
from repro.service.ops import PING, PingReply, Read, ReadReply, Write
from repro.service.transport import Resolver

WRITES = 20
TIMEOUT_MS = 2_000.0
#: Python frames in ``repro.service`` per RPC of a sequential write.
FRAMES_PER_RPC = 25.0


class Stand:
    """majority:9 served in-loop: every write quorum has 5 members."""

    async def __aenter__(self):
        self.system = build_system("majority:9")
        self.replicas = make_replicas(self.system)
        self.servers, addresses = await start_tcp_replicas(self.replicas)
        self.transport = BinaryTcpTransport(addresses)
        # Dial and HELLO every channel first, so what follows runs on
        # live channels only.  A failed dial closes the transport and
        # the servers before it propagates: nothing outlives the stand.
        try:
            await asyncio.gather(
                *(
                    self.transport.call(rid, PING, TIMEOUT_MS)
                    for rid in sorted(addresses)
                )
            )
        except BaseException:
            await self.__aexit__()
            raise
        return self

    async def __aexit__(self, *exc_info):
        await self.transport.close()
        for server in self.servers:
            server.close()
        for server in self.servers:
            await server.wait_closed()


@pytest.fixture
def encodes(monkeypatch):
    """Calls of ``wire.encode_request``."""
    counts = Counter()
    original = wire.encode_request

    def counted(rpc_id, request):
        counts["encode_request"] += 1
        return original(rpc_id, request)

    monkeypatch.setattr(wire, "encode_request", counted)
    return counts


def run(main):
    """Run ``main()`` (10 s at most); also return every context that
    reached the loop's exception handler."""
    stray = []

    async def guarded():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: stray.append(context)
        )
        return await asyncio.wait_for(main(), timeout=10.0)

    return asyncio.run(guarded()), stray


def test_a_write_fan_out_encodes_once_and_waits_on_one_future(encodes):
    async def main():
        async with Stand() as stand:
            coordinator = Coordinator(
                stand.system, stand.transport, timeout=TIMEOUT_MS, seed=3
            )
            loop = asyncio.get_running_loop()
            create_future = loop.create_future
            futures = Counter()

            def counted_future():
                futures["create_future"] += 1
                return create_future()

            encodes.clear()
            calls_before = stand.transport.calls
            loop.create_future = counted_future
            try:
                for index in range(WRITES):
                    await coordinator.write(f"k{index}", "v" * 64)
            finally:
                del loop.create_future
            return stand.transport.calls - calls_before, futures

    (rpcs, futures), stray = run(main)
    assert stray == []
    # One fan-out per write, five members each ...
    assert rpcs == 5 * WRITES
    # ... one encode per fan-out (five with a per-member encode) ...
    assert encodes["encode_request"] == WRITES
    # ... and one future per fan-out, the collector's waiter: no RPC
    # creates one of its own (six per write with a future per call).
    assert futures["create_future"] == WRITES


def test_a_raising_continuation_leaves_the_channel_up():
    class Raising:
        def __init__(self):
            self.outcomes = []

        def __call__(self, outcome):
            self.outcomes.append(outcome)
            raise RuntimeError("continuation bug")

        def cancelled(self):
            return False

    async def main():
        async with Stand() as stand:
            transport = stand.transport
            channel = transport._states[0].channel
            raising = Raising()
            after = asyncio.get_running_loop().create_future()
            # Both replies ride one frame: the raising continuation runs
            # first, the one behind it must still settle.
            transport.start(0, PING, TIMEOUT_MS, raising)
            transport.start(0, PING, TIMEOUT_MS, Resolver(after))
            reply = await after
            again = await transport.call(0, PING, TIMEOUT_MS)
            live = transport._states[0].channel is channel and not channel.closed
            return raising.outcomes, reply, again, live, transport.reconnects

    (outcomes, reply, again, live, reconnects), stray = run(main)
    assert len(outcomes) == 1 and outcomes[0].payload == PingReply(0)
    assert reply.payload == again.payload == PingReply(0)
    assert live and reconnects == 0
    assert len(stray) == 1
    assert isinstance(stray[0]["exception"], RuntimeError)


def test_a_request_sent_in_a_later_flush_window_is_encoded_anew(encodes):
    async def main():
        async with Stand() as stand:
            transport = stand.transport
            first = Write("k", "first", (1, 0))
            encodes.clear()
            for request in (first, first, Write("k", "second", (2, 0))):
                await asyncio.gather(
                    *(transport.call(rid, request, TIMEOUT_MS) for rid in (0, 1))
                )
            read = Read("k")
            reads = await asyncio.gather(
                *(transport.call(rid, read, TIMEOUT_MS) for rid in (0, 1))
            )
            return [reply.payload for reply in reads]

    payloads, stray = run(main)
    assert stray == []
    assert payloads == [ReadReply(0, "second", (2, 0)), ReadReply(1, "second", (2, 0))]
    # One encode per fan-out: the memo ends with the flush window.
    assert encodes["encode_request"] == 4


def _counted_call_soon(loop, owner, counts):
    """Count ``loop.call_soon`` callbacks bound to ``owner``."""
    call_soon = loop.call_soon

    def counted(callback, *args, **kwargs):
        if getattr(callback, "__self__", None) is owner:
            counts["flush_callbacks"] += 1
        return call_soon(callback, *args, **kwargs)

    loop.call_soon = counted


def test_a_write_fan_out_schedules_one_flush_callback():
    async def main():
        async with Stand() as stand:
            transport = stand.transport
            coordinator = Coordinator(
                stand.system, transport, timeout=TIMEOUT_MS, seed=3
            )
            loop = asyncio.get_running_loop()
            counts = Counter()
            flushes_before = transport.flushes
            _counted_call_soon(loop, transport, counts)
            try:
                for index in range(WRITES):
                    await coordinator.write(f"k{index}", "v" * 64)
            finally:
                del loop.call_soon
            return counts, transport.flushes - flushes_before

    (counts, flushes), stray = run(main)
    assert stray == []
    # Each write dirties five live channels in one loop iteration: five
    # flushed channels, one flush callback (five with one per channel).
    assert flushes == 5 * WRITES
    assert counts["flush_callbacks"] == WRITES


def test_a_paused_channel_keeps_its_outbox_until_it_resumes():
    async def main():
        async with Stand() as stand:
            transport = stand.transport
            channel = transport._states[0].channel
            loop = asyncio.get_running_loop()
            counts = Counter()
            channel.pause_writing()
            reply = loop.create_future()
            flushes_before = transport.flushes
            transport.start(0, Read("k"), TIMEOUT_MS, Resolver(reply))
            for _ in range(3):
                await asyncio.sleep(0)
            held = (
                len(channel.outbox),
                reply.done(),
                transport.flushes - flushes_before,
            )
            _counted_call_soon(loop, transport, counts)
            try:
                channel.resume_writing()
            finally:
                del loop.call_soon
            payload = (await reply).payload
            return held, counts, payload, transport.flushes - flushes_before

    (held, counts, payload, flushes), stray = run(main)
    assert stray == []
    # Paused: the message waits in the outbox, nothing is written ...
    assert held == (1, False, 0)
    # ... and resume_writing sends it through one flush callback.
    assert counts["flush_callbacks"] == 1
    assert flushes == 1
    assert payload == ReadReply(0, None, (0, -1))


def test_python_frames_per_rpc_in_the_service_package():
    """Python frames entered in ``repro.service`` per RPC, client and
    server together, over 20 sequential 5-member writes (coordinator
    included; the stdlib JSON fallbacks of a host without orjson are not
    counted).

    With a flush callback per channel, ``submit`` going through
    ``_dispatch``/``_encode``/``disarm``, replies through ``_settle`` and
    the collector's ``_progress``, a ``_Call.__init__`` per call, and the
    server through ``handle_batch``/``_handle_write``/``_require_key``:
    34.0 per RPC.  With those steps inline: 24.4.
    """
    service_dir = os.path.dirname(repro.service.__file__) + os.sep
    json_shims = {
        shim.__code__
        for shim in (wire._dumps, wire._loads_view)
        if hasattr(shim, "__code__")
    }

    async def main():
        async with Stand() as stand:
            coordinator = Coordinator(
                stand.system, stand.transport, timeout=TIMEOUT_MS, seed=3
            )
            await coordinator.write("warm", "v" * 64)
            calls_before = stand.transport.calls
            frames = Counter()

            def profile(frame, event, arg):
                code = frame.f_code
                if (
                    event == "call"
                    and code.co_filename.startswith(service_dir)
                    and code not in json_shims
                ):
                    frames[code.co_name] += 1

            sys.setprofile(profile)
            try:
                for index in range(WRITES):
                    await coordinator.write(f"k{index}", "v" * 64)
            finally:
                sys.setprofile(None)
            return frames, stand.transport.calls - calls_before

    (frames, rpcs), stray = run(main)
    assert stray == []
    assert rpcs == 5 * WRITES
    assert sum(frames.values()) / rpcs <= FRAMES_PER_RPC, frames.most_common(12)
