"""Work budgets of the binary TCP client.

One in-loop binary stand (replica servers on the test's own event loop,
one ``BinaryTcpTransport``, one coordinator) whose per-op work is
deterministic: a fan-out encodes its request once, no RPC creates an
``asyncio.Future`` of its own, and replies settle their continuations
inside the socket callback without putting the channel at risk.
"""

import asyncio
from collections import Counter

import pytest

from repro.cli import build_system
from repro.service import (
    BinaryTcpTransport,
    Coordinator,
    make_replicas,
    start_tcp_replicas,
    wire,
)
from repro.service.transport import Resolver

WRITES = 20
TIMEOUT_MS = 2_000.0


class Stand:
    """majority:9 served in-loop: every write quorum has 5 members."""

    async def __aenter__(self):
        self.system = build_system("majority:9")
        self.replicas = make_replicas(self.system)
        self.servers, addresses = await start_tcp_replicas(self.replicas)
        self.transport = BinaryTcpTransport(addresses)
        # Dial and HELLO every channel first, so what follows runs on
        # live channels only.
        await asyncio.gather(
            *(
                self.transport.call(rid, {"op": "ping"}, TIMEOUT_MS)
                for rid in sorted(addresses)
            )
        )
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
            transport.start(0, {"op": "ping"}, TIMEOUT_MS, raising)
            transport.start(0, {"op": "ping"}, TIMEOUT_MS, Resolver(after))
            reply = await after
            again = await transport.call(0, {"op": "ping"}, TIMEOUT_MS)
            live = transport._states[0].channel is channel and not channel.closed
            return raising.outcomes, reply, again, live, transport.reconnects

    (outcomes, reply, again, live, reconnects), stray = run(main)
    assert len(outcomes) == 1 and outcomes[0].payload["ok"]
    assert reply.payload["ok"] and again.payload["ok"]
    assert live and reconnects == 0
    assert len(stray) == 1
    assert isinstance(stray[0]["exception"], RuntimeError)


def test_a_request_mutated_after_it_settled_is_sent_anew(encodes):
    async def main():
        async with Stand() as stand:
            transport = stand.transport
            request = {"op": "write", "key": "k", "value": "first",
                       "counter": 1, "writer": 0}
            encodes.clear()
            await asyncio.gather(
                *(transport.call(rid, request, TIMEOUT_MS) for rid in (0, 1))
            )
            request["value"] = "second"
            request["counter"] = 2
            await asyncio.gather(
                *(transport.call(rid, request, TIMEOUT_MS) for rid in (0, 1))
            )
            read = {"op": "read", "key": "k"}
            reads = await asyncio.gather(
                *(transport.call(rid, read, TIMEOUT_MS) for rid in (0, 1))
            )
            return [reply.payload for reply in reads]

    payloads, stray = run(main)
    assert stray == []
    assert [(p["value"], p["counter"]) for p in payloads] == [("second", 2)] * 2
    # Two fan-outs of the write, two encodes; then one for the reads.
    assert encodes["encode_request"] == 3
