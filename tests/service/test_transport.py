"""Tests for the transports: in-memory determinism and crashes, TCP.

The TCP failure-semantics tests drive :class:`BinaryTcpTransport`
against small scripted peers that speak binary wire v2 by hand
(:func:`read_requests` / :func:`answer`), so each test controls exactly
when a reply arrives, in what order, or whether the peer hangs up.
"""

import asyncio

import pytest

from repro.core.errors import ServiceError
from repro.runtime import run_virtual
from repro.service import (
    BinaryTcpTransport,
    Replica,
    ReplicaUnavailable,
    RequestTimeout,
    SimTransport,
    start_tcp_replicas,
    wire,
)
from repro.service.ops import PING, ErrorReply, PingReply, Read, Write


def make_transport(n=5, **kwargs):
    return SimTransport([Replica(i) for i in range(n)], **kwargs)


class TestInMemory:
    def test_latency_sequence_is_seed_deterministic(self):
        def latencies(seed):
            transport = make_transport(seed=seed)

            async def main():
                return [
                    (await transport.call(i % 5, PING)).latency
                    for i in range(20)
                ]

            return run_virtual(main(), clock=transport.clock)

        first = latencies(123)
        second = latencies(123)
        other = latencies(124)
        assert first == second
        assert first != other
        assert all(lat >= 1.0 for lat in first)  # base latency floor

    def test_crashed_replica_burns_the_deadline(self):
        transport = make_transport(seed=0)

        async def scenario():
            transport.crash(2)
            with pytest.raises(ReplicaUnavailable) as info:
                await transport.call(2, PING, timeout=30.0)
            assert info.value.latency == 30.0
            transport.recover(2)
            reply = await transport.call(2, PING)
            assert reply.payload == PingReply(2)

        run_virtual(scenario(), clock=transport.clock)

    def test_slow_message_times_out_deterministically(self):
        transport = make_transport(seed=0, base_latency=10.0, mean_latency=0.0)

        async def scenario():
            with pytest.raises(RequestTimeout) as info:
                await transport.call(0, PING, timeout=5.0)
            assert info.value.latency == 5.0
            # A generous deadline admits the same message.
            reply = await transport.call(0, PING, timeout=100.0)
            assert reply.latency >= 10.0

        run_virtual(scenario(), clock=transport.clock)

    def test_iid_crash_epochs_reproducible(self):
        first = make_transport(n=30, seed=9, crash_rate=0.3)
        second = make_transport(n=30, seed=9, crash_rate=0.3)
        epochs_a = [first.resample_crashes() for _ in range(10)]
        epochs_b = [second.resample_crashes() for _ in range(10)]
        assert epochs_a == epochs_b
        assert any(epochs_a)  # p=0.3 over 30 replicas: crashes do happen
        assert first.epochs == 10

    def test_zero_crash_rate_never_crashes(self):
        transport = make_transport(seed=4, crash_rate=0.0)
        assert transport.resample_crashes() == frozenset()

    def test_unknown_replica_and_bad_params_rejected(self):
        transport = make_transport()
        with pytest.raises(ServiceError):
            run_virtual(transport.call(99, PING), clock=transport.clock)
        with pytest.raises(ServiceError):
            make_transport(crash_rate=1.5)
        with pytest.raises(ServiceError):
            SimTransport([])


async def read_requests(reader, decoder):
    """Await the next requests a binary client sends, as ``(rpc_id,
    request)`` pairs; HELLO frames are skipped.  ``[]`` means EOF."""
    while True:
        data = await reader.read(4096)
        if not data:
            return []
        batch = []
        for _, flags, count, body in decoder.feed(data):
            if flags & wire.FLAG_HELLO:
                continue
            offset = 0
            for _ in range(count):
                rpc_id, request, offset = wire.decode_request(body, offset)
                batch.append((rpc_id, request))
        if batch:
            return batch


def answer(writer, replies):
    """Write ``(rpc_id, response)`` pairs as binary response frames."""
    messages = [wire.encode_response(rpc_id, payload) for rpc_id, payload in replies]
    writer.write(b"".join(wire.pack_frames(messages)))


async def start_peer(handler):
    """Start a scripted binary peer on an ephemeral localhost port.

    ``handler(reader, writer, decoder)`` runs per connection after the
    peer's HELLO went out; the connection is closed when it returns.
    """

    async def connection(reader, writer):
        writer.write(wire.hello_frame())
        try:
            await handler(reader, writer, wire.FrameDecoder())
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(connection, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


async def stop(transport, *servers):
    await transport.close()
    for server in servers:
        server.close()
        await server.wait_closed()


class TestTcp:
    def test_round_trip_and_crash(self):
        async def scenario():
            replicas = [Replica(i) for i in range(3)]
            servers, addresses = await start_tcp_replicas(replicas, base_port=0)
            transport = BinaryTcpTransport(addresses)
            try:
                ack = await transport.call(
                    0,
                    Write("k", "v", (1, 0)),
                    timeout=2000.0,
                )
                assert ack.payload.applied
                read = await transport.call(0, Read("k"), timeout=2000.0)
                assert read.payload.value == "v"
                assert read.latency > 0.0
                # Replica servers answer refused requests with an error
                # reply, and a killed server surfaces as ReplicaUnavailable.
                bad = await transport.call(1, Read(""), timeout=2000.0)
                assert type(bad.payload) is ErrorReply
                servers[2].close()
                await servers[2].wait_closed()
                with pytest.raises(ReplicaUnavailable):
                    await transport.call(2, PING, timeout=2000.0)
            finally:
                await stop(transport, *servers[:2])

        asyncio.run(scenario())

    def test_base_port_layout(self):
        async def scenario():
            replicas = [Replica(i) for i in range(2)]
            servers, addresses = await start_tcp_replicas(replicas, base_port=0)
            try:
                assert set(addresses) == {0, 1}
                ports = {port for _, port in addresses.values()}
                assert len(ports) == 2  # distinct ephemeral ports
            finally:
                for server in servers:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_empty_address_map_rejected(self):
        with pytest.raises(ServiceError):
            BinaryTcpTransport({})


class TestTcpReconnect:
    @staticmethod
    async def _start_one_shot_server(replica):
        """A replica peer that closes every connection after one reply —
        the cached persistent connection is dead by the next call."""

        async def one_shot(reader, writer, decoder):
            batch = await read_requests(reader, decoder)
            if batch:
                rpc_id, request = batch[0]
                answer(writer, [(rpc_id, replica.handle(request))])

        return await start_peer(one_shot)

    def test_dropped_persistent_connection_is_retried_once(self):
        async def scenario():
            replica = Replica(0)
            server, port = await self._start_one_shot_server(replica)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            try:
                for index in range(3):
                    reply = await transport.call(
                        0,
                        Write(f"k{index}", index, (index + 1, 0)),
                        timeout=2000.0,
                    )
                    assert reply.payload.applied
            finally:
                await stop(transport, server)
            # Calls 2 and 3 found the cached connection closed by the peer
            # and transparently reconnected instead of failing.
            assert transport.reconnects == 2
            assert replica.writes_applied == 3

        asyncio.run(scenario())

    def test_call_dying_with_cached_channel_is_retried_once(self):
        async def scenario():
            connections = []

            # Answers the first request on a connection, then hangs up on
            # the next one unanswered: the second call is already pending
            # on the cached channel when it dies.
            async def one_then_hang_up(reader, writer, decoder):
                connections.append(writer)
                rpc_id, _ = (await read_requests(reader, decoder))[0]
                answer(writer, [(rpc_id, PingReply(0))])
                await writer.drain()
                await read_requests(reader, decoder)

            server, port = await start_peer(one_then_hang_up)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            try:
                first = await transport.call(0, PING, timeout=2000.0)
                second = await transport.call(0, PING, timeout=2000.0)
            finally:
                await stop(transport, server)
            assert first.payload == second.payload == PingReply(0)
            # One retry on a fresh dial, counted as one reconnect.
            assert transport.reconnects == 1
            assert len(connections) == 2

        asyncio.run(scenario())

    def test_fresh_connection_failure_is_not_retried(self):
        async def scenario():
            replica = Replica(0)
            server, port = await self._start_one_shot_server(replica)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            try:
                await transport.call(0, PING, timeout=2000.0)
                server.close()
                await server.wait_closed()
                # The cached connection is dead and the reconnect attempt
                # cannot reach the (gone) server: exactly one retry, then
                # the failure surfaces.
                with pytest.raises(ReplicaUnavailable):
                    await transport.call(0, PING, timeout=2000.0)
            finally:
                await transport.close()
            assert transport.reconnects <= 1

        asyncio.run(scenario())


class TestPipelining:
    """Rpc-id multiplexing of many calls over one connection."""

    def test_out_of_order_replies_reach_the_right_callers(self):
        async def scenario():
            replica = Replica(0)
            for index in range(3):
                replica.handle(
                    Write(f"k{index}", f"v{index}", (index + 1, 0))
                )

            # Withholds replies until three requests arrived, then answers
            # them in *reverse* order — only rpc ids, never arrival order,
            # can match replies to callers.
            async def reordering(reader, writer, decoder):
                pending = []
                while len(pending) < 3:
                    batch = await read_requests(reader, decoder)
                    if not batch:
                        return
                    pending.extend(batch)
                answer(
                    writer,
                    [(rpc_id, replica.handle(request))
                     for rpc_id, request in reversed(pending)],
                )
                await writer.drain()
                await read_requests(reader, decoder)  # until the client hangs up

            server, port = await start_peer(reordering)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            try:
                replies = await asyncio.gather(
                    *(
                        transport.call(
                            0, Read(f"k{i}"), timeout=2000.0
                        )
                        for i in range(3)
                    )
                )
            finally:
                await stop(transport, server)
            # Despite the peer reversing the reply order, every caller
            # got the value for *its* key over the one shared connection.
            assert [r.payload.value for r in replies] == ["v0", "v1", "v2"]
            assert transport.reconnects == 0

        asyncio.run(scenario())

    def test_concurrent_calls_share_one_pipelined_connection(self):
        async def scenario():
            replicas = [Replica(0)]
            servers, addresses = await start_tcp_replicas(replicas, base_port=0)
            transport = BinaryTcpTransport(addresses)
            try:
                replies = await asyncio.gather(
                    *(
                        transport.call(0, PING, timeout=2000.0)
                        for _ in range(16)
                    )
                )
                assert all(r.payload == PingReply(0) for r in replies)
                # One dial served all 16 in-flight calls; batching means
                # strictly fewer socket flushes than requests.
                assert transport.reconnects == 0
                assert transport.calls == 16
                assert 1 <= transport.flushes < 16
            finally:
                await stop(transport, *servers)

        asyncio.run(scenario())

    def test_channel_death_fails_only_affected_futures(self):
        async def scenario():
            # Replica 0: a black hole that reads requests and then slams
            # the connection shut without answering.  Replica 1: healthy.
            async def black_hole(reader, writer, decoder):
                await read_requests(reader, decoder)

            broken, port = await start_peer(black_hole)
            servers, addresses = await start_tcp_replicas(
                [Replica(1)], base_port=0
            )
            addresses[0] = ("127.0.0.1", port)
            transport = BinaryTcpTransport(addresses)
            try:
                outcomes = await asyncio.gather(
                    transport.call(0, PING, timeout=2000.0),
                    transport.call(1, PING, timeout=2000.0),
                    return_exceptions=True,
                )
            finally:
                await stop(transport, broken, *servers)
            # The dead channel failed its own pending call; the call
            # multiplexed to the healthy replica was untouched.
            assert isinstance(outcomes[0], ReplicaUnavailable)
            assert outcomes[1].payload == PingReply(1)

        asyncio.run(scenario())

    def test_timeout_keeps_the_channel_alive(self):
        async def scenario():
            connections = []

            async def slow_then_fast(reader, writer, decoder):
                connections.append(writer)
                first = True
                while True:
                    batch = await read_requests(reader, decoder)
                    if not batch:
                        return
                    if first:
                        first = False
                        await asyncio.sleep(0.2)  # past the first deadline
                    answer(writer, [(rpc_id, PingReply(0)) for rpc_id, _ in batch])
                    await writer.drain()

            server, port = await start_peer(slow_then_fast)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            try:
                with pytest.raises(RequestTimeout):
                    await transport.call(0, PING, timeout=50.0)
                # The expired request did not tear the connection down: the
                # next call reuses it, and the late reply for the dead id
                # is dropped instead of corrupting this one.
                reply = await transport.call(0, PING, timeout=2000.0)
                assert reply.payload == PingReply(0)
                assert transport.reconnects == 0
                assert len(connections) == 1
            finally:
                await stop(transport, server)

        asyncio.run(scenario())


class TestFaultyOverPipelined:
    """FaultSchedule rules apply per *logical* call over pipelined TCP."""

    def test_drop_and_duplicate_rules_apply_per_call(self):
        from repro.runtime.faults import (
            DropFault,
            DuplicateFault,
            FaultSchedule,
            Window,
        )
        from repro.service.faults import FaultyTransport

        async def scenario():
            replicas = [Replica(0)]
            servers, addresses = await start_tcp_replicas(replicas, base_port=0)
            inner = BinaryTcpTransport(addresses)
            schedule = FaultSchedule(
                [
                    DropFault(
                        frozenset({0}), Window(0, 1), probability=1.0,
                        direction="request",
                    ),
                    DuplicateFault(
                        frozenset({0}), Window(1, 2), probability=1.0
                    ),
                ]
            )
            faulty = FaultyTransport(inner, schedule, seed=3)
            try:
                # Tick 0: the drop rule eats the request before the wire —
                # the replica never sees it, the caller burns the deadline.
                with pytest.raises(RequestTimeout):
                    await faulty.call(0, PING, timeout=500.0)
                assert inner.calls == 0
                # Tick 1: the duplicate rule sends the write twice over the
                # pipelined channel; the timestamped apply is idempotent.
                faulty.advance()
                write = Write("k", "v", (1, 0))
                reply = await faulty.call(0, write, timeout=2000.0)
                assert reply.payload.applied
                assert inner.calls == 2  # one logical call, two deliveries
                assert replicas[0].writes_applied == 1
                assert replicas[0].writes_ignored == 1
                assert faulty.injected["drop_request"] == 1
                assert faulty.injected["duplicate"] == 1
            finally:
                await faulty.close()
                for server in servers:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())
