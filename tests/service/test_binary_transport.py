"""Tests for BinaryTcpTransport and the binary wire v2 TCP server.

These tests drive real localhost sockets — the binary client against
the replica server, raw sockets for the malformed-input edge cases
(a JSON line among them: the server speaks only binary v2), and a
FaultyTransport wrapped around the binary channel.
"""

import asyncio
import struct

import pytest

from repro.service import (
    BinaryTcpTransport,
    Replica,
    ReplicaUnavailable,
    RequestTimeout,
    start_tcp_replicas,
)
from repro.runtime.faults import DropFault, DuplicateFault, FaultSchedule, Window
from repro.service import wire
from repro.service.faults import FaultyTransport
from repro.service.ops import (
    KEYS,
    PING,
    Join,
    PingReply,
    Read,
    Repair,
    Write,
    WriteReply,
)


async def serve(n=3):
    replicas = [Replica(i) for i in range(n)]
    servers, addresses = await start_tcp_replicas(replicas)
    return replicas, servers, addresses


async def shutdown(transport, servers):
    await transport.close()
    for server in servers:
        server.close()
    for server in servers:
        await server.wait_closed()


class TestBinaryRoundTrip:
    def test_every_op_kind_round_trips(self):
        async def scenario():
            replicas, servers, addresses = await serve()
            transport = BinaryTcpTransport(addresses)
            shadow = Replica(0)  # same op sequence, no sockets
            ops = [
                PING,
                Write("k", {"deep": [1, None]}, (1, 9)),
                Read("k"),
                Repair("k", "patched", (2, 3)),
                Read("k"),
                KEYS,
                Join(4, 1000),
                Read("missing"),
                Write("", "v", (3, 0)),  # refused -> error reply
                Join(4, -1),  # refused -> error reply
            ]
            for request in ops:
                reply = await transport.call(0, request)
                assert reply.payload == shadow.handle(request)
            await shutdown(transport, servers)

        asyncio.run(scenario())

    def test_the_dict_ping_of_perfbench_is_a_ping(self):
        # perfbench/workload_tcp.py pings each replica with the dict
        # {"op": "ping"}: Transport.call maps exactly that dict to
        # Ping(), and no other dict reaches the wire.
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            transport = BinaryTcpTransport(addresses)
            reply = await transport.call(0, {"op": "ping"}, timeout=2_000.0)
            assert reply.payload == PingReply(0)
            with pytest.raises(wire.WireError):
                await transport.call(0, {"op": "read", "key": "k"}, timeout=2_000.0)
            await shutdown(transport, servers)

        asyncio.run(scenario())

    def test_two_binary_clients_share_one_port(self):
        async def scenario():
            replicas, servers, addresses = await serve()
            writer = BinaryTcpTransport(addresses)
            reader = BinaryTcpTransport(addresses)
            ack = await writer.call(1, Write("k", "v", (5, 2)))
            assert ack.payload.applied
            seen = await reader.call(1, Read("k"))
            assert seen.payload.value == "v"
            assert seen.payload.ts[0] == 5
            await writer.close()
            await shutdown(reader, servers)

        asyncio.run(scenario())

    def test_concurrent_calls_coalesce_into_frames(self):
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            transport = BinaryTcpTransport(addresses)
            await transport.call(0, PING)  # dial + HELLO
            replies = await asyncio.gather(
                *(transport.call(0, PING) for _ in range(32))
            )
            assert all(r.payload == PingReply(0) for r in replies)
            assert transport.calls == 33
            # The 32-op burst shares one flush window: far fewer frames
            # than ops, and the ratio counters say so.
            assert transport.frames_sent < transport.calls
            assert transport.ops_per_frame > 2.0
            assert transport.coalesced_ops == transport.calls
            assert transport.bytes_per_op > 0
            await shutdown(transport, servers)

        asyncio.run(scenario())

    def test_out_of_order_completion_reaches_the_right_futures(self):
        async def scenario():
            replicas, servers, addresses = await serve()
            transport = BinaryTcpTransport(addresses)
            for i in range(3):
                await transport.call(i, Write("who", f"r{i}", (1, i)))
            replies = await asyncio.gather(
                *(transport.call(i, Read("who")) for i in range(3))
            )
            assert [r.payload.replica for r in replies] == [0, 1, 2]
            assert [r.payload.value for r in replies] == ["r0", "r1", "r2"]
            await shutdown(transport, servers)

        asyncio.run(scenario())


class TestServerEdgeCases:
    def test_partial_frames_across_many_writes_still_answer(self):
        # A request frame dribbled one byte per write must be answered
        # once the last byte lands.
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            host, port = addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            payload = wire.hello_frame() + wire.pack_frame(
                [wire.encode_request(7, PING)]
            )
            for i in range(len(payload)):
                writer.write(payload[i : i + 1])
                await writer.drain()
            # HELLO reply first, then the pinged response.
            decoder = wire.FrameDecoder()
            frames = []
            while len(frames) < 2:
                frames.extend(decoder.feed(await reader.read(256)))
            version, flags, count, body = frames[1]
            rpc_id, response, _ = wire.decode_response(body, 0)
            assert rpc_id == 7
            assert response == PingReply(0)
            writer.close()
            await writer.wait_closed()
            for server in servers:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_oversized_frame_gets_a_clean_hangup(self):
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            host, port = addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                wire.HEADER.pack(
                    wire.MAGIC, wire.VERSION, 0, wire.MAX_FRAME_BYTES + 1, 1
                )
            )
            await writer.drain()
            # The server must hang up — not buffer a gigabyte, not hang.
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()
            # ...and keep serving other connections afterwards.
            transport = BinaryTcpTransport(addresses)
            assert (await transport.call(0, PING)).payload == PingReply(0)
            await shutdown(transport, servers)

        asyncio.run(scenario())

    def test_json_line_gets_a_clean_hangup_and_binary_still_served(self):
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            host, port = addresses[0]
            # A JSON-lines peer: its first bytes are not a frame header,
            # so the server hangs up instead of answering or hanging.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "id": 0}\n')
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()
            # ...and a binary client on the same port is served afterwards.
            transport = BinaryTcpTransport(addresses)
            assert (await transport.call(0, PING)).payload == PingReply(0)
            await shutdown(transport, servers)

        asyncio.run(scenario())

    def test_kind_zero_request_gets_a_clean_hangup(self):
        # Kind 0 is the error reply's frame, never a request: a request
        # message of kind 0 is a codec violation, so the server hangs up
        # through its WireError path, and no protocol callback error
        # reaches the event loop.
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            replicas, servers, addresses = await serve(n=1)
            host, port = addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            blob = b"[1,2]"
            message = struct.pack("!IBI", 7, 0, len(blob)) + blob
            writer.write(wire.hello_frame() + wire.pack_frame([message]))
            await writer.drain()
            # The server hangs up (EOF) without answering the request.
            received = await asyncio.wait_for(reader.read(), timeout=5.0)
            frames = wire.FrameDecoder().feed(received)
            assert all(flags & wire.FLAG_HELLO for _, flags, _, _ in frames)
            writer.close()
            await writer.wait_closed()
            transport = BinaryTcpTransport(addresses)
            assert (await transport.call(0, PING)).payload == PingReply(0)
            await shutdown(transport, servers)
            assert errors == []

        asyncio.run(scenario())

    def test_a_frame_with_a_malformed_last_message_applies_none_of_it(self):
        # The server decodes a whole frame before it applies any of it:
        # valid writes ahead of a malformed message are not applied,
        # the server hangs up, and no error reaches the event loop.
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            replicas, servers, addresses = await serve(n=1)
            replica = replicas[0]
            replica.apply_write("old", "v1", 1, 0)
            before = dict(replica.store)
            host, port = addresses[0]
            reader, writer = await asyncio.open_connection(host, port)
            good = [
                wire.encode_request(1, Write("old", "v2", (2, 0))),
                wire.encode_request(2, Write("new", "v1", (1, 0))),
            ]
            # A write whose value field claims more bytes than follow.
            truncated = wire.encode_request(3, Write("other", "v1", (1, 0)))[:-1]
            writer.write(wire.hello_frame() + wire.pack_frame(good + [truncated]))
            await writer.drain()
            received = await asyncio.wait_for(reader.read(), timeout=5.0)
            frames = wire.FrameDecoder().feed(received)
            assert all(flags & wire.FLAG_HELLO for _, flags, _, _ in frames)
            writer.close()
            await writer.wait_closed()
            for server in servers:
                server.close()
                await server.wait_closed()
            return replica, before, errors

        replica, before, errors = asyncio.run(scenario())
        assert replica.store == before
        assert replica.writes_applied == 1  # the set-up write only
        assert errors == []

    def test_binary_client_still_served_after_binary_garbage_peer(self):
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            host, port = addresses[0]
            # A binary-looking connection (the magic's high byte) that
            # degenerates into garbage.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x51" + b"\xde\xad\xbe\xef" * 8)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()
            transport = BinaryTcpTransport(addresses)
            assert (await transport.call(0, PING)).payload == PingReply(0)
            await shutdown(transport, servers)

        asyncio.run(scenario())

class TestClientEdgeCases:
    def test_garbage_from_server_reconnects_not_hangs(self):
        # A server that answers the HELLO with garbage: the client must
        # fail the in-flight call promptly, tear the channel down, and
        # dial fresh on the next call — not hang on a poisoned channel.
        async def scenario():
            connections = []

            async def fake_server(reader, writer):
                connections.append(writer)
                if len(connections) == 1:
                    writer.write(b"not a frame at all")
                    await writer.drain()
                    writer.close()
                    return
                # Behave properly from the second connection on.  The
                # client pipelines its first request behind the HELLO,
                # so parse frames instead of skipping a byte count.
                writer.write(wire.hello_frame())
                decoder = wire.FrameDecoder()
                while True:
                    data = await reader.read(4096)
                    if not data:
                        break
                    for _, flags, count, body in decoder.feed(data):
                        if flags & wire.FLAG_HELLO:
                            continue
                        offset = 0
                        out = []
                        for _ in range(count):
                            rpc_id, request, offset = wire.decode_request(
                                body, offset
                            )
                            out.append(
                                wire.encode_response(rpc_id, PingReply(0))
                            )
                        for frame in wire.pack_frames(out):
                            writer.write(frame)
                writer.close()

            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            with pytest.raises((ReplicaUnavailable, RequestTimeout)):
                await asyncio.wait_for(
                    transport.call(0, PING, timeout=2_000.0), timeout=5.0
                )
            reply = await asyncio.wait_for(
                transport.call(0, PING, timeout=5_000.0), timeout=5.0
            )
            assert reply.payload == PingReply(0)
            assert transport.reconnects >= 1
            assert len(connections) >= 2
            await transport.close()
            # The second connection's handler may still be waiting on
            # ``reader.read``: close the server side of every connection
            # before the loop goes, or its stream leaks.
            for writer in connections:
                writer.close()
            await asyncio.gather(
                *(writer.wait_closed() for writer in connections),
                return_exceptions=True,
            )
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_incompatible_version_fails_cleanly(self):
        # A server that negotiates version 0 (no overlap) and closes:
        # calls must raise, not hang.
        async def scenario():
            async def ancient_server(reader, writer):
                await reader.read(64)
                writer.write(wire.hello_frame(version=0))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(ancient_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            with pytest.raises((ReplicaUnavailable, RequestTimeout)):
                await asyncio.wait_for(
                    transport.call(0, PING, timeout=2_000.0), timeout=5.0
                )
            await transport.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_unencodable_request_on_a_cold_channel_fails_alone(self):
        # A set is not JSON.  On a channel still dialing, the request
        # fails at once with its encode error; the ping queued behind it
        # on the same channel is still sent and answered.
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            replicas, servers, addresses = await serve(n=1)
            transport = BinaryTcpTransport(addresses)
            bad = Write("k", {1, 2}, (1, 0))
            outcomes = await asyncio.gather(
                transport.call(0, bad, timeout=2_000.0),
                transport.call(0, PING, timeout=2_000.0),
                return_exceptions=True,
            )
            assert isinstance(outcomes[0], wire.WireError)
            assert outcomes[1].payload == PingReply(0)
            assert replicas[0].writes_applied == 0
            await shutdown(transport, servers)
            assert errors == []

        asyncio.run(scenario())

    def test_oversized_request_on_a_live_channel_fails_alone(self):
        # A 1 MiB value cannot fit one frame.  It fails at once with
        # WireError; the small write queued in the same iteration still
        # rides the flush and is answered.
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            replicas, servers, addresses = await serve(n=1)
            transport = BinaryTcpTransport(addresses)
            await transport.call(0, PING)  # dial + HELLO
            big = Write("big", "x" * (1 << 20), (1, 0))
            small = Write("small", "v", (1, 0))
            outcomes = await asyncio.gather(
                transport.call(0, big, timeout=2_000.0),
                transport.call(0, small, timeout=2_000.0),
                return_exceptions=True,
            )
            assert isinstance(outcomes[0], wire.WireError)
            assert outcomes[1].payload.applied
            assert replicas[0].writes_applied == 1
            await shutdown(transport, servers)
            assert errors == []

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))

    def test_call_cancelled_while_dialing_is_never_sent(self):
        # A caller that gave up before the channel came up: its request
        # stays off the replica, the call queued behind it goes out.
        async def scenario():
            replicas, servers, addresses = await serve(n=1)
            transport = BinaryTcpTransport(addresses)
            write = asyncio.ensure_future(transport.call(0, Write("k", "v", (1, 0))))
            await asyncio.sleep(0)  # the write is in the dial backlog
            write.cancel()
            reply = await transport.call(0, PING)
            assert reply.payload == PingReply(0)
            assert write.cancelled()
            assert replicas[0].writes_applied == 0
            await shutdown(transport, servers)

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))

    def test_replies_before_garbage_settle_before_the_teardown(self):
        # One reply frame carries a good reply, then a malformed one:
        # the call answered by the good reply succeeds, the other one
        # fails with the channel.
        async def scenario():
            async def half_broken_server(reader, writer):
                decoder = wire.FrameDecoder()
                writer.write(wire.hello_frame())
                rpc_ids = []
                while len(rpc_ids) < 2:
                    data = await reader.read(4096)
                    if not data:
                        return
                    for _, flags, count, body in decoder.feed(data):
                        if flags & wire.FLAG_HELLO:
                            continue
                        offset = 0
                        for _ in range(count):
                            rpc_id, _, offset = wire.decode_request(body, offset)
                            rpc_ids.append(rpc_id)
                reply = wire.encode_response(rpc_ids[0], PingReply(0))
                writer.write(wire.pack_frame([reply, b"\xff" * 16]))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(half_broken_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            first, second = await asyncio.gather(
                transport.call(0, PING, timeout=2_000.0),
                transport.call(0, PING, timeout=2_000.0),
                return_exceptions=True,
            )
            assert first.payload == PingReply(0)
            assert isinstance(second, ReplicaUnavailable)
            await transport.close()
            server.close()
            await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))

    def test_unreachable_replica_raises_promptly(self):
        async def scenario():
            transport = BinaryTcpTransport({0: ("127.0.0.1", 1)})
            with pytest.raises(ReplicaUnavailable):
                await transport.call(0, PING)
            await transport.close()

        asyncio.run(scenario())


class TestFaultsOverBinary:
    def test_drop_and_duplicate_apply_per_logical_op(self):
        # FaultyTransport wraps the binary channel like any transport:
        # drops surface as timeouts for the caller,
        # duplicates re-send the logical op (idempotent at the replica),
        # and the fault accounting sees every logical op despite the
        # frame coalescing underneath.
        async def scenario():
            replicas, servers, addresses = await serve(n=2)
            inner = BinaryTcpTransport(addresses)
            schedule = FaultSchedule(
                [
                    DropFault(frozenset({0}), Window(0), probability=1.0),
                    DuplicateFault(frozenset({1}), Window(0), probability=1.0),
                ]
            )
            faulty = FaultyTransport(inner, schedule, seed=3)
            with pytest.raises(RequestTimeout):
                await faulty.call(0, PING, timeout=40.0)
            ack = await faulty.call(1, Write("k", "v", (1, 0)))
            assert ack.payload == WriteReply(1, True, (1, 0))
            assert faulty.injected["duplicate"] == 1
            assert faulty.injected["drop_request"] + faulty.injected[
                "drop_response"
            ] == 1
            # The duplicated write hit the socket twice; the dropped
            # ping reached it only if the *response* was what vanished.
            assert inner.calls == 2 + faulty.injected["drop_response"]
            # ...but applied once: the second copy lost the timestamp tie.
            seen = await inner.call(1, Read("k"))
            assert seen.payload.value == "v"
            assert seen.payload.ts[0] == 1
            await faulty.close()
            for server in servers:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
