"""The binary TCP byte streams of a fixed op sequence, pinned.

One ``Coordinator`` drives a seeded, sequential read/write mix over
``BinaryTcpTransport`` against replica servers on the test's own event
loop.  With one op in flight at a time, what each side writes to each
replica's connection depends only on the op sequence, so a tap on every
socket write sees the same two byte streams per replica on every run.
Their totals and one sha256 over all of them are pinned: a codec or
transport change that moves a byte, splits or merges a frame, or adds
or drops a message fails here.  perfbench's ``wire.bytes_per_op`` cannot
show this, since its op mix depends on wall-clock interleaving.
"""

import asyncio
import hashlib
import random
from asyncio.selector_events import _SelectorSocketTransport
from collections import defaultdict

import pytest

from repro.cli import build_system
from repro.service import BinaryTcpTransport, Coordinator, make_replicas, start_tcp_replicas

OPS = 300
KEYS = 12
TIMEOUT_MS = 2_000.0
LEASE_TTL = 25

# (spec, lease ttl) -> (client bytes sent, client bytes received,
# sha256 over every replica's two streams in replica order).
PINNED = {
    ("htriang:15", 0): (
        139_214,
        123_723,
        "2314e5366d6ff67cd10c729ce01b73f855354d5c7235f86e231d218dfbd1f39d",
    ),
    ("htriang:15", LEASE_TTL): (
        153_939,
        137_498,
        "2498ba7b5a8cc123031a6380dbd3b330ad49815df77f82daf477cb3500b13ce6",
    ),
    ("majority:5", 0): (
        70_576,
        69_960,
        "c12478a81f35085dae4182e369062f037f15058e6ba508d0c5e6618f24fa81c8",
    ),
    ("majority:5", LEASE_TTL): (
        74_668,
        73_788,
        "61c2892ea7b42c867500262ec9becddd96980b595807224990c1922ae5dc8261",
    ),
    ("htgrid:4x4", 0): (
        161_668,
        136_208,
        "ed884b5cb98aa90165a862762fcf0f907b3144613fa3c5c9174d34477ec32514",
    ),
    ("htgrid:4x4", LEASE_TTL): (
        180_733,
        154_043,
        "7a36321529a91a66e53ad7143b93493e9588869fb3e30a1ee1bdc9dc36d7a792",
    ),
}


def value(rng):
    """A value of one of the shapes the JSON blob carries."""
    shape = rng.randrange(4)
    if shape == 0:
        return rng.randrange(-(10**6), 10**6)
    if shape == 1:
        return "v" * rng.randrange(0, 600)
    if shape == 2:
        return {"n": rng.random(), "tags": ["a", None, True]}
    return None


async def drive(spec, lease_ttl, writes):
    """Run the op sequence; return the client's byte totals and the
    sha256 over each replica's stream to it and from it, in replica
    order."""
    system = build_system(spec)
    servers, addresses = await start_tcp_replicas(make_replicas(system))
    transport = BinaryTcpTransport(addresses)
    try:
        coordinator = Coordinator(
            system, transport, timeout=TIMEOUT_MS, seed=5, lease_ttl=lease_ttl
        )
        rng = random.Random(11)
        for _ in range(OPS):
            key = f"key-{rng.randrange(KEYS)}"
            if rng.random() < 0.6:
                await coordinator.read(key)
            else:
                await coordinator.write(key, value(rng))
        sent, received = transport.bytes_sent, transport.bytes_received
    finally:
        await transport.close()
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()
    # A server connection's local port is its replica's; a client
    # connection's peer port is.
    server_ports = {port for _, port in addresses.values()}
    streams = defaultdict(bytearray)
    for local, peer, data in writes:
        streams[("from", local) if local in server_ports else ("to", peer)] += data
    digest = hashlib.sha256()
    for rid in sorted(addresses):
        port = addresses[rid][1]
        digest.update(hashlib.sha256(streams[("to", port)]).digest())
        digest.update(hashlib.sha256(streams[("from", port)]).digest())
    return sent, received, digest.hexdigest()


@pytest.mark.parametrize("spec, lease_ttl", sorted(PINNED))
def test_a_fixed_op_sequence_writes_the_pinned_byte_streams(monkeypatch, spec, lease_ttl):
    writes = []
    write = _SelectorSocketTransport.write

    def tapped(self, data):
        local = self.get_extra_info("sockname")[1]
        peer = self.get_extra_info("peername")[1]
        writes.append((local, peer, bytes(data)))
        return write(self, data)

    monkeypatch.setattr(_SelectorSocketTransport, "write", tapped)
    result = asyncio.run(asyncio.wait_for(drive(spec, lease_ttl, writes), 60.0))
    assert result == PINNED[(spec, lease_ttl)]
