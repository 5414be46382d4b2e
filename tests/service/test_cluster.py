"""Tests for repro.service.cluster: multi-process replica workers.

A :class:`ReplicaCluster` hosts the replica set across OS processes,
each serving binary wire v2 TCP servers.  These tests cover the
address-map handshake, round-robin placement, serving over separate
client connections, clean (idempotent) shutdown, and crash detection feeding
``ReplicaUnavailable``.
"""

import asyncio

import pytest

from repro.core.errors import ServiceError
from repro.service import (
    BinaryTcpTransport,
    ReplicaCluster,
    ReplicaUnavailable,
)
from repro.service.ops import PING, PingReply, Read, Write


class TestLifecycle:
    def test_start_reports_every_replica_and_close_is_idempotent(self):
        cluster = ReplicaCluster(range(5), workers=2)
        try:
            addresses = cluster.start()
            assert sorted(addresses) == [0, 1, 2, 3, 4]
            assert cluster.start() is addresses  # idempotent start
            workers = {cluster.worker_for(i).pid for i in range(5)}
            assert len(workers) == 2  # round-robin actually spread out
        finally:
            cluster.close()
        assert cluster.poll_crashed() == []
        cluster.close()  # second close is a no-op

    def test_workers_capped_at_replica_count(self):
        cluster = ReplicaCluster([0, 1], workers=8)
        assert cluster.workers == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServiceError):
            ReplicaCluster([])
        with pytest.raises(ServiceError):
            ReplicaCluster([0], workers=0)

    def test_base_port_layout_survives_worker_partitioning(self):
        # Regression: `serve --workers N --base-port P` must keep the
        # base_port + id port layout external `kvbench --tcp` clients
        # dial against; early versions let every worker bind ephemeral
        # ports, making the cluster unreachable from outside.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
        probe.close()
        with ReplicaCluster(range(3), workers=2, base_port=base) as cluster:
            assert cluster.addresses == {
                i: ("127.0.0.1", base + i) for i in range(3)
            }

    def test_context_manager_starts_and_stops(self):
        with ReplicaCluster(range(3), workers=3) as cluster:
            assert len(cluster.addresses) == 3
            processes = [cluster.worker_for(i) for i in range(3)]
            assert all(p.is_alive() for p in processes)
        assert all(not p.is_alive() for p in processes)


class TestServing:
    def test_two_clients_share_worker_replica_state(self):
        with ReplicaCluster(range(4), workers=2) as cluster:

            async def scenario():
                writer = BinaryTcpTransport(cluster.addresses)
                reader = BinaryTcpTransport(cluster.addresses)
                for replica_id in range(4):
                    ack = await writer.call(
                        replica_id,
                        Write("k", replica_id, (1, 0)),
                    )
                    assert ack.payload.applied
                # Same replica, other connection: one store per replica.
                for replica_id in range(4):
                    seen = await reader.call(replica_id, Read("k"))
                    assert seen.payload.value == replica_id
                    assert seen.payload.replica == replica_id
                await writer.close()
                await reader.close()

            asyncio.run(scenario())


class TestCrashDetection:
    def test_dead_worker_reported_and_calls_raise_unavailable(self):
        with ReplicaCluster(range(4), workers=2) as cluster:
            victim = cluster.worker_for(0)
            survivor_ids = [
                i for i in range(4) if cluster.worker_for(i).pid != victim.pid
            ]
            victim.terminate()
            victim.join(timeout=5.0)

            crashed = cluster.poll_crashed()
            assert 0 in crashed
            assert all(i not in crashed for i in survivor_ids)

            async def scenario():
                transport = BinaryTcpTransport(cluster.addresses)
                with pytest.raises(ReplicaUnavailable):
                    await transport.call(0, PING, timeout=2_000.0)
                # Replicas on the surviving worker keep answering.
                for replica_id in survivor_ids:
                    reply = await transport.call(replica_id, PING)
                    assert reply.payload == PingReply(replica_id)
                await transport.close()

            asyncio.run(scenario())
