"""Wire scaling with server cores: binary TCP against 0, 1 and 2 worker processes.

A transport-level closed loop, no coordinator: each of 8 clients fans
one read out to every member of a minimal quorum (rotating through the
first 8 quorums), awaits the whole quorum and repeats.  ``workers=0``
serves the replicas on the benchmark's own event loop; ``workers>=1``
hosts them in that many OS processes
(:class:`~repro.service.cluster.ReplicaCluster`).  End-to-end ops/s
would blend strategy sampling and quorum bookkeeping into the figure;
this loop isolates the wire.

Gate: workers=2 must beat workers=1 on at least one family, else the
script exits 1.  Wall-clock on a shared host, so treat a failure as a
hint (a core-starved host?), not proof — CI runs it as advisory.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_wire_workers.py
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, List, Tuple

from repro.cli import build_system
from repro.service import (
    BinaryTcpTransport,
    ReplicaCluster,
    make_replicas,
    start_tcp_replicas,
    transport_summary,
)

SYSTEMS = ("majority:5", "htriang:15")
WORKERS = (0, 1, 2)
OPS = 4000
CLIENTS = 8


def wire_cell(spec: str, workers: int) -> Dict[str, Any]:
    """One cell: ``OPS`` closed-loop quorum reads from ``CLIENTS`` clients."""
    system = build_system(spec)
    quorums = [
        tuple(sorted(q)) for q in itertools.islice(system.minimal_quorums(), 8)
    ]
    cluster = None
    if workers:
        cluster = ReplicaCluster(list(system.universe.ids), workers=workers)
        cluster.start()

    async def run() -> Tuple[int, float, Dict[str, Any]]:
        servers: List[asyncio.AbstractServer] = []
        if cluster is not None:
            addresses = cluster.addresses
        else:
            servers, addresses = await start_tcp_replicas(make_replicas(system))
        transport = BinaryTcpTransport(addresses)
        call = transport.call
        request = {"op": "read", "key": "k"}
        done = 0

        async def client(cid: int) -> None:
            nonlocal done
            i = 0
            while done < OPS:
                done += 1
                quorum = quorums[(cid + i) % len(quorums)]
                await asyncio.gather(*[call(rid, request) for rid in quorum])
                i += 1

        started = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(CLIENTS)))
        elapsed = time.perf_counter() - started
        stats = transport_summary(transport)
        await transport.close()
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()
        return done, elapsed, stats

    try:
        done, elapsed, stats = asyncio.run(run())
    finally:
        if cluster is not None:
            cluster.close()
    return {
        "ops_per_second": done / elapsed,
        "rpcs_per_second": stats["calls"] / elapsed,
        "ops_per_frame": stats["ops_per_frame"],
    }


def main() -> int:
    winners = []
    for spec in SYSTEMS:
        cells = {}
        for workers in WORKERS:
            cell = cells[workers] = wire_cell(spec, workers)
            print(
                f"{spec:>12} workers={workers}"
                f" {cell['ops_per_second']:>9.1f} ops/s"
                f" {cell['rpcs_per_second']:>9.1f} rpc/s"
                f"  {cell['ops_per_frame']:.2f} ops/frame"
            )
        ratio = cells[2]["ops_per_second"] / cells[1]["ops_per_second"]
        print(f"{spec:>12} workers=2 {ratio:.2f}x workers=1")
        if ratio > 1.0:
            winners.append(spec)
    if not winners:
        print("GATE FAILURE: workers=2 beat workers=1 on no family")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
