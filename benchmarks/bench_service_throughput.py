"""Serving-layer perf-regression harness.

Drives ``run_kv_benchmark`` across the paper's system families
(majority, hierarchical grid, hierarchical T-grid, hierarchical
triangle) and across transports:

* ``inprocess``          — deterministic virtual-latency transport;
* ``inprocess_faults``   — same, with iid crash injection;
* ``inprocess_hedged``   — same, with one hedge spare per quorum phase;
* ``tcp_binary``         — localhost TCP over the struct-packed,
  op-coalescing binary wire protocol v2;
* ``tcp_hedged``         — the same TCP client plus one hedge spare.

plus two scaling studies:

* the **wire matrix** — server core count (``workers`` = 0 in-loop,
  1, 2 OS processes) under a transport-level closed-loop quorum-read
  fan-out at 8 clients over the binary client.  This isolates the wire
  from the coordinator: end-to-end ops/s blends strategy sampling,
  quorum bookkeeping and event-loop scheduling with the protocol cost.
  One gate rides on it: workers=2 must beat workers=1 on at least one
  family (recorded, and gated only outside ``--quick`` — CI runners'
  core counts are not trustworthy);
* ``shard_scaling`` runs the same seeded zipf workload through
  ``repro.sharding`` at 1 and 8 shards under virtual time with
  finite-capacity replicas, and records the speedup (gated at >= 2x —
  the whole point of partitioning the namespace);
* the **read/write capacity matrix** — read fraction (0.5, 0.9, 0.99)
  × family (grid, h-grid, h-T-grid, h-triangle) under virtual time
  with finite-capacity FIFO replicas, each cell served once by the
  unified write-legal LP optimum and once by the read/write capacity
  LP's split strategy pair.  Two hard gates (deterministic — virtual
  time, so they hold in ``--quick`` too): the split path at read
  fraction >= 0.9 must be >= 1.3x the unified baseline on at least two
  families, and every observed split throughput must land within 25%
  of its LP-predicted capacity.  (The hierarchical triangle is
  honestly ~1.0x: it is self-dual, so its read quorums are no smaller
  than its write quorums — recorded, not gated.)

Writes ``BENCH_service.json`` (ops/s, latency percentiles, bytes on
the wire, ops-per-frame coalescing ratios, hedge statistics, the wire
matrix, the shard-scaling block and the capacity matrix).  Exits non-zero if any fault-free scenario dropped an
operation, or if a wire-matrix, shard-scaling or capacity-matrix gate
fails — correctness and scaling are gated; absolute timings are only
recorded.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py \
        [--out BENCH_service.json] [--ops 1200] [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.cli import build_system
from repro.service import (
    BenchmarkReport,
    BinaryTcpTransport,
    ReplicaCluster,
    make_replicas,
    run_kv_benchmark,
    start_tcp_replicas,
    transport_summary,
)
from repro.sharding import compare_shard_scaling

SEED = 42
CLIENTS = 8

SYSTEMS = ("majority:5", "hgrid:4x4", "htgrid:4x4", "htriang:15")

#: scenario name -> run_kv_benchmark keyword overrides
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "inprocess": {},
    "inprocess_faults": {"crash_rate": 0.1},
    "inprocess_hedged": {"hedge_spares": 1},
    "tcp_binary": {"tcp_local": True},
    # Dean-style deferred hedging: one spare, fired only when a quorum
    # phase is still incomplete well past the fault-free p99 (~1.5ms) —
    # on a healthy localhost run the fast path issues ~no spares, so
    # hedging must cost ~nothing; hedge *wins* show up under faults.
    "tcp_hedged": {"tcp_local": True, "hedge_spares": 1, "hedge_delay_ms": 20.0},
}

#: scenarios where every operation must succeed (no faults injected)
FAULT_FREE = tuple(name for name in SCENARIOS if "faults" not in name)

#: wire-matrix axes: two system families (to bound runtime) x server
#: core count.
WIRE_SYSTEMS = ("majority:5", "htriang:15")
WIRE_WORKERS = (0, 1, 2)

#: read/write capacity-matrix axes and gates
RW_SYSTEMS = ("grid:4x4", "hgrid:4x4", "htgrid:4x4", "htriang:15")
RW_FRACTIONS = (0.5, 0.9, 0.99)
RW_SPEEDUP_FLOOR = 1.3  # split vs unified at read fraction >= 0.9
RW_SPEEDUP_FAMILIES = 2  # ... on at least this many families
RW_TOLERANCE = 0.25  # |observed/predicted - 1| ceiling for split runs


def summarize(report: BenchmarkReport) -> Dict[str, Any]:
    """The regression-relevant slice of one benchmark run."""
    snapshot = report.to_dict()
    return {
        "ops_per_second": round(report.ops_per_second, 1),
        "elapsed_seconds": round(report.elapsed_seconds, 4),
        "ops": {
            "attempted": snapshot["ops"]["attempted"],
            "succeeded": snapshot["ops"]["succeeded"],
            "failed": snapshot["ops"]["failed"],
        },
        "latency_ms": {
            "p50": round(snapshot["latency_ms"]["p50"], 3),
            "p95": round(snapshot["latency_ms"]["p95"], 3),
            "p99": round(snapshot["latency_ms"]["p99"], 3),
        },
        "hedging": snapshot["hedging"],
        "transport": report.transport_stats,
    }


# ----------------------------------------------------------------------
# Wire matrix: transport-level quorum fan-out, no coordinator
# ----------------------------------------------------------------------
def _wire_cell(spec: str, workers: int, ops: int, clients: int) -> Dict[str, Any]:
    """One matrix cell: closed-loop quorum-shaped reads, 8 clients.

    Every logical op fans one read out to each member of a minimal
    quorum (rotating through the first 8 quorums), awaits the full
    quorum, repeats.  ``workers=0`` serves replicas on the benchmark's
    own loop; ``workers>=1`` hosts them in that many OS processes.
    """
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
        submit = transport.submit
        request = {"op": "read", "key": "k"}
        done = 0

        async def client(cid: int) -> None:
            nonlocal done
            i = 0
            while done < ops:
                done += 1
                quorum = quorums[(cid + i) % len(quorums)]
                await asyncio.gather(*[submit(rid, request) for rid in quorum])
                i += 1

        started = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(clients)))
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
        "ops_per_second": round(done / elapsed, 1),
        "rpcs_per_second": round(stats["calls"] / elapsed, 1),
        "elapsed_seconds": round(elapsed, 4),
        "ops_per_frame": round(stats["ops_per_frame"], 2),
        "bytes_per_op": round(stats["bytes_per_op"], 2),
    }


def run_wire_matrix(
    systems, ops: int, clients: int
) -> Tuple[Dict[str, Any], List[str]]:
    """The core-count sweep plus its worker-scaling gate."""
    matrix: Dict[str, Any] = {
        "workload": "closed-loop quorum reads",
        "ops": ops,
        "clients": clients,
        "systems": {},
    }
    notes: List[str] = []
    for spec in systems:
        per_worker: Dict[str, Any] = {}
        for workers in WIRE_WORKERS:
            cell = _wire_cell(spec, workers, ops, clients)
            per_worker[str(workers)] = cell
            print(
                f"{spec:>12} wire binary workers={workers}"
                f" {cell['ops_per_second']:>9.1f} ops/s"
                f" {cell['rpcs_per_second']:>9.1f} rpc/s"
                f"  {cell['ops_per_frame']:.2f} ops/frame"
            )
        w1 = per_worker["1"]["ops_per_second"]
        w2 = per_worker["2"]["ops_per_second"]
        per_worker["workers2_vs_1"] = round(w2 / w1, 2)
        print(f"{spec:>12} wire: workers=2 {w2 / w1:.2f}x workers=1")
        matrix["systems"][spec] = per_worker

    matrix["gates"] = {
        "workers2_beats_workers1": any(
            per["workers2_vs_1"] > 1.0 for per in matrix["systems"].values()
        ),
    }
    if not matrix["gates"]["workers2_beats_workers1"]:
        notes.append(
            "wire_matrix: binary workers=2 did not beat workers=1 on any"
            " family (core-starved host?)"
        )
    return matrix, notes


# ----------------------------------------------------------------------
# Read/write capacity matrix: split strategy pair vs unified optimum
# ----------------------------------------------------------------------
def run_capacity_matrix(
    systems, fractions, seed: int, ops: int
) -> Tuple[Dict[str, Any], List[str], List[str]]:
    """Virtual-time saturation throughput, split vs unified, plus gates.

    Every cell is deterministic per seed (virtual clock, seeded
    latencies), so both gates are hard even on shared CI runners.
    """
    from repro.service import run_capacity_benchmark

    matrix: Dict[str, Any] = {
        "workload": "closed-loop zipf KV ops, finite-capacity FIFO replicas",
        "ops": ops,
        "seed": seed,
        "fractions": list(fractions),
        "speedup_floor": RW_SPEEDUP_FLOOR,
        "tolerance": RW_TOLERANCE,
        "systems": {},
    }
    hard_failures: List[str] = []
    notes: List[str] = []
    families_passing = []
    for spec in systems:
        system = build_system(spec)
        per_spec: Dict[str, Any] = {}
        best_high_fraction_speedup = 0.0
        for fraction in fractions:
            unified = run_capacity_benchmark(
                system, read_write=False, read_fraction=fraction,
                seed=seed, ops=ops,
            )
            split = run_capacity_benchmark(
                system, read_write=True, read_fraction=fraction,
                seed=seed, ops=ops,
            )
            speedup = (
                split["observed_ops_per_sec"] / unified["observed_ops_per_sec"]
                if unified["observed_ops_per_sec"] > 0
                else 0.0
            )
            cell = {
                "unified": {
                    "observed_ops_per_sec": round(
                        unified["observed_ops_per_sec"], 1
                    ),
                    "predicted_ops_per_sec": round(
                        unified["predicted_ops_per_sec"], 1
                    ),
                    "observed_over_predicted": round(
                        unified["observed_over_predicted"], 3
                    ),
                    "failed": unified["ops_failed"],
                },
                "read_write": {
                    "observed_ops_per_sec": round(
                        split["observed_ops_per_sec"], 1
                    ),
                    "predicted_ops_per_sec": round(
                        split["predicted_ops_per_sec"], 1
                    ),
                    "observed_over_predicted": round(
                        split["observed_over_predicted"], 3
                    ),
                    "lp_load": round(split["lp_load"], 4),
                    "failed": split["ops_failed"],
                },
                "split_vs_unified": round(speedup, 2),
            }
            per_spec[f"{fraction:g}"] = cell
            print(
                f"{spec:>12} rw fraction={fraction:<5g}"
                f" split {split['observed_ops_per_sec']:>7.1f} ops/vs"
                f" (pred {split['predicted_ops_per_sec']:.1f})"
                f"  unified {unified['observed_ops_per_sec']:>7.1f}"
                f"  speedup {speedup:.2f}x"
            )
            ratio = split["observed_over_predicted"]
            if abs(ratio - 1.0) > RW_TOLERANCE:
                hard_failures.append(
                    f"capacity_matrix {spec}@{fraction:g}: observed/predicted"
                    f" {ratio:.3f} outside 1±{RW_TOLERANCE:g}"
                )
            if split["ops_failed"] or unified["ops_failed"]:
                hard_failures.append(
                    f"capacity_matrix {spec}@{fraction:g}: dropped ops"
                    f" (split {split['ops_failed']},"
                    f" unified {unified['ops_failed']})"
                )
            if fraction >= 0.9:
                best_high_fraction_speedup = max(
                    best_high_fraction_speedup, speedup
                )
        per_spec["best_speedup_at_0.9plus"] = round(
            best_high_fraction_speedup, 2
        )
        if best_high_fraction_speedup >= RW_SPEEDUP_FLOOR:
            families_passing.append(spec)
        matrix["systems"][spec] = per_spec
    matrix["gates"] = {
        "families_above_floor": families_passing,
        "speedup_gate": len(families_passing) >= RW_SPEEDUP_FAMILIES,
    }
    if len(families_passing) < RW_SPEEDUP_FAMILIES:
        hard_failures.append(
            f"capacity_matrix: only {families_passing} reached"
            f" {RW_SPEEDUP_FLOOR:g}x over unified at read fraction >= 0.9"
            f" (need {RW_SPEEDUP_FAMILIES} families)"
        )
    else:
        print(
            f"{'':>12} rw gate: {len(families_passing)} families >="
            f" {RW_SPEEDUP_FLOOR:g}x at 0.9+ ({', '.join(families_passing)})"
        )
    return matrix, hard_failures, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--ops", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller run for CI smoke (fewer ops, majority+htriang only;"
        " the worker-scaling gate becomes advisory)",
    )
    args = parser.parse_args()

    ops = 300 if args.quick else args.ops
    systems = ("majority:5", "htriang:15") if args.quick else SYSTEMS

    results: Dict[str, Any] = {
        "seed": args.seed,
        "ops": ops,
        "clients": CLIENTS,
        "systems": {},
    }
    failures = []
    warnings = []
    for spec in systems:
        system = build_system(spec)
        per_system: Dict[str, Any] = {}
        for scenario, overrides in SCENARIOS.items():
            report = run_kv_benchmark(
                system,
                seed=args.seed,
                ops=ops,
                clients=CLIENTS,
                **overrides,
            )
            summary = summarize(report)
            per_system[scenario] = summary
            failed = summary["ops"]["failed"]
            if scenario in FAULT_FREE and failed:
                failures.append(f"{spec}/{scenario}: {failed} failed ops")
            print(
                f"{spec:>12} {scenario:<18}"
                f" {summary['ops_per_second']:>9.1f} ops/s"
                f"  p99={summary['latency_ms']['p99']:.2f}ms"
                f"  failed={failed}"
            )
        results["systems"][spec] = per_system

    # Core-count matrix at the transport level.
    wire_ops = 600 if args.quick else 4000
    wire_matrix, wire_notes = run_wire_matrix(
        ("majority:5",) if args.quick else WIRE_SYSTEMS, wire_ops, CLIENTS
    )
    results["wire_matrix"] = wire_matrix
    # CI smoke (--quick) records the matrix but keeps only the fault
    # gates — absolute ratios on shared runners are advisory.
    warnings.extend(wire_notes)
    if not args.quick and not wire_matrix["gates"]["workers2_beats_workers1"]:
        failures.append("wire_matrix: binary workers=2 never beat workers=1")

    # Shard scaling: same seeded zipf workload, 1 vs 8 shards, virtual
    # time, finite-capacity replicas.  Deterministic per seed.
    scaling = compare_shard_scaling(
        build_system,
        spec="majority:5",
        shard_counts=(1, 8),
        seed=args.seed,
        ops=300 if args.quick else 2000,
        keys=512,
        skew=0.9,
        clients=16,
    )
    runs = scaling["runs"]
    results["shard_scaling"] = {
        "spec": scaling["spec"],
        "seed": scaling["seed"],
        "speedup_8x_vs_1x": round(scaling["speedup"], 2),
        "runs": {
            count: {
                "succeeded": run["succeeded"],
                "failed": run["failed"],
                "virtual_ms": round(run["virtual_ms"], 1),
                "ops_per_virtual_second": round(run["ops_per_virtual_second"], 1),
                "key_skew": run["key_skew"],
            }
            for count, run in runs.items()
        },
    }
    for count in sorted(runs, key=int):
        run = runs[count]
        print(
            f"{'majority:5':>12} shards={count:<13}"
            f" {run['ops_per_virtual_second']:>9.1f} ops/vs"
            f"  virtual={run['virtual_ms']:.1f}ms"
            f"  failed={run['failed']}"
        )
        if run["failed"]:
            failures.append(f"shard_scaling/{count}: {run['failed']} failed ops")
    print(
        f"{'majority:5':>12} shard scaling: 8 shards"
        f" {scaling['speedup']:.2f}x over 1 shard"
    )
    if scaling["speedup"] < 2.0:
        failures.append(
            f"shard_scaling: speedup {scaling['speedup']:.2f}x < 2x floor"
        )

    # Read/write capacity matrix: deterministic virtual-time gates, so
    # they stay hard in --quick (only the op count shrinks).
    capacity_matrix, capacity_failures, capacity_notes = run_capacity_matrix(
        RW_SYSTEMS, RW_FRACTIONS, args.seed, 400 if args.quick else 600
    )
    results["capacity_matrix"] = capacity_matrix
    failures.extend(capacity_failures)
    warnings.extend(capacity_notes)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    for line in warnings:
        print(f"WARNING: {line}", file=sys.stderr)
    if failures:
        print("GATE FAILURES:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
