"""Sharded throughput benchmark under virtual time.

Measures what sharding buys: with a positive per-replica service time
each replica is a finite-capacity FIFO server
(:class:`~repro.service.simtransport.SimTransport`), so a single shard
saturates — queueing delay, then timeouts — while a sharded map spreads
the same workload over more replicas and finishes sooner in *virtual*
time.  Throughput is therefore reported in operations per virtual
second, a deterministic quantity (identical per seed) that honestly
reflects service capacity, unlike wall-clock throughput of an
in-process simulation.

:func:`compare_shard_scaling` runs the same seeded zipf workload at two
shard counts and reports the speedup — the number recorded in
``BENCH_service.json`` and printed by ``quorumtool kvbench --shards``.
The op plan and the closed client loop are the shared workload driver's
(:mod:`repro.runtime.driver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from ..runtime.clock import VirtualClock, run_virtual
from ..runtime.driver import drive, key_weights, op_plan
from ..runtime.metrics import KeyCounter
from ..runtime.rng import RngStreams
from ..scenarios.scorecard import invariants_block
from ..service.coordinator import OperationFailed
from .coordinator import ShardedCoordinator
from .service import build_sim_backend_factory
from .shardmap import ShardMap

__all__ = ["ShardBenchReport", "compare_shard_scaling", "run_sharded_benchmark"]


@dataclass
class ShardBenchReport:
    """Outcome of one sharded virtual-time benchmark run."""

    shards: int
    seed: int
    ops: int
    succeeded: int
    failed: int
    virtual_ms: float
    map_version: int
    map_digest: str
    per_shard: Dict[str, Any] = field(default_factory=dict)
    key_skew: Dict[str, Any] = field(default_factory=dict)
    reshards: List[Dict[str, Any]] = field(default_factory=list)
    read_write: bool = False  # shards served by split read/write pairs
    config: Dict[str, Any] = field(default_factory=dict)  # workload echo

    @property
    def ops_per_virtual_second(self) -> float:
        if self.virtual_ms <= 0:
            return 0.0
        return self.succeeded / (self.virtual_ms / 1000.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "seed": self.seed,
            "ops": self.ops,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "virtual_ms": self.virtual_ms,
            "ops_per_virtual_second": self.ops_per_virtual_second,
            "map_version": self.map_version,
            "map_digest": self.map_digest,
            "per_shard": self.per_shard,
            "key_skew": self.key_skew,
            "reshards": self.reshards,
            "read_write": self.read_write,
            "config": dict(sorted(self.config.items())),
            # Scorecard consistency: same invariants block shape as every
            # other quorumtool scorecard (nothing audited here).
            "invariants": invariants_block((), []),
        }


def run_sharded_benchmark(
    systems: List[QuorumSystem],
    *,
    specs: Optional[List[Optional[str]]] = None,
    seed: int = 0,
    ops: int = 2000,
    keys: int = 512,
    skew: float = 0.9,
    read_fraction: float = 0.9,
    clients: int = 16,
    base_latency: float = 0.5,
    mean_latency: float = 1.0,
    service_time_ms: float = 2.0,
    timeout: float = 250.0,
    read_write: bool = False,
) -> ShardBenchReport:
    """Drive a seeded zipf workload through a sharded map, virtual time.

    One shard per entry of ``systems`` (equal hash ranges).  The run is
    fully deterministic: schedule, per-shard transports and coordinators
    all draw from named streams of one root seed.  ``read_write=True``
    serves every shard with the read/write capacity-LP strategy pair
    optimised at ``read_fraction`` instead of the unified optimum.
    """
    if not systems:
        raise ServiceError("benchmark needs at least one shard system")
    if clients <= 0 or ops < 0 or keys <= 0:
        raise ServiceError("invalid workload shape")
    streams = RngStreams(seed)
    key_names = [f"k{index:04d}" for index in range(keys)]
    schedule = op_plan(
        streams.stream("shardbench.schedule"),
        key_names,
        ops=ops,
        read_fraction=read_fraction,
        weights=key_weights(keys, skew),
    )
    clock = VirtualClock()
    shard_map = ShardMap.uniform(systems, specs=specs)
    factory = build_sim_backend_factory(
        clock,
        streams,
        base_latency=base_latency,
        mean_latency=mean_latency,
        service_time_ms=service_time_ms,
        timeout=timeout,
        read_write=read_fraction if read_write else None,
    )
    sharded = ShardedCoordinator(shard_map, factory)
    succeeded = 0
    failed = 0
    key_skew: Dict[str, Any] = {}

    async def run_op(index: int, worker: int) -> None:
        nonlocal succeeded, failed
        kind, key = schedule[index]
        try:
            if kind == "read":
                await sharded.read(key)
            else:
                await sharded.write(key, f"v{index}")
            succeeded += 1
        except OperationFailed:
            failed += 1

    async def main() -> float:
        # Preload every key once (excluded from the measured window) so
        # reads hit real versions.
        for key in key_names:
            await sharded.write(key, None)
        started = clock.now()
        await drive(ops, run_op, workers=clients)
        await sharded.drain()
        elapsed = clock.now() - started
        # Merge per-shard key counters before the backends close.
        merged = KeyCounter()
        for sid in sorted(sharded._backends):
            merged.merge(sharded._backends[sid].coordinator.metrics.keys)
        key_skew.update(merged.skew_summary(10))
        await sharded.close()
        return elapsed

    virtual_ms = run_virtual(main(), clock=clock)
    snapshot = sharded.snapshot()
    return ShardBenchReport(
        shards=len(systems),
        seed=seed,
        ops=ops,
        succeeded=succeeded,
        failed=failed,
        virtual_ms=virtual_ms,
        map_version=snapshot["map_version"],
        map_digest=snapshot["map_digest"],
        per_shard=snapshot["load"],
        key_skew=key_skew,
        reshards=snapshot["reshards"],
        read_write=read_write,
        config={
            "ops": ops,
            "keys": keys,
            "skew": skew,
            "read_fraction": read_fraction,
            "clients": clients,
            "base_latency": base_latency,
            "mean_latency": mean_latency,
            "service_time_ms": service_time_ms,
            "timeout": timeout,
            "specs": list(specs) if specs is not None else None,
        },
    )


def compare_shard_scaling(
    build_system: Any,
    *,
    spec: str = "majority:5",
    shard_counts: Tuple[int, int] = (1, 8),
    seed: int = 0,
    **workload: Any,
) -> Dict[str, Any]:
    """Same seeded workload at two shard counts; report the speedup.

    ``build_system`` is a ``spec -> QuorumSystem`` constructor (the CLI's
    :func:`repro.cli.build_system`); every shard runs an instance of the
    same spec, so the comparison isolates *sharding*, not system choice.
    """
    reports = {}
    for count in shard_counts:
        systems = [build_system(spec) for _ in range(count)]
        reports[count] = run_sharded_benchmark(
            systems, specs=[spec] * count, seed=seed, **workload
        )
    low, high = min(shard_counts), max(shard_counts)
    base = reports[low].ops_per_virtual_second
    scaled = reports[high].ops_per_virtual_second
    return {
        "spec": spec,
        "seed": seed,
        "runs": {str(count): reports[count].to_dict() for count in shard_counts},
        "speedup": (scaled / base) if base > 0 else 0.0,
    }
