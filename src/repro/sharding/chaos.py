"""Chaos scenario: split a hot shard mid-workload, under injected faults.

The sharded analogue of :func:`repro.scenarios.engine.run_chaos`: a seeded zipf
workload runs against a :class:`~repro.sharding.coordinator.
ShardedCoordinator` whose per-shard transports each carry a randomized
:class:`~repro.runtime.faults.FaultSchedule` (crashes, flapping,
latency spikes, drops, duplicates), and partway through the run the
hottest shard is split **live** — drain, copy, flip — while clients keep
reading and writing.  Afterwards the harness checks (through the shared
invariant registry, :mod:`repro.scenarios.invariants`):

1. **acked-write-durable** — every acknowledged write survives on the
   *final* map's authoritative shard replicas (resharding lost nothing).
2. **no-stale-unflagged-read** — a read returns a version at least as
   new as everything acknowledged for that key before the read began
   (sound under concurrency: the expectation is snapshotted before the
   read's first await).
3. **version-integrity** — every non-null value a read returns was
   actually issued for that key (values are registered *before* the
   write attempt, so a partially-applied failed write is a known, legal
   version).
4. **replica-ts-monotone** — every replica journal ever created (old
   epochs included) only moves forward, across repair, hinted handoff
   and migration transfer alike.

The op plan and the closed client loop are the shared workload driver's
(:mod:`repro.runtime.driver`); each op's fault-tick advance and the
reshard trigger run in the driver's synchronous ``start`` hook, so they
happen in op order.

A reshard that *aborts* under faults (census or copy could not reach a
quorum) is a recorded outcome, not a violation — the old epoch stays
authoritative and the invariants must still hold.  The run is seeded and
bit-reproducible in ``"sim"`` mode; the report carries a trace digest to
prove it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Awaitable, Dict, List, Optional, Set, Tuple

from ..core.errors import ServiceError
from ..runtime.clock import VirtualClock, WallClock, run_virtual
from ..runtime.driver import drive, key_weights, op_plan
from ..runtime.faults import FaultSchedule
from ..runtime.rng import RngStreams
from ..scenarios.engine import check_chaos_mode
from ..scenarios.invariants import (
    CORE_INVARIANTS,
    audit_durability,
    audit_monotone,
    check_fresh_read,
    check_issued_value,
)
from ..scenarios.scorecard import digest as _digest
from ..scenarios.scorecard import invariants_block
from ..service.coordinator import OperationFailed
from ..service.replica import NULL_TIMESTAMP, Replica
from .coordinator import ReshardEvent, ShardedCoordinator
from .service import SimShardFleet, build_sim_backend_factory
from .shardmap import Shard, ShardMap

_TS = Tuple[int, int]

__all__ = ["ReshardChaosConfig", "ReshardReport", "run_reshard_chaos"]


@dataclass
class ReshardChaosConfig:
    """Shape of one resharding chaos run."""

    ops: int = 600
    read_fraction: float = 0.6
    keys: int = 48
    skew: float = 0.9
    clients: int = 4
    shards: int = 4
    spec: str = "majority:5"
    reshard: str = "split"  # "split" | "grow" | "none"
    reshard_at: float = 0.4  # fraction of ops after which the reshard fires
    crash_rate: float = 0.1
    epoch: float = 40.0
    timeout: float = 200.0
    max_attempts: int = 6
    base_latency: float = 0.5
    mean_latency: float = 2.0
    service_time_ms: float = 0.0
    # Quorum leases (0 = off): per-shard coordinators re-join every
    # sampled quorum each lease_ttl operations, so the drain→copy→flip
    # handoff runs under continuous membership churn.
    lease_ttl: int = 0

    def validate(self) -> None:
        if self.ops < 1:
            raise ServiceError("chaos needs at least one op")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ServiceError("read fraction must be in [0,1]")
        if self.keys < 1 or self.clients < 1 or self.shards < 1:
            raise ServiceError("keys, clients and shards must be positive")
        if self.reshard not in ("split", "grow", "none"):
            raise ServiceError(f"unknown reshard kind {self.reshard!r}")
        if not 0.0 < self.reshard_at < 1.0:
            raise ServiceError("reshard_at must be in (0,1)")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ServiceError("crash rate must be in [0,1]")
        if self.lease_ttl < 0:
            raise ServiceError("lease_ttl must be >= 0")


@dataclass
class ReshardReport:
    """Everything one resharding chaos run produced, JSON-exportable."""

    seed: int
    mode: str
    config: ReshardChaosConfig
    operations: Dict[str, int]
    reshards: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    map_versions: Tuple[int, int] = (1, 1)
    map_digest: str = ""
    injected: Dict[str, int] = field(default_factory=dict)
    hashes: Dict[str, str] = field(default_factory=dict)
    # Wall-clock duration; NOT in to_dict() (seed-stable snapshot).
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every safety invariant held."""
        return not self.violations

    @property
    def reshard_completed(self) -> bool:
        """True when at least one reshard ran to a successful flip."""
        return any(event.get("ok") for event in self.reshards)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "config": asdict(self.config),
            "operations": dict(sorted(self.operations.items())),
            "reshards": self.reshards,
            "map_versions": list(self.map_versions),
            "map_digest": self.map_digest,
            "faults_injected": dict(sorted(self.injected.items())),
            "hashes": dict(sorted(self.hashes.items())),
            "invariants": invariants_block(CORE_INVARIANTS, self.violations),
        }


def run_reshard_chaos(
    *,
    seed: int = 0,
    config: Optional[ReshardChaosConfig] = None,
    mode: str = "sim",
) -> ReshardReport:
    """Run one seeded resharding-under-faults scenario and audit safety.

    ``mode`` is ``"sim"`` (virtual time, milliseconds of wall clock) or
    ``"wall"`` (same stack over a real clock).  The same seed produces
    the same shard map, fault schedules, workload plan and trace digest.
    """
    check_chaos_mode(mode)
    if config is None:
        config = ReshardChaosConfig()
    config.validate()
    from ..cli import build_system

    streams = RngStreams(seed)
    clock = VirtualClock() if mode == "sim" else WallClock()
    fleet = SimShardFleet()

    # Monotonicity journals for every replica ever created, old epochs
    # included (retired backends close, their journals stay auditable).
    journals: List[Tuple[str, int, Dict[str, List[_TS]]]] = []

    def on_apply_for(shard: Shard, replica: Replica) -> None:
        journal: Dict[str, List[_TS]] = {}
        journals.append((shard.shard_id, replica.replica_id, journal))

        def on_apply(key: str, counter: int, writer: int) -> None:
            journal.setdefault(key, []).append((counter, writer))

        replica.on_apply = on_apply

    def schedule_for(shard: Shard) -> FaultSchedule:
        # Derived from the shard *name*: split children get their own
        # deterministic schedules without shifting anyone else's draws.
        return FaultSchedule.random(
            streams.stream(f"reshardchaos.schedule.{shard.shard_id}"),
            sorted(shard.system.universe.ids),
            float(config.ops),
            crash_rate=config.crash_rate,
            epoch=config.epoch,
        )

    systems = [build_system(config.spec) for _ in range(config.shards)]
    shard_map = ShardMap.uniform(systems, specs=[config.spec] * config.shards)
    factory = build_sim_backend_factory(
        clock,
        streams,
        base_latency=config.base_latency,
        mean_latency=config.mean_latency,
        service_time_ms=config.service_time_ms,
        timeout=config.timeout,
        max_attempts=config.max_attempts,
        lease_ttl=config.lease_ttl,
        schedule_for=schedule_for,
        on_apply_for=on_apply_for,
        fleet=fleet,
    )
    sharded = ShardedCoordinator(shard_map, factory)

    # Workload plan: seed-deterministic (kind, key) sequence, zipf keys.
    key_names = [f"k{index:03d}" for index in range(config.keys)]
    plan = op_plan(
        streams.stream("reshardchaos.plan"),
        key_names,
        ops=config.ops,
        read_fraction=config.read_fraction,
        weights=key_weights(config.keys, config.skew),
    )
    reshard_tick = int(config.ops * config.reshard_at)
    reshard_task: List["asyncio.Task"] = []

    acked_max: Dict[str, _TS] = {}
    acked_values: Dict[Tuple[str, int, int], Any] = {}
    issued_for_key: Dict[str, Set[Any]] = {}
    violations: List[Dict[str, Any]] = []
    trace: List[Dict[str, Any]] = []
    counts = {
        "reads_ok": 0,
        "reads_failed": 0,
        "writes_ok": 0,
        "writes_failed": 0,
        "preloads": 0,
    }

    def record_ack(key: str, timestamp: _TS, value: Any) -> None:
        acked_values[(key, timestamp[0], timestamp[1])] = value
        if timestamp > acked_max.get(key, NULL_TIMESTAMP):
            acked_max[key] = timestamp

    def maybe_fire_reshard() -> None:
        if reshard_task or config.reshard == "none":
            return
        target = sharded.tracker.hottest(sharded.map.shard_ids)
        if target is None:
            target = sharded.map.shard_ids[0]
        if config.reshard == "split":
            coro = sharded.split_shard(target)
        else:
            coro = sharded.grow_shard(target)
        reshard_task.append(asyncio.ensure_future(coro))

    async def run_op(index: int, client: int, kind: str, key: str) -> None:
        if kind == "write":
            value = f"v{index}-c{client}"
            # Registered before the attempt: a failed write's
            # partially-applied version is a legal read result.
            issued_for_key.setdefault(key, set()).add(value)
            try:
                ack = await sharded.write(key, value)
            except OperationFailed:
                counts["writes_failed"] += 1
                trace.append(
                    {"op": index, "kind": kind, "key": key, "outcome": "failed"}
                )
            else:
                counts["writes_ok"] += 1
                record_ack(key, (ack.counter, ack.writer), value)
                trace.append(
                    {
                        "op": index,
                        "kind": kind,
                        "key": key,
                        "outcome": "ok",
                        "ts": [ack.counter, ack.writer],
                    }
                )
            return
        # Snapshot the expectation before the first await so a
        # concurrent-with-read write cannot fake a violation.
        expected = acked_max.get(key)
        try:
            result = await sharded.read(key)
        except OperationFailed:
            counts["reads_failed"] += 1
            trace.append({"op": index, "kind": kind, "key": key, "outcome": "failed"})
            return
        counts["reads_ok"] += 1
        timestamp = (result.counter, result.writer)
        trace.append(
            {
                "op": index,
                "kind": kind,
                "key": key,
                "outcome": "ok",
                "ts": list(timestamp),
            }
        )
        check_issued_value(
            violations,
            op=index,
            key=key,
            value=result.value,
            timestamp=timestamp,
            issued=issued_for_key.get(key, set()),
        )
        check_fresh_read(
            violations,
            op=index,
            key=key,
            timestamp=timestamp,
            stale=result.stale,
            expected=expected,
        )

    def start(index: int, worker: int) -> Awaitable[None]:
        # Fault clocks advance in op order; they only move forward.
        fleet.advance_faults(float(index))
        if index >= reshard_tick:
            maybe_fire_reshard()
        kind, key = plan[index]
        return run_op(index, worker, kind, key)

    async def _run() -> None:
        # Preload at fault tick -1 (before every fault window) so each
        # key has an acknowledged baseline version.
        fleet.advance_faults(-1.0)
        for key_index, key in enumerate(key_names):
            value = f"preload-{key_index}"
            issued_for_key.setdefault(key, set()).add(value)
            ack = await sharded.write(key, value)
            record_ack(key, (ack.counter, ack.writer), value)
            counts["preloads"] += 1

        await drive(config.ops, start, workers=config.clients)
        if reshard_task:
            await reshard_task[0]
        await sharded.drain()

        # Durability: audited fault-free against the FINAL map's
        # authoritative replicas, before the backends close.
        for key in sorted(acked_max):
            expected = acked_max[key]
            audit_durability(
                violations,
                key=key,
                expected=expected,
                acked_value=acked_values[(key, expected[0], expected[1])],
                replicas=sharded.backend_for_key(key).replicas,
            )
        await sharded.close()

    started = time.perf_counter()
    if mode == "sim":
        assert isinstance(clock, VirtualClock)
        run_virtual(_run(), clock=clock)
    else:
        asyncio.run(_run())
    elapsed = time.perf_counter() - started

    # Monotonicity across every replica journal ever created.
    for shard_id, rid, journal in journals:
        audit_monotone(violations, journal, replica=rid, shard=shard_id)

    injected: Dict[str, int] = {}
    for transport in fleet.fault_transports:
        for fault_kind, count in transport.injected.items():
            injected[fault_kind] = injected.get(fault_kind, 0) + count

    snapshot = sharded.snapshot()
    hashes = {
        "trace": _digest(trace),
        "snapshot": _digest(snapshot),
    }
    return ReshardReport(
        seed=seed,
        mode=mode,
        config=config,
        operations=counts,
        reshards=snapshot["reshards"],
        violations=violations,
        map_versions=(1, sharded.map.version),
        map_digest=sharded.map.digest(),
        injected=injected,
        hashes=hashes,
        elapsed_seconds=elapsed,
    )
