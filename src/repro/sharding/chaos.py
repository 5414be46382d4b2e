"""Chaos scenario: split a hot shard mid-workload, under injected faults.

The sharded analogue of :func:`repro.scenarios.engine.run_chaos`: a seeded zipf
workload runs against a :class:`~repro.sharding.coordinator.
ShardedCoordinator` whose per-shard transports each carry a randomized
:class:`~repro.runtime.faults.FaultSchedule` (crashes, flapping,
latency spikes, drops, duplicates), and partway through the run the
hottest shard is split **live** — drain, copy, flip — while clients keep
reading and writing.  Each op is recorded in a
:class:`~repro.scenarios.history.History`; afterwards the harness checks
the four core invariants of :mod:`repro.scenarios.invariants` on it:
durability against the *final* map's authoritative replicas (resharding
lost nothing), freshness against each read's expectation at invoke,
version integrity in value-set form (coordinator clocks restart across
migration epochs), and monotonicity of every replica journal ever
created, retired epochs included.

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
from typing import Any, Awaitable, Dict, List, Optional, Tuple

from ..core.errors import ServiceError
from ..runtime.clock import run_on
from ..runtime.driver import drive, key_weights, op_plan
from ..runtime.faults import FaultSchedule
from ..runtime.rng import RngStreams
from ..scenarios.engine import chaos_clock
from ..scenarios.history import History, Journals, Op, Replay
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
from ..service.faults import injected_totals
from .coordinator import ShardedCoordinator
from .service import SimShardFleet, build_sim_backend_factory
from .shardmap import Shard, ShardMap

__all__ = ["ReshardChaosConfig", "ReshardReport", "run_reshard_chaos"]

#: The outcome counters a resharding report always carries.
RESHARD_COUNTS = ("reads_ok", "reads_failed", "writes_ok", "writes_failed", "preloads")


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
        if self.epoch <= 0:
            raise ServiceError(f"epoch must be > 0 ticks, got {self.epoch}")
        if self.lease_ttl < 0:
            raise ServiceError("lease_ttl must be >= 0")


@dataclass
class ReshardReport:
    """Everything one resharding chaos run produced, JSON-exportable."""

    seed: int
    mode: str
    config: ReshardChaosConfig
    operations: Dict[str, int]
    history: History
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
    def trace(self) -> List[Dict[str, Any]]:
        """One row per op in return order, rendered from :attr:`history`."""
        return self.history.replay(trace_row).trace

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


def trace_row(record: Op) -> Dict[str, Any]:
    """One op of the resharding trace, in its pinned shape."""
    row: Dict[str, Any] = {
        "op": record.op,
        "kind": record.kind,
        "key": record.key,
        "outcome": record.outcome,
    }
    if record.counter is not None:
        row["ts"] = [record.counter, record.writer]
    return row


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
    clock = chaos_clock(mode)
    if config is None:
        config = ReshardChaosConfig()
    config.validate()
    from ..cli import build_system

    streams = RngStreams(seed)
    fleet = SimShardFleet()
    # Monotonicity journals for every replica ever created, old epochs
    # included (retired backends close, their journals stay auditable).
    journals = Journals()

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
        on_apply_for=lambda shard, replica: journals.attach(replica, shard.shard_id),
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
    history = History(clock)
    violations: List[Dict[str, Any]] = []

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
        # Invoked before the first await: a write's value is a legal read
        # result from here on, even if the write fails after a partial
        # apply, and a read expects every write acknowledged by now.
        if kind == "write":
            value = f"v{index}-c{client}"
            call = history.invoke(index, client, kind, key, value)
            try:
                ack = await sharded.write(key, value)
            except OperationFailed:
                history.settle(call, "failed")
            else:
                history.settle(call, "ok", (ack.counter, ack.writer))
            return
        call = history.invoke(index, client, kind, key)
        try:
            result = await sharded.read(key)
        except OperationFailed:
            history.settle(call, "failed")
        else:
            history.settle(
                call,
                "ok",
                (result.counter, result.writer),
                value=result.value,
                stale=result.stale,
            )

    def start(index: int, worker: int) -> Awaitable[None]:
        # Fault clocks advance in op order; they only move forward.
        fleet.advance_faults(float(index))
        if index >= reshard_tick:
            maybe_fire_reshard()
        kind, key = plan[index]
        return run_op(index, worker, kind, key)

    async def _run() -> Replay:
        # Preload at fault tick -1 (before every fault window) so each
        # key has an acknowledged baseline version.
        fleet.advance_faults(-1.0)
        for key_index, key in enumerate(key_names):
            call = history.invoke(None, config.clients, "preload", key, f"preload-{key_index}")
            ack = await sharded.write(key, call.value)
            history.settle(call, "ok", (ack.counter, ack.writer))

        await drive(config.ops, start, workers=config.clients)
        if reshard_task:
            await reshard_task[0]
        await sharded.drain()

        replay = history.replay(trace_row, RESHARD_COUNTS)
        for read, expected in replay.reads:
            where = {"op": read.op, "key": read.key, "timestamp": read.ts}
            issued = replay.written.get(read.key, set())
            check_issued_value(violations, **where, value=read.value, issued=issued)
            check_fresh_read(violations, **where, stale=read.stale, expected=expected)
        # Durability: audited fault-free against the FINAL map's
        # authoritative replicas, before the backends close.
        for key in sorted(replay.acked):
            expected_ts, acked_value = replay.acked[key]
            audit_durability(
                violations,
                key=key,
                expected=expected_ts,
                acked_value=acked_value,
                replicas=sharded.backend_for_key(key).replicas,
            )
        await sharded.close()
        return replay

    started = time.perf_counter()
    replay = run_on(clock, _run())
    elapsed = time.perf_counter() - started

    # Monotonicity across every replica journal ever created.
    for shard_id, rid, journal in journals.entries:
        audit_monotone(violations, journal, replica=rid, shard=shard_id)

    snapshot = sharded.snapshot()
    return ReshardReport(
        seed=seed,
        mode=mode,
        config=config,
        operations=replay.counts,
        history=history,
        reshards=snapshot["reshards"],
        violations=violations,
        map_versions=(1, sharded.map.version),
        map_digest=sharded.map.digest(),
        injected=injected_totals(fleet.fault_transports),
        hashes={"trace": _digest(replay.trace), "snapshot": _digest(snapshot)},
        elapsed_seconds=elapsed,
    )
