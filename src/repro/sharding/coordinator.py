"""Sharded coordinator: per-key routing plus live resharding.

:class:`ShardedCoordinator` fronts a fleet of ordinary per-shard
:class:`~repro.service.coordinator.Coordinator` stacks.  Every operation
routes through the current :class:`~repro.sharding.shardmap.ShardMap`;
the per-shard machinery (hedging, breakers, hinted handoff) is untouched,
so a sharded service inherits the whole serving feature set.

Resharding follows the seal → transfer → flip epoch handoff modelled by
:mod:`repro.sim.protocols.reconfiguration`, adapted to a live service:

1. **Drain** — the source shards are marked migrating; new writes to
   them queue on an event instead of failing (the service-layer
   equivalent of the protocol's sealed-epoch ``ProtocolError``), and the
   migration waits for in-flight writes to finish.
2. **Copy** — a key census (the ``keys`` replica op, accepted only when
   the responders contain a quorum) enumerates the source state; each
   key is quorum-read from the source and written into its destination
   shard **timestamp-preservingly** via
   :meth:`~repro.service.coordinator.Coordinator.transfer`, so a copy
   can never shadow a newer client write.  Destination backends are
   built in a *staging* area, keyed separately from the live fleet, so
   a membership-growth migration that keeps the shard id never collides
   with the epoch it is replacing.
3. **Flip** — the new map installs and staged backends promote in one
   atomic step (no awaits in between), queued writers wake and
   re-route, and displaced/retired backends are drained and closed.
   Reads issued *during* the copy dual-fetch from both epochs and take
   the newest version.

A copy failure aborts the reshard: the old map stays authoritative,
queued writers wake against the unchanged epoch, and the staged
destination backends are discarded — the same "old epoch remains live
until the flip" guarantee the sim protocol provides.

Everything here relies on asyncio's run-to-await atomicity: routing
checks, in-flight accounting and the flip each happen between await
points, so no lock is needed and seeded runs stay deterministic.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from ..service.coordinator import (
    Coordinator,
    OperationFailed,
    ReadResult,
    WriteResult,
)
from ..service.ops import KEYS, KeysReply
from ..service.replica import NULL_TIMESTAMP, Replica
from ..service.transport import Transport
from .shardmap import Shard, ShardMap
from .tracker import ShardLoadTracker

__all__ = ["ReshardEvent", "ShardBackend", "ShardedCoordinator"]


class ShardBackend(NamedTuple):
    """One shard's serving stack: replicas, transport, coordinator."""

    shard: Shard
    replicas: List[Replica]
    transport: Transport
    coordinator: Coordinator

    async def close(self) -> None:
        await self.coordinator.drain()
        await self.transport.close()


#: Builds the serving stack for one shard (called lazily, synchronously).
BackendFactory = Callable[[Shard], ShardBackend]


class ReshardEvent(NamedTuple):
    """One entry of the resharding log."""

    kind: str  # "split" | "merge" | "grow"
    shard_ids: Tuple[str, ...]  # source shards
    ok: bool
    from_version: int
    to_version: int
    keys_moved: int
    detail: str = ""


class _Migration:
    """In-flight handoff state for one source shard."""

    __slots__ = ("flipped", "drained")

    def __init__(self) -> None:
        #: Set when the map has flipped (or the reshard aborted); queued
        #: writers wait on this and then re-route.
        self.flipped = asyncio.Event()
        #: Set when the shard has zero in-flight writes.
        self.drained = asyncio.Event()


class ShardedCoordinator:
    """Routes KV operations through a live, resharding-capable map.

    Parameters
    ----------
    shard_map:
        Initial routing table.
    backend_factory:
        Builds the per-shard serving stack; must be synchronous so
        routing decisions stay atomic under asyncio.
    tracker:
        Per-shard load tracker (a fresh one by default).
    """

    def __init__(
        self,
        shard_map: ShardMap,
        backend_factory: BackendFactory,
        *,
        tracker: Optional[ShardLoadTracker] = None,
    ) -> None:
        self.map = shard_map
        self.backend_factory = backend_factory
        self.tracker = tracker if tracker is not None else ShardLoadTracker()
        self._backends: Dict[str, ShardBackend] = {}
        #: Destination backends of the in-flight reshard, promoted into
        #: ``_backends`` at the flip (discarded on abort).
        self._staging: Dict[str, ShardBackend] = {}
        self._pending: Optional[ShardMap] = None
        self._inflight: Dict[str, int] = {}
        self._migrations: Dict[str, _Migration] = {}
        self.resharding_log: List[ReshardEvent] = []

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _backend(self, shard: Shard) -> ShardBackend:
        """Live backend for a *current-map* shard (created lazily)."""
        backend = self._backends.get(shard.shard_id)
        if backend is None:
            backend = self.backend_factory(shard)
            self._backends[shard.shard_id] = backend
        elif backend.shard is not shard:
            raise ServiceError(
                f"backend for {shard.shard_id!r} is bound to a stale shard"
            )
        return backend

    def _dest_backend(self, target: Shard) -> ShardBackend:
        """Backend for a *new-map* shard during a migration.

        Shards untouched by the reshard keep their Shard object, so
        their live backend is reused; genuinely new epochs are staged.
        """
        existing = self._backends.get(target.shard_id)
        if existing is not None and existing.shard is target:
            return existing
        backend = self._staging.get(target.shard_id)
        if backend is None:
            backend = self.backend_factory(target)
            self._staging[target.shard_id] = backend
        return backend

    def backend_for_key(self, key: str) -> ShardBackend:
        """The backend currently serving ``key`` (creates it lazily)."""
        return self._backend(self.map.shard_for_key(key))

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    async def read(self, key: str) -> ReadResult:
        """Quorum read; during a migration, dual-read both epochs.

        The source shard stays authoritative until the flip, so its
        answer alone would be correct — the dual-read is the standard
        belt-and-braces of epoch handoffs (and exercises the destination
        before it takes over).
        """
        shard = self.map.shard_for_key(key)
        migration = self._migrations.get(shard.shard_id)
        backend = self._backend(shard)
        if migration is None or migration.flipped.is_set():
            result = await backend.coordinator.read(key)
            self.tracker.record_op(shard.shard_id, "read", result.latency)
            return result
        new_map = self._pending
        results: List[ReadResult] = []
        if new_map is not None:
            new_backend = self._dest_backend(new_map.shard_for_key(key))
            try:
                results.append(await new_backend.coordinator.read(key))
            except OperationFailed:
                pass  # destination still warming up: old epoch decides
        try:
            results.append(await backend.coordinator.read(key))
        except OperationFailed:
            if not results:
                raise
            # Only the destination answered.  Pre-flip it may still be
            # missing uncopied keys, so its answer is best-effort — the
            # same contract as a degraded read.
            results = [result._replace(stale=True) for result in results]
        best = max(results, key=lambda r: (r.counter, r.writer))
        self.tracker.record_op(shard.shard_id, "read", best.latency)
        return best

    async def write(self, key: str, value: Any) -> WriteResult:
        """Quorum write; queued (not failed) while the shard migrates."""
        while True:
            shard = self.map.shard_for_key(key)
            sid = shard.shard_id
            migration = self._migrations.get(sid)
            if migration is not None and not migration.flipped.is_set():
                # The shard is sealed: wait for the flip, then re-route
                # under whichever map won (new on success, old on abort).
                await migration.flipped.wait()
                continue
            backend = self._backend(shard)
            # No await between the migration check and this increment, so
            # a migration can never start "between" them.
            self._inflight[sid] = self._inflight.get(sid, 0) + 1
            try:
                result = await backend.coordinator.write(key, value)
            finally:
                self._inflight[sid] -= 1
                pending = self._migrations.get(sid)
                if pending is not None and self._inflight[sid] == 0:
                    pending.drained.set()
            self.tracker.record_op(sid, "write", result.latency)
            return result

    # ------------------------------------------------------------------
    # Resharding (drain -> copy -> flip)
    # ------------------------------------------------------------------
    async def _census(self, backend: ShardBackend) -> List[str]:
        """Union of keys on the shard's replicas, quorum-validated.

        Every replica is asked; the union over responders is trusted only
        when the responders contain a quorum — then every key with an
        acknowledged write is present on at least one responder (any
        write quorum intersects every quorum).  Retries up to the
        coordinator's attempt budget with a deadline-long pause between
        tries, so a transient fault window does not abort a migration.
        """
        replica_ids = sorted(r.replica_id for r in backend.replicas)
        attempts = max(1, backend.coordinator.max_attempts)
        for attempt in range(1, attempts + 1):
            outcomes = await asyncio.gather(
                *(
                    backend.transport.call(rid, KEYS, backend.coordinator.timeout)
                    for rid in replica_ids
                ),
                return_exceptions=True,
            )
            responders: Set[int] = set()
            keys: Set[str] = set()
            for rid, outcome in zip(replica_ids, outcomes):
                if isinstance(outcome, BaseException):
                    continue
                if isinstance(outcome.payload, KeysReply):
                    responders.add(rid)
                    keys.update(outcome.payload.keys)
            if backend.shard.system.contains_quorum(frozenset(responders)):
                return sorted(keys)
            if attempt < attempts:
                await backend.transport.pause(backend.coordinator.timeout)
        raise OperationFailed("census", backend.shard.shard_id, attempts, 0.0)

    async def _migrate(
        self, kind: str, source_ids: Tuple[str, ...], new_map: ShardMap
    ) -> ReshardEvent:
        """Run the drain → copy → flip handoff from ``source_ids``.

        On failure the old map remains authoritative and the event is
        logged with ``ok=False`` — a reshard can abort, never corrupt.
        """
        for sid in source_ids:
            if sid in self._migrations:
                raise ServiceError(f"shard {sid!r} is already migrating")
        if self._pending is not None:
            raise ServiceError("another reshard is already in flight")
        from_version = self.map.version
        migrations = {sid: _Migration() for sid in source_ids}
        self._migrations.update(migrations)
        self._pending = new_map
        for sid, migration in migrations.items():
            if self._inflight.get(sid, 0) == 0:
                migration.drained.set()
        keys_moved = 0
        try:
            # 1. Drain: wait out in-flight writes to every source shard.
            for migration in migrations.values():
                await migration.drained.wait()
            # 2. Copy: census each source, quorum-read every key, transfer
            #    it (timestamp preserved) into its destination shard.
            for sid in source_ids:
                source = self._backend(self.map.shard(sid))
                for key in await self._census(source):
                    result = await source.coordinator.read(key)
                    if (result.counter, result.writer) <= NULL_TIMESTAMP:
                        continue
                    target = self._dest_backend(new_map.shard_for_key(key))
                    await target.coordinator.transfer(
                        key, result.value, result.counter, result.writer
                    )
                    keys_moved += 1
        except (OperationFailed, ServiceError) as exc:
            # Abort: discard the staged destinations, keep the old epoch.
            # State updates first (synchronously), teardown awaits after.
            discarded = list(self._staging.values())
            self._staging.clear()
            self._pending = None
            for sid, migration in migrations.items():
                self._migrations.pop(sid, None)
                migration.flipped.set()
            event = ReshardEvent(
                kind, source_ids, False, from_version, from_version, keys_moved,
                detail=str(exc),
            )
            self.resharding_log.append(event)
            for backend in discarded:
                await backend.close()
            return event
        # 3. Flip: install the map and promote staged backends in one
        #    atomic step — every operation after this instant routes by
        #    the new map against the promoted fleet.
        self.map = new_map
        displaced: List[ShardBackend] = []
        for sid, backend in sorted(self._staging.items()):
            old = self._backends.pop(sid, None)
            if old is not None:
                displaced.append(old)
            self._backends[sid] = backend
        self._staging.clear()
        for sid in source_ids:
            if sid not in new_map:
                retired = self._backends.pop(sid, None)
                if retired is not None:
                    displaced.append(retired)
        self._pending = None
        for sid, migration in migrations.items():
            self._migrations.pop(sid, None)
            migration.flipped.set()
        event = ReshardEvent(
            kind, source_ids, True, from_version, new_map.version, keys_moved
        )
        self.resharding_log.append(event)
        for backend in displaced:
            await backend.close()
        return event

    # ------------------------------------------------------------------
    # Public reshaping operations
    # ------------------------------------------------------------------
    async def split_shard(
        self,
        shard_id: str,
        left_system: Optional[QuorumSystem] = None,
        right_system: Optional[QuorumSystem] = None,
        *,
        left_spec: Optional[str] = None,
        right_spec: Optional[str] = None,
    ) -> ReshardEvent:
        """Split a (hot) shard in two, live.

        By default both children reuse the parent's quorum system — pass
        explicit systems to go heterogeneous (e.g. promote the hot half
        to a grown h-triang).
        """
        old = self.map.shard(shard_id)
        left = left_system if left_system is not None else old.system
        right = right_system if right_system is not None else old.system
        new_map = self.map.split(
            shard_id,
            left,
            right,
            left_spec=left_spec if left_spec is not None else old.spec,
            right_spec=right_spec if right_spec is not None else old.spec,
        )
        return await self._migrate("split", (shard_id,), new_map)

    async def merge_shards(
        self,
        left_id: str,
        right_id: str,
        merged_system: Optional[QuorumSystem] = None,
        *,
        spec: Optional[str] = None,
    ) -> ReshardEvent:
        """Merge two ring-adjacent (cold) shards into one, live."""
        left = self.map.shard(left_id)
        system = merged_system if merged_system is not None else left.system
        new_map = self.map.merge(
            left_id,
            right_id,
            system,
            spec=spec if spec is not None else left.spec,
        )
        return await self._migrate("merge", (left_id, right_id), new_map)

    async def grow_shard(self, shard_id: str, construction: str = "t1") -> ReshardEvent:
        """Grow a shard's membership via the paper's §5 growth operations.

        The shard keeps its id and slot range; its quorum system is
        replaced by ``system.grown(construction)`` (h-triang families
        support ``"t1"``, ``"t2"`` and ``"grid"``) and state migrates to
        the enlarged replica set through the same handoff.
        """
        old = self.map.shard(shard_id)
        grown = getattr(old.system, "grown", None)
        if grown is None:
            raise ServiceError(
                f"shard {shard_id!r} system {old.system.system_name!r} "
                "has no growth operations (need an h-triang family system)"
            )
        new_map = self.map.replace(shard_id, grown(construction), spec=None)
        return await self._migrate("grow", (shard_id,), new_map)

    async def split_hottest(
        self, *, factor: float = 2.0, min_ops: int = 50
    ) -> Optional[ReshardEvent]:
        """Detect the hottest overloaded shard and split it (None if cool)."""
        hot = self.tracker.hot_shards(
            self.map.shard_ids, factor=factor, min_ops=min_ops
        )
        if not hot:
            return None
        return await self.split_shard(hot[0])

    # ------------------------------------------------------------------
    # Introspection and teardown
    # ------------------------------------------------------------------
    @property
    def migrating(self) -> List[str]:
        """Source shard ids of the in-flight reshard (empty when idle)."""
        return sorted(self._migrations)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic summary: map, per-shard load, reshard history."""
        return {
            "map_version": self.map.version,
            "map_digest": self.map.digest(),
            "shards": self.map.describe(),
            "load": self.tracker.snapshot(),
            "reshards": [
                {
                    "kind": e.kind,
                    "shards": list(e.shard_ids),
                    "ok": e.ok,
                    "from_version": e.from_version,
                    "to_version": e.to_version,
                    "keys_moved": e.keys_moved,
                    "detail": e.detail,
                }
                for e in self.resharding_log
            ],
        }

    async def drain(self) -> None:
        """Await hedge stragglers on every live backend."""
        for sid in sorted(self._backends):
            await self._backends[sid].coordinator.drain()

    async def close(self) -> None:
        """Drain and close every backend (idempotent)."""
        for sid in sorted(self._backends):
            await self._backends[sid].close()
        self._backends.clear()
        for sid in sorted(self._staging):
            await self._staging[sid].close()
        self._staging.clear()

    def __repr__(self) -> str:
        return (
            f"<ShardedCoordinator map=v{self.map.version}"
            f" shards={len(self.map)} backends={len(self._backends)}"
            f" migrating={self.migrating}>"
        )
