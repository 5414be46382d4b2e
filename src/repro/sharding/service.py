"""Backend factories: wiring shards to the virtual-time serving stack.

A :class:`~repro.sharding.coordinator.ShardedCoordinator` needs a
factory that turns a :class:`~repro.sharding.shardmap.Shard` into a
complete serving stack.  :func:`build_sim_backend_factory` builds the
canonical one: per shard, fresh replicas, a latency-spending
:class:`~repro.service.simtransport.SimTransport` on a *shared* clock
(the whole fleet lives in one virtual timeline), optionally wrapped in a
:class:`~repro.service.faults.FaultyTransport`, and a per-shard
:class:`~repro.service.coordinator.Coordinator` served at its system's
LP-optimal strategy.

Determinism discipline: every shard derives its transport, fault and
coordinator randomness from *named* streams
(``shard.<id>.transport`` etc.) of one :class:`~repro.runtime.rng.
RngStreams` root, so adding, splitting or merging shards never shifts
another shard's draws — the sharded analogue of the loadgen rule that
adding a client must not move anyone else's randomness.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..analysis.capacity import serving_strategy
from ..runtime.clock import Clock
from ..runtime.faults import FaultSchedule
from ..runtime.rng import RngStreams
from ..service.coordinator import Coordinator
from ..service.faults import FaultyTransport
from ..service.replica import Replica, make_replicas
from ..service.simtransport import SimTransport
from ..service.transport import DEFAULT_TIMEOUT_MS
from .coordinator import ShardBackend
from .shardmap import Shard

__all__ = ["SimShardFleet", "build_sim_backend_factory"]


class SimShardFleet:
    """Bookkeeping shared by every backend one factory creates.

    The chaos harness needs two global views that the per-shard stacks
    cannot provide: every :class:`~repro.service.faults.FaultyTransport`
    ever created (to advance their fault clocks in lockstep) and every
    :class:`~repro.service.replica.Replica` ever created (to audit
    monotonicity journals after backends retire).
    """

    def __init__(self) -> None:
        self.fault_transports: List[FaultyTransport] = []
        self.all_replicas: List[Replica] = []
        self.fault_tick = 0.0

    def advance_faults(self, tick: float) -> None:
        """Set every fault transport's clock to ``tick``."""
        self.fault_tick = float(tick)
        for transport in self.fault_transports:
            transport.clock = float(tick)

    def register_fault_transport(self, transport: FaultyTransport) -> None:
        """Track a transport, stamping it with the fleet's current tick.

        Backends are created lazily — a shard split mid-run (or the very
        first touch of a shard) must join the fleet's timeline, not
        restart at tick 0 and re-live the early fault windows.
        """
        transport.clock = self.fault_tick
        self.fault_transports.append(transport)


def build_sim_backend_factory(
    clock: Clock,
    streams: RngStreams,
    *,
    base_latency: float = 1.0,
    mean_latency: float = 4.0,
    service_time_ms: float = 0.0,
    timeout: float = DEFAULT_TIMEOUT_MS,
    max_attempts: int = 5,
    hedge_spares: int = 0,
    lease_ttl: int = 0,
    read_write: Optional[float] = None,
    schedule_for: Optional[Callable[[Shard], Optional[FaultSchedule]]] = None,
    on_apply_for: Optional[Callable[[Shard, Replica], None]] = None,
    fleet: Optional[SimShardFleet] = None,
) -> Callable[[Shard], ShardBackend]:
    """Build the canonical virtual-time backend factory.

    Parameters
    ----------
    clock:
        Shared time source for every shard's transport — one timeline.
    streams:
        Root RNG; each shard uses its own named sub-streams.
    base_latency, mean_latency, service_time_ms:
        Per-shard :class:`SimTransport` parameters; a positive service
        time gives each replica finite capacity, which is what makes
        shard-scaling measurable.
    timeout, max_attempts, hedge_spares:
        Per-shard coordinator knobs.
    lease_ttl:
        When positive, every per-shard coordinator runs quorum leases:
        each sampled quorum must re-join (Timed-Quorum style) every
        ``lease_ttl`` operations.  Freshly built backends start with no
        leases at all, so a reshard's drain→copy→flip handoff happens
        under membership churn — exactly the dynamic-environment case
        the lease machinery exists for.
    read_write:
        When set to a read fraction in ``[0, 1]``, every per-shard
        coordinator is built with the read/write capacity-LP strategy
        pair (:func:`repro.analysis.capacity.read_write_capacity`)
        optimised at that fraction instead of the unified write-legal
        optimum — reads served from small read quorums, writes from the
        matched write distribution.  Shards created later (splits,
        merges, §5 growth) solve their own LP at the same fraction.
    schedule_for:
        Optional ``shard -> FaultSchedule`` hook; a non-None schedule
        wraps that shard's transport in a :class:`FaultyTransport`
        seeded from ``shard.<id>.faults``.
    on_apply_for:
        Optional hook called for every created replica (e.g. to attach
        monotonicity journals): ``on_apply_for(shard, replica)``.
    fleet:
        Shared bookkeeping sink; pass one to tick fault clocks and audit
        replicas across reshards.
    """

    def factory(shard: Shard) -> ShardBackend:
        system = shard.system
        replicas = make_replicas(system)
        if on_apply_for is not None:
            for replica in replicas:
                on_apply_for(shard, replica)
        if fleet is not None:
            fleet.all_replicas.extend(replicas)
        transport = SimTransport(
            replicas,
            clock=clock,
            rng=streams.stream(f"shard.{shard.shard_id}.transport"),
            base_latency=base_latency,
            mean_latency=mean_latency,
            service_time_ms=service_time_ms,
        )
        outer = transport
        if schedule_for is not None:
            schedule = schedule_for(shard)
            if schedule is not None:
                faulty = FaultyTransport(
                    transport,
                    schedule,
                    seed=streams.seed_for(f"shard.{shard.shard_id}.faults"),
                )
                if fleet is not None:
                    fleet.register_fault_transport(faulty)
                outer = faulty
        coordinator = Coordinator(
            system,
            outer,
            serving_strategy(system, read_write),
            seed=streams.seed_for(f"shard.{shard.shard_id}.coordinator"),
            timeout=timeout,
            max_attempts=max_attempts,
            hedge_spares=hedge_spares,
            lease_ttl=lease_ttl,
        )
        return ShardBackend(shard, replicas, outer, coordinator)

    return factory
