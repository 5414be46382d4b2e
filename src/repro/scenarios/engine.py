"""The declarative scenario engine: one chaos runner for every harness.

A scenario is data — a named :class:`~repro.runtime.faults.FaultSchedule`
(or a builder for one), a workload recipe (:class:`ChaosConfig`: op mix,
key skew, closed-loop or open-loop Poisson arrival, cache tier, hedging,
Byzantine knobs), the shared invariant set from
:mod:`repro.scenarios.invariants`, and :class:`~repro.scenarios.slo.
SloTargets` — executed by :func:`run_chaos` over the unmodified service
stack and scored into a versioned JSON scorecard with bit-reproducible
trace hashes.  :mod:`repro.service` resolves :class:`ChaosConfig`,
:class:`ChaosReport` and :func:`run_chaos` from here lazily;
:mod:`repro.scenarios.library` defines the named SRE
incidents on top of it; the sharded analogue
(:mod:`repro.sharding.chaos`) shares the invariant registry and
scorecard helpers.

:func:`run_chaos` builds the stack, drives its op plan through the
shared workload driver (:mod:`repro.runtime.driver`: one op at a time
in the closed loop, Poisson arrivals in the open loop, the fault tick
advanced in the driver's synchronous ``start`` hook) and then audits.
Each op appends an invoke and a return record to the run's
:class:`~repro.scenarios.history.History` and records nothing else;
the counts, SLO samples, trace and read expectations come from one
replay of it.  The audits check safety invariants over that history
and the replicas (see :data:`~repro.scenarios.invariants.INVARIANTS`
for the contracts): acked-write-durable, no-stale-unflagged-read,
version-integrity and replica-ts-monotone always; the three Byzantine
invariants when ``byzantine_liars > 0``.  On top, the engine measures
availability under the schedule's iid crash component against the
*exact* failure probability ``F_p`` from :mod:`repro.analysis` —
closing the loop between the paper's §4.3/§6 numbers and served
traffic — and, when SLO targets are given, scores the run's error
budget through :func:`~repro.scenarios.slo.slo_report`.

Clocks (``mode=``)
------------------
Both modes run the same unmodified coordinator/replica stack over
:class:`~repro.service.simtransport.SimTransport`, the service's one
in-memory substrate; they differ only in the clock.

``"sim"`` (the default)
    A :class:`~repro.runtime.clock.VirtualTimeLoop`: latencies, timeouts
    and backoffs *elapse* in virtual time, the run is bit-reproducible
    (the report carries trace and metrics hashes to prove it), and a
    whole run costs milliseconds of wall clock.
``"wall"``
    A real clock and event loop — every sampled latency is really
    slept.  The same fault schedule, op plan and RNG draws as
    ``"sim"``; outcomes agree only where no loop timer races a
    delivery.  The default config lands on the same hashes, but under
    deferred hedging a wall-clock deadline can fire before a delivery
    due at the same virtual instant, so hedge counts (and the metrics
    hash) differ.  Exists as the honest wall-clock baseline the
    ``--sim`` speedup is measured against.

All randomness is drawn from named :class:`~repro.runtime.rng.RngStreams`
(``chaos.transport``, ``chaos.schedule``, ``chaos.plan``,
``chaos.faults.<client>``, ``chaos.coordinator.<client>``,
``chaos.warmup``, ``chaos.byzantine``, plus ``chaos.arrivals`` for
open-loop runs), so every component owns an independent stream derived
from the one root seed — and turning a feature *on* never shifts the
draws of a run that leaves it off.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from ..analysis.availability import availability_comparison
from ..analysis.capacity import serving_strategy
from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from ..core.rwstrategy import PathStrategy
from ..runtime.clock import Clock, VirtualClock, WallClock, run_on
from ..runtime.driver import (
    arrival_summary,
    drive,
    key_weights,
    op_plan,
    poisson_arrivals,
)
from ..runtime.faults import (
    BYZANTINE_MODES,
    ByzantineFault,
    FaultSchedule,
    Window,
    split_brain_schedule,
)
from ..runtime.rng import RngStreams
from ..service.cache import CoordinatorCache
from ..service.coordinator import Coordinator, OperationFailed
from ..service.faults import FaultyTransport, injected_totals
from ..service.metrics import ServiceMetrics
from ..service.replica import make_replicas
from ..service.simtransport import SimTransport
from .history import History, Journals, Op, Replay
from .invariants import (
    BYZANTINE_INVARIANTS,
    CORE_INVARIANTS,
    audit_durability,
    audit_lie_detection,
    audit_lie_suspicion,
    audit_monotone,
    check_fabricated_read,
    check_fresh_read,
    check_version_integrity,
)
from .scorecard import SCORECARD_VERSION, digest, invariants_block
from .slo import SloTargets, slo_report

#: Chaos clocks: virtual time on SimTransport, or the wall clock.
CHAOS_MODES = ("sim", "wall")

_ARRIVALS = ("closed", "poisson")

#: The outcome counters a chaos report always carries.
CHAOS_COUNTS = (
    "reads_ok",
    "reads_degraded",
    "reads_failed",
    "writes_ok",
    "writes_failed",
    "preloads",
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "Scenario",
    "run_chaos",
    "run_scenario",
]


@dataclass
class ChaosConfig:
    """Shape of one chaos run (the scenario's workload recipe)."""

    ops: int = 400
    read_fraction: float = 0.6
    keys: int = 8
    clients: int = 2
    crash_rate: float = 0.15
    epoch: int = 25  # ticks per iid crash epoch
    timeout: float = 50.0
    max_attempts: int = 4
    suspicion_ttl: int = 15
    breaker_threshold: int = 3
    breaker_cooldown: int = 30
    degraded_reads: bool = True
    hinted_handoff: bool = True
    latency_spikes: int = 2
    drops: int = 2
    duplicates: int = 1
    flappers: int = 1
    partitions: int = 1
    hedge_spares: int = 0  # spare replicas per quorum phase (0 = off)
    hedge_delay_ms: float = 0.0  # defer spares this long (0 = upfront)
    unsafe_partial_writes: bool = False  # intentionally breaks intersection
    byzantine_b: int = 0  # masking parameter b: coordinators vote b+1 deep
    byzantine_liars: int = 0  # replicas turned into lying (Byzantine) faults
    byzantine_mode: str = "wrong_value"  # lie flavour, see BYZANTINE_MODES
    lease_ttl: int = 0  # quorum-lease lifetime in ops (0 = leases off)
    read_write: bool = False  # serve reads from the capacity-LP read family
    skew: float = 0.0  # zipf key popularity exponent (0 = uniform, legacy)
    arrival: str = "closed"  # "closed" | "poisson" (open-loop, sim/wall only)
    arrival_rate: float = 0.0  # poisson: mean ops per virtual second
    cache_ttl_ms: float = 0.0  # coordinator-side cache lease (0 = no cache)
    cache_swr_ms: float = 0.0  # stale-while-revalidate grace after the lease

    def validate(self) -> None:
        if self.ops < 1:
            raise ServiceError(f"chaos needs at least one op, got {self.ops}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ServiceError("read fraction must be in [0,1]")
        if self.keys < 1:
            raise ServiceError("need at least one key")
        if self.clients < 1:
            raise ServiceError("need at least one client")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ServiceError("crash rate must be in [0,1]")
        if self.epoch < 1:
            raise ServiceError("epoch must be >= 1 tick")
        if self.hedge_spares < 0:
            raise ServiceError("hedge_spares must be >= 0")
        if self.hedge_delay_ms < 0:
            raise ServiceError("hedge_delay_ms must be >= 0")
        if self.unsafe_partial_writes and self.clients < 2:
            raise ServiceError(
                "split-brain demonstration needs at least two clients"
            )
        if self.byzantine_b < 0:
            raise ServiceError("byzantine_b must be >= 0")
        if self.byzantine_liars < 0:
            raise ServiceError("byzantine_liars must be >= 0")
        if self.byzantine_mode not in BYZANTINE_MODES:
            raise ServiceError(
                f"unknown byzantine mode {self.byzantine_mode!r};"
                f" pick one of {BYZANTINE_MODES}"
            )
        if self.lease_ttl < 0:
            raise ServiceError("lease_ttl must be >= 0")
        if self.skew < 0:
            raise ServiceError("skew must be >= 0")
        if self.arrival not in _ARRIVALS:
            raise ServiceError(
                f"unknown arrival mode {self.arrival!r};"
                f" pick one of {_ARRIVALS}"
            )
        if self.arrival == "poisson" and self.arrival_rate <= 0:
            raise ServiceError(
                "poisson arrival needs arrival_rate > 0 (ops per second)"
            )
        if self.arrival_rate < 0:
            raise ServiceError("arrival_rate must be >= 0")
        if self.cache_ttl_ms < 0 or self.cache_swr_ms < 0:
            raise ServiceError("cache ttl/swr must be >= 0")
        if self.cache_swr_ms > 0 and self.cache_ttl_ms <= 0:
            raise ServiceError(
                "cache_swr_ms needs a positive cache_ttl_ms lease"
            )


@dataclass
class ChaosReport:
    """Everything one chaos run produced, JSON-exportable and seed-stable."""

    system_name: str
    n: int
    seed: int
    config: ChaosConfig
    schedule: FaultSchedule
    injected: Dict[str, int]
    operations: Dict[str, int]
    availability: Dict[str, float]
    history: History
    violations: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Optional[ServiceMetrics] = None
    mode: str = "sim"
    hashes: Dict[str, str] = field(default_factory=dict)
    byzantine_replicas: List[int] = field(default_factory=list)
    slo: Optional[Dict[str, Any]] = None  # slo_report block (targets given)
    arrival: Optional[Dict[str, Any]] = None  # open-loop arrival accounting
    cache: Optional[Dict[str, Any]] = None  # cache tier snapshot (if enabled)
    # Wall-clock duration of the run; NOT in to_dict() — the snapshot
    # must stay bit-identical for identical seeds.
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every safety invariant held."""
        return not self.violations

    @property
    def violation_counts(self) -> Dict[str, int]:
        """Violations grouped per invariant (the scorecard histogram)."""
        from .scorecard import violation_counts

        return violation_counts(self.violations)

    @property
    def trace(self) -> List[Dict[str, Any]]:
        """One row per op in return order, rendered from :attr:`history`."""
        return self.history.replay(trace_row).trace

    def to_dict(self) -> Dict[str, Any]:
        checked = list(CORE_INVARIANTS)
        if self.byzantine_replicas:
            checked += list(BYZANTINE_INVARIANTS)
        snapshot: Dict[str, Any] = {
            "system": self.system_name,
            "n": self.n,
            "seed": self.seed,
            "mode": self.mode,
            "config": asdict(self.config),
            "schedule": self.schedule.to_dict(),
            "byzantine_replicas": list(self.byzantine_replicas),
            "faults_injected": dict(sorted(self.injected.items())),
            "operations": dict(sorted(self.operations.items())),
            "availability": dict(sorted(self.availability.items())),
            "hashes": dict(sorted(self.hashes.items())),
            "invariants": invariants_block(checked, self.violations),
        }
        if self.metrics is not None:
            snapshot["metrics"] = self.metrics.to_dict()
        if self.slo is not None:
            snapshot["slo"] = self.slo
        if self.arrival is not None:
            snapshot["arrival"] = self.arrival
        if self.cache is not None:
            snapshot["cache"] = self.cache
        return snapshot


def chaos_clock(mode: str) -> Clock:
    """The clock of a chaos run in ``mode``, one of :data:`CHAOS_MODES`."""
    if mode not in CHAOS_MODES:
        raise ServiceError(f"unknown chaos mode {mode!r}; pick one of {CHAOS_MODES}")
    return VirtualClock() if mode == "sim" else WallClock()


def trace_row(record: Op) -> Dict[str, Any]:
    """One op of the chaos trace, in its pinned shape."""
    ts = record.ts
    return {
        "op": record.op,
        "client": record.client,
        "kind": record.kind,
        "key": record.key,
        "outcome": record.outcome,
        "ts": list(ts) if ts is not None else None,
    }


def run_chaos(
    system: QuorumSystem,
    *,
    seed: int = 0,
    config: Optional[ChaosConfig] = None,
    schedule: Optional[FaultSchedule] = None,
    strategy: Optional[PathStrategy] = None,
    mode: str = "sim",
    slo: Optional[SloTargets] = None,
) -> ChaosReport:
    """Run one seeded chaos scenario and check every safety invariant.

    A caller-provided ``schedule`` overrides the randomized one (the
    config's fault knobs are then ignored); ``unsafe_partial_writes``
    additionally appends a forced split-brain partition and disables the
    coordinators' full-quorum acknowledgement check — the intentionally
    intersection-breaking scenario that must be *detected*.

    ``mode`` selects the clock (see module docstring): ``"sim"``
    (virtual time) or ``"wall"`` (real time).  The same seed and config
    produce the same schedule, plan and draws in both.

    ``slo`` targets score the run's per-operation availability/latency
    samples into the report's error-budget block (``report.slo``).
    """
    clock = chaos_clock(mode)
    if config is None:
        config = ChaosConfig()
    config.validate()
    if strategy is None:
        # Split serving path under faults: reads come from the LP's
        # read-quorum family (small quorums!), writes from the matched
        # write family — the invariants below must hold regardless.
        # Voted reads need 2b+1-deep intersections.
        strategy = serving_strategy(
            system,
            config.read_fraction if config.read_write else None,
            2 * config.byzantine_b + 1,
        )

    streams = RngStreams(seed)
    ids = sorted(system.universe.ids)
    universe = frozenset(ids)

    replicas = make_replicas(system)
    journals = Journals()
    for replica in replicas:
        journals.attach(replica)
    inner = SimTransport(replicas, clock=clock, rng=streams.stream("chaos.transport"))

    if schedule is None:
        schedule = FaultSchedule.random(
            streams.stream("chaos.schedule"),
            ids,
            float(config.ops),
            crash_rate=config.crash_rate,
            epoch=float(config.epoch),
            latency_spikes=config.latency_spikes,
            drops=config.drops,
            duplicates=config.duplicates,
            flappers=config.flappers,
            partitions=config.partitions,
            sites=min(config.clients, 2),
        )
    if config.unsafe_partial_writes:
        window = Window(config.ops * 0.25, config.ops * 0.75)
        schedule = schedule.extended(split_brain_schedule(ids, window))

    # Byzantine liars: drawn from their own named stream (so turning them
    # on never shifts the crash/partition schedule), lying for the whole
    # run.  Which replies actually lie is then a pure function of the
    # schedule — FaultyTransport burns no extra coins on it.
    byz_replicas: List[int] = []
    if config.byzantine_liars > 0:
        if config.byzantine_liars > len(ids):
            raise ServiceError(
                f"cannot pick {config.byzantine_liars} liars from"
                f" {len(ids)} replicas"
            )
        byz_rng = streams.stream("chaos.byzantine")
        byz_replicas = sorted(
            int(rid)
            for rid in byz_rng.choice(ids, size=config.byzantine_liars, replace=False)
        )
        schedule = schedule.extended(
            [
                ByzantineFault(
                    frozenset(byz_replicas),
                    Window(0.0),
                    mode=config.byzantine_mode,
                )
            ]
        )

    # Open-loop arrival times, drawn from their own named stream so
    # closed-loop runs burn no extra coins.
    arrivals = None
    if config.arrival == "poisson":
        arrivals = poisson_arrivals(
            streams.stream("chaos.arrivals"), config.ops, config.arrival_rate
        )

    # One registry shared by every client's wrapper: the fabricated-read
    # invariant must recognise a lie no matter which liar told it to whom.
    fabricated: set = set()
    transports = [
        FaultyTransport(
            inner,
            schedule,
            seed=streams.seed_for(f"chaos.faults.{client}"),
            site=client % 2,
            fabricated_registry=fabricated,
        )
        for client in range(config.clients)
    ]
    metrics = ServiceMetrics(system.n)
    coordinators = [
        Coordinator(
            system,
            transports[client],
            strategy,
            coordinator_id=client,
            seed=streams.seed_for(f"chaos.coordinator.{client}"),
            timeout=config.timeout,
            max_attempts=config.max_attempts,
            suspicion_ttl=config.suspicion_ttl,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            degraded_reads=config.degraded_reads,
            hinted_handoff=config.hinted_handoff,
            hedge_spares=config.hedge_spares,
            hedge_delay_ms=config.hedge_delay_ms,
            require_full_quorum=not config.unsafe_partial_writes,
            byzantine_b=config.byzantine_b,
            lease_ttl=config.lease_ttl,
            metrics=metrics,
        )
        for client in range(config.clients)
    ]
    # ``skew > 0`` draws keys from the power-law popularity; ``skew = 0``
    # keeps the uniform integer draws, so existing seeds replay identically.
    keys = [f"k{index:03d}" for index in range(config.keys)]
    plan = op_plan(
        streams.stream("chaos.plan"),
        keys,
        ops=config.ops,
        read_fraction=config.read_fraction,
        weights=key_weights(config.keys, config.skew) if config.skew > 0 else None,
    )

    # The shared cache tier (one pool for every client, like one edge
    # cache in front of many app servers).
    cache: Optional[CoordinatorCache] = None
    if config.cache_ttl_ms > 0:
        cache = CoordinatorCache(
            clock, ttl_ms=config.cache_ttl_ms, swr_ms=config.cache_swr_ms
        )

    history = History(clock)
    refresh_tasks: List["asyncio.Task"] = []

    def spawn_refresh(client: int, key: str) -> None:
        # Stale-while-revalidate: the grace-window serve already went
        # out; refresh the entry through a real quorum read, single-
        # flight per key so a stampede of stale hits dedups to one read.
        assert cache is not None
        if not cache.begin_refresh(key):
            return

        async def _refresh() -> None:
            ok = False
            try:
                result = await coordinators[client].read(key)
            except OperationFailed:
                pass
            else:
                if not result.stale:
                    cache.store(key, result.value, result.counter, result.writer)
                    ok = True
            finally:
                cache.end_refresh(key, ok=ok)

        refresh_tasks.append(asyncio.ensure_future(_refresh()))

    def serve_cached(call: Op) -> bool:
        """Serve a read from the cache tier if it can; True when served."""
        assert cache is not None
        state, entry = cache.lookup(call.key)
        if entry is None:
            return False
        stale = state == "stale"
        if stale:
            spawn_refresh(call.client, call.key)
        history.settle(
            call,
            "degraded" if stale else "ok",
            (entry.counter, entry.writer),
            value=entry.value,
            stale=stale,
            cached=True,
        )
        return True

    async def run_op(index: int, client: int, kind: str, key: str) -> None:
        coordinator = coordinators[client]
        if kind == "write":
            value = f"v{index}-c{client}"
            # The timestamp is determined before the attempt (clock+1),
            # so even a failed write's partially-applied version is a
            # known, legal version for later reads to return.  No await
            # separates this from write()'s clock bump, so the stamp is
            # exact even when operations overlap under open-loop arrival.
            call = history.invoke(index, client, kind, key, value, coordinator.clock + 1)
            try:
                ack = await coordinator.write(key, value)
            except OperationFailed as exc:
                history.settle(call, "failed", latency=exc.latency)
                return
            if cache is not None:
                # Write-through (newest-wins): the shared pool never
                # serves an entry older than an acknowledged write.
                cache.store(key, value, ack.counter, ack.writer)
            history.settle(call, "ok", (ack.counter, ack.writer), latency=ack.latency)
            return
        # Invoked before the first await, so the read's freshness
        # expectation excludes writes that overlap it.
        call = history.invoke(index, client, kind, key)
        if cache is not None and serve_cached(call):
            return
        try:
            result = await coordinator.read(key)
        except OperationFailed as exc:
            history.settle(call, "failed", latency=exc.latency)
            return
        if cache is not None and not result.stale:
            # Only unflagged quorum results may (re)fill the cache: a
            # degraded read carries no freshness claim for later
            # unflagged hits to inherit.
            cache.store(key, result.value, result.counter, result.writer)
        history.settle(
            call,
            "degraded" if result.stale else "ok",
            (result.counter, result.writer),
            value=result.value,
            stale=result.stale,
            latency=result.latency,
        )

    def start(index: int, worker: int) -> Awaitable[None]:
        # Fault ticks advance with the op index, monotonically, before
        # the op's first await — in both the closed and the open loop.
        for transport in transports:
            transport.clock = float(index)
        kind, key = plan[index]
        return run_op(index, index % config.clients, kind, key)

    async def _run() -> Optional[Dict[str, Any]]:
        # Preload every key through the fault-free inner transport so each
        # key has an acknowledged baseline version.
        warmup = Coordinator(
            system,
            inner,
            strategy,
            coordinator_id=config.clients,
            seed=streams.seed_for("chaos.warmup"),
            timeout=10_000.0,
            max_attempts=6,
            metrics=ServiceMetrics(system.n),
        )
        for key_index, key in enumerate(keys):
            value = f"preload-{key_index}"
            call = history.invoke(
                None, warmup.coordinator_id, "preload", key, value, warmup.clock + 1
            )
            ack = await warmup.write(key, value)
            history.settle(call, "ok", (ack.counter, ack.writer), latency=ack.latency)
            if cache is not None:
                # Every lease starts at the same instant — the mass-
                # expiry setup the cache-avalanche incident relies on.
                cache.store(key, value, ack.counter, ack.writer)

        # One op at a time in the closed loop; open-loop ops overlap.
        elapsed_ms, max_lag = await drive(
            config.ops, start, workers=1, clock=clock, arrivals=arrivals
        )
        if refresh_tasks:
            await asyncio.gather(*refresh_tasks)
        # Hedged phases may leave absorbed stragglers in flight; the
        # post-run invariants must see their effects (journal appends,
        # suspicion updates) — wait for them all.
        for coordinator in coordinators:
            await coordinator.drain()
        if arrivals is None:
            return None
        return arrival_summary(config.arrival_rate, config.ops, elapsed_ms, max_lag)

    started = time.perf_counter()
    arrival_info = run_on(clock, _run())
    elapsed = time.perf_counter() - started

    counts = CHAOS_COUNTS + (("reads_cached",) if cache is not None else ())
    replay = history.replay(trace_row, counts)
    violations: List[Dict[str, Any]] = []
    audit_reads(violations, replay, fabricated=fabricated)
    for key in sorted(replay.acked):
        expected, acked_value = replay.acked[key]
        audit_durability(
            violations, key=key, expected=expected, acked_value=acked_value, replicas=replicas
        )
    for _, rid, journal in journals.entries:
        audit_monotone(violations, journal, replica=rid)
    if byz_replicas:
        audit_lie_detection(
            violations,
            coordinators=coordinators,
            liars=byz_replicas,
            budget=config.byzantine_b,
        )
        audit_lie_suspicion(violations, coordinators=coordinators)

    # ------------------------------------------------------------------
    # Availability: measured under the schedule's iid crash component vs
    # the exact failure probability of the same model.
    # ------------------------------------------------------------------
    alive_ticks = int(
        system.contains_quorum_many(
            [universe - schedule.crash_down_at(float(tick)) for tick in range(config.ops)]
        ).sum()
    )
    availability = availability_comparison(
        system, config.crash_rate, alive_ticks / config.ops
    )
    availability["op_success_rate"] = metrics.success_rate

    return ChaosReport(
        system_name=system.system_name,
        n=system.n,
        seed=seed,
        config=config,
        schedule=schedule,
        injected=injected_totals(transports),
        operations=replay.counts,
        availability=availability,
        history=history,
        violations=violations,
        metrics=metrics,
        mode=mode,
        hashes={"trace": digest(replay.trace), "metrics": digest(metrics.to_dict())},
        byzantine_replicas=byz_replicas,
        slo=slo_report(replay.samples, slo) if slo is not None else None,
        arrival=arrival_info,
        cache=cache.snapshot() if cache is not None else None,
        elapsed_seconds=elapsed,
    )


def audit_reads(
    violations: List[Dict[str, Any]], replay: Replay, *, fabricated: Set[Any]
) -> None:
    """The read-time invariants over every successful read, in return
    order, against the final registries.

    The final registries answer as the ones at read time would: a read
    can only return a version some write request carried, and that
    write's stamp was registered at its invoke, before the request
    existed; a fabricated value carries the ``zzz-byz:`` prefix that no
    honest write produces.
    """
    for read, expected in replay.reads:
        where = {"op": read.op, "client": read.client, "key": read.key}
        timestamp, value = read.ts, read.value
        # Fabricated values are checked before the stale exemption on
        # purpose: a lie is a violation even when served flagged-stale.
        check_fabricated_read(
            violations, **where, value=value, timestamp=timestamp, fabricated=fabricated
        )
        check_version_integrity(
            violations, **where, value=value, timestamp=timestamp, issued_values=replay.issued
        )
        check_fresh_read(
            violations, **where, timestamp=timestamp, stale=read.stale, expected=expected
        )


# ----------------------------------------------------------------------
# Declarative scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, declarative incident: schedule + workload + SLO.

    ``schedule`` builds the fault schedule from the replica ids and the
    config (None keeps the engine's seeded randomized schedule, driven
    by the config's fault knobs).  ``expect_violations`` documents
    intentionally-unsafe demonstrations — the incident CLI and CI treat
    violations in such runs as the *expected* outcome.
    """

    name: str
    summary: str
    config: ChaosConfig
    slo: SloTargets
    system: str = "majority:5"
    schedule: Optional[
        Callable[[List[int], ChaosConfig], FaultSchedule]
    ] = None
    expect_violations: bool = False

    def describe(self) -> Dict[str, Any]:
        """The ``incident list`` row (no run required)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "system": self.system,
            "slo": self.slo.to_dict(),
            "expect_violations": self.expect_violations,
        }


def run_scenario(
    scenario: Scenario,
    *,
    seed: int = 0,
    mode: str = "sim",
    system_spec: Optional[str] = None,
    **overrides: Any,
) -> Tuple[ChaosReport, Dict[str, Any]]:
    """Execute one named scenario and build its versioned scorecard.

    ``system_spec`` overrides the scenario's default system (the CI
    matrix sweeps incidents across families this way); keyword
    ``overrides`` map onto :class:`ChaosConfig` fields (``ops=...``,
    ``clients=...``).  Returns ``(report, scorecard)`` where the
    scorecard is the report snapshot plus the scenario header — the
    JSON ``quorumtool incident run`` emits.
    """
    from ..cli import build_system

    spec = system_spec or scenario.system
    system = build_system(spec)
    config = replace(scenario.config, **overrides) if overrides else scenario.config
    schedule = None
    if scenario.schedule is not None:
        schedule = scenario.schedule(sorted(system.universe.ids), config)
    report = run_chaos(
        system,
        seed=seed,
        config=config,
        schedule=schedule,
        mode=mode,
        slo=scenario.slo,
    )
    scorecard: Dict[str, Any] = {
        "scorecard_version": SCORECARD_VERSION,
        "scenario": scenario.name,
        "summary": scenario.summary,
        "expect_violations": scenario.expect_violations,
    }
    scorecard.update(report.to_dict())
    return report, scorecard
