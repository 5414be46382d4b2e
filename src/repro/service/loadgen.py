"""Workload generator for the KV service: closed-loop and open-loop.

Drives a fleet of concurrent coordinator clients through a configurable
read/write mix with power-law key skew, injecting iid crash epochs, and
reports observed metrics next to the strategy's analytic predictions —
the end-to-end demonstration of the paper's load results: run
``quorumtool kvbench majority:15`` and ``quorumtool kvbench h-triang:15``
and watch the busiest element serve half the traffic under majority but
only a third under the hierarchical triangle.

The whole benchmark is deterministic in memory: the operation plan is
precomputed from the seed, message latencies and crash epochs come from
seeded RNGs, and :class:`~repro.service.simtransport.SimTransport`
spends every latency in virtual time under
:func:`~repro.runtime.clock.run_virtual`, so replies land in latency
order and nothing blocks on real I/O.

The plan and both arrival models come from the shared workload driver
(:mod:`repro.runtime.driver`), selected by ``WorkloadConfig.arrival``:
the **closed loop** (``clients`` concurrent clients, each issuing its
next operation when the previous one finishes) and the **open loop**
(``"poisson"``: operations fire at seeded Poisson arrival instants on
the transport's clock regardless of in-flight work).  The open loop
needs a clocked transport — under
:class:`~repro.runtime.clock.VirtualClock`, kvbench's own substrate, it
sustains the configured rate exactly.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.capacity import serving_strategy
from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from ..core.rwstrategy import PathStrategy, ReadWriteStrategy
from ..runtime.clock import VirtualClock, run_virtual
from ..runtime.driver import (
    arrival_summary,
    drive,
    key_weights,
    op_plan,
    poisson_arrivals,
)
from ..runtime.rng import RngStreams
from .coordinator import Coordinator, OperationFailed
from .metrics import ServiceMetrics, transport_summary
from .replica import make_replicas
from .simtransport import SimTransport
from .transport import (
    DEFAULT_TIMEOUT_MS,
    BinaryTcpTransport,
    Transport,
    start_tcp_replicas,
)


@dataclass
class WorkloadConfig:
    """Shape of the generated workload."""

    ops: int = 1000
    read_fraction: float = 0.9
    keys: int = 64
    skew: float = 0.8  # key popularity ~ 1/rank^skew (0 = uniform)
    clients: int = 4
    crash_rate: float = 0.0
    ops_per_epoch: int = 50  # crash-set resample cadence
    timeout: float = DEFAULT_TIMEOUT_MS
    hedge_spares: int = 0  # spare replicas contacted beyond each quorum
    hedge_delay_ms: float = 0.0  # defer spares until this delay elapses (0=upfront)
    read_repair: bool = True  # rewrite stale members during reads
    arrival: str = "closed"  # "closed" | "poisson" (open loop, clocked only)
    arrival_rate: float = 0.0  # poisson: mean ops per (virtual) second

    def validate(self) -> None:
        if self.ops < 0:
            raise ServiceError(f"ops must be >= 0, got {self.ops}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ServiceError("read fraction must be in [0,1]")
        if self.keys <= 0:
            raise ServiceError("need at least one key")
        if self.skew < 0:
            raise ServiceError("skew must be >= 0")
        if self.clients <= 0:
            raise ServiceError("need at least one client")
        if self.ops_per_epoch <= 0:
            raise ServiceError("ops_per_epoch must be positive")
        if self.hedge_spares < 0:
            raise ServiceError("hedge_spares must be >= 0")
        if self.hedge_delay_ms < 0:
            raise ServiceError("hedge_delay_ms must be >= 0")
        if self.arrival not in ("closed", "poisson"):
            raise ServiceError(
                f"unknown arrival mode {self.arrival!r};"
                " pick 'closed' or 'poisson'"
            )
        if self.arrival == "poisson" and self.arrival_rate <= 0:
            raise ServiceError(
                "poisson arrival needs arrival_rate > 0 (ops per second)"
            )
        if self.arrival_rate < 0:
            raise ServiceError("arrival_rate must be >= 0")


@dataclass
class BenchmarkReport:
    """Everything a benchmark run produced, JSON-exportable."""

    system_name: str
    n: int
    seed: int
    config: WorkloadConfig
    metrics: ServiceMetrics
    predicted_loads: np.ndarray
    lp_load: float
    element_names: List[Any] = field(default_factory=list)
    read_write: bool = False  # strategy was a split read/write pair
    predicted_capacity: Optional[float] = None  # LP ops/s prediction (capacity runs)
    # Wall-clock timing and transport counters live outside to_dict():
    # the determinism tests require to_dict() to be bit-identical for
    # identical seeds, and elapsed time never is.
    elapsed_seconds: float = 0.0
    transport_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def observed_loads(self) -> np.ndarray:
        return self.metrics.observed_loads()

    def load_deviation(self) -> Dict[str, float]:
        """Observed vs strategy-predicted per-element load summary."""
        return self.metrics.load_deviation(self.predicted_loads)

    def to_dict(self) -> Dict[str, Any]:
        snapshot = self.metrics.to_dict(predicted=self.predicted_loads)
        snapshot.update(
            {
                "system": self.system_name,
                "seed": self.seed,
                "lp_load": self.lp_load,
                "read_write": self.read_write,
                "predicted_capacity": self.predicted_capacity,
                "config": {
                    "ops": self.config.ops,
                    "read_fraction": self.config.read_fraction,
                    "keys": self.config.keys,
                    "skew": self.config.skew,
                    "clients": self.config.clients,
                    "crash_rate": self.config.crash_rate,
                    "ops_per_epoch": self.config.ops_per_epoch,
                    "hedge_spares": self.config.hedge_spares,
                    "hedge_delay_ms": self.config.hedge_delay_ms,
                    "read_repair": self.config.read_repair,
                    "arrival": self.config.arrival,
                    "arrival_rate": self.config.arrival_rate,
                },
            }
        )
        # Scorecard consistency: every quorumtool JSON scorecard carries
        # the same invariants block shape.  The benchmark audits nothing,
        # so the checked list is empty and ok is trivially True.
        # (Imported lazily: repro.scenarios.engine imports this module.)
        from ..scenarios.scorecard import invariants_block

        snapshot["invariants"] = invariants_block((), [])
        return snapshot

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.metrics.ops_attempted / self.elapsed_seconds

    @property
    def ops_per_virtual_second(self) -> float:
        """Throughput over the measured section's virtual time (0 under
        wall clocks)."""
        virtual_ms = self.metrics.virtual_elapsed_ms
        if virtual_ms <= 0.0:
            return 0.0
        return self.metrics.ops_attempted / (virtual_ms / 1000.0)

    def perf_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` plus the non-deterministic perf numbers
        (wall-clock, throughput, transport counters) for ``--json-out``
        and the perf-regression harness."""
        snapshot = self.to_dict()
        snapshot["perf"] = {
            "elapsed_seconds": self.elapsed_seconds,
            "ops_per_second": self.ops_per_second,
            "transport": dict(self.transport_stats),
        }
        return snapshot


async def run_workload(
    system: QuorumSystem,
    transport: Transport,
    strategy: PathStrategy,
    config: WorkloadConfig,
    *,
    seed: int = 0,
    metrics: Optional[ServiceMetrics] = None,
) -> ServiceMetrics:
    """Run the workload against an existing transport.

    ``clients`` coordinators share one metrics sink and run one op plan,
    precomputed from the seed, through :func:`~repro.runtime.driver.drive`
    — a closed loop, or the open Poisson loop on the transport's clock.
    Every key is written once before the measured run; crash epochs are
    resampled every ``ops_per_epoch`` operations when the transport
    supports injection.  ``strategy`` may be a plain :class:`Strategy`
    or a split :class:`~repro.core.rwstrategy.ReadWriteStrategy` — the
    coordinators route reads and writes through the matching
    distribution either way.
    """
    config.validate()
    metrics = metrics if metrics is not None else ServiceMetrics(system.n)
    # Named runtime streams: the plan, every client and the warmup
    # coordinator each own an independent stream derived from the root
    # seed — adding a client can never shift another component's draws.
    streams = RngStreams(seed)
    keys = [f"k{index:04d}" for index in range(config.keys)]
    schedule = op_plan(
        streams.stream("loadgen.schedule"),
        keys,
        ops=config.ops,
        read_fraction=config.read_fraction,
        weights=key_weights(config.keys, config.skew),
    )
    coordinators = [
        Coordinator(
            system,
            transport,
            strategy,
            coordinator_id=client,
            seed=streams.seed_for(f"loadgen.client.{client}"),
            timeout=config.timeout,
            hedge_spares=config.hedge_spares,
            hedge_delay_ms=config.hedge_delay_ms,
            read_repair=config.read_repair,
            metrics=metrics,
        )
        for client in range(config.clients)
    ]

    warmup = Coordinator(
        system,
        transport,
        strategy,
        coordinator_id=config.clients,
        seed=streams.seed_for("loadgen.warmup"),
        timeout=config.timeout,
        metrics=ServiceMetrics(system.n),  # warmup not counted
    )
    for key in keys:
        await warmup.write(key, None)
    await warmup.drain()

    can_inject = config.crash_rate > 0 and hasattr(transport, "resample_crashes")

    async def run_op(index: int, client: int) -> None:
        if can_inject and index % config.ops_per_epoch == 0:
            transport.resample_crashes()
        kind, key = schedule[index]
        coordinator = coordinators[client]
        try:
            if kind == "read":
                await coordinator.read(key)
            else:
                await coordinator.write(key, f"v{index}")
        except OperationFailed:
            pass  # already counted in metrics

    # When the transport runs on a clock (SimTransport under run_virtual
    # or a wall clock) the open loop paces against it, and simulated
    # elapsed time is recorded so throughput can be compared against
    # the LP capacity prediction deterministically.  FaultyTransport
    # exposes a float ``clock`` attribute; only a Clock object with a
    # callable ``now`` counts here.
    sim_clock = getattr(transport, "clock", None)
    if not callable(getattr(sim_clock, "now", None)):
        sim_clock = None
    # Arrival times come from their own named stream, so closed-loop
    # runs burn no extra draws.
    arrivals = None
    if config.arrival == "poisson":
        arrivals = poisson_arrivals(
            streams.stream("loadgen.arrivals"), config.ops, config.arrival_rate
        )

    started = time.perf_counter()
    vstarted = sim_clock.now() if sim_clock is not None else 0.0
    elapsed_ms, max_lag = await drive(
        config.ops, run_op, workers=config.clients, clock=sim_clock, arrivals=arrivals
    )
    if arrivals is not None:
        # Plain attributes (like elapsed_seconds): the arrival accounting
        # is reported next to the metrics, not inside to_dict().
        metrics.arrival = arrival_summary(
            config.arrival_rate, config.ops, elapsed_ms, max_lag
        )
    # Hedged phases may leave absorbed stragglers in flight; wait for
    # them so the transport can be torn down cleanly and the straggler
    # histogram is complete.
    await asyncio.gather(*(c.drain() for c in coordinators))
    # Wall-clock for the measured ops only (dialing and preload excluded);
    # stored as a plain attribute so to_dict() stays seed-deterministic.
    metrics.elapsed_seconds = time.perf_counter() - started
    if sim_clock is not None:
        metrics.virtual_elapsed_ms = sim_clock.now() - vstarted
    return metrics


def run_kv_benchmark(
    system: QuorumSystem,
    *,
    seed: int = 0,
    strategy: Optional[PathStrategy] = None,
    read_write: bool = False,
    transport: Optional[Transport] = None,
    config: Optional[WorkloadConfig] = None,
    tcp_local: bool = False,
    workers: int = 0,
    use_uvloop: bool = False,
    **overrides: Any,
) -> BenchmarkReport:
    """One-call benchmark: build the service, drive it, report loads.

    Keyword overrides map onto :class:`WorkloadConfig` fields, so
    ``run_kv_benchmark(sys, ops=5000, crash_rate=0.1)`` works.  When no
    transport is given, a :class:`~repro.service.simtransport.SimTransport`
    with the requested crash rate serves the run under virtual time
    (``metrics.virtual_elapsed_ms`` reports it; ``elapsed_seconds`` stays
    wall time).  A caller-supplied transport (e.g. TCP against live
    ``quorumtool serve`` replicas) is used as-is, under ``asyncio.run``.

    ``read_write=True`` solves the read/write capacity LP
    (:func:`repro.analysis.capacity.read_write_capacity`) at the
    workload's ``read_fraction`` and serves reads from the LP-optimal
    read distribution — the quoracle-style split serving path.  An
    explicit ``strategy`` (plain or :class:`ReadWriteStrategy`) always
    wins over the flag.

    ``tcp_local=True`` instead starts one localhost TCP server per
    replica inside the event loop and benchmarks over real sockets —
    the perf harness's end-to-end mode, always over the binary wire v2
    client (:class:`BinaryTcpTransport`).  ``workers=N``
    hosts the replicas in a :class:`~repro.service.cluster
    .ReplicaCluster` of N OS processes — built *before* the event loop
    starts, since forking under a running loop duplicates loop state —
    and ``use_uvloop=True`` installs uvloop (when importable) for both
    the client loop and the cluster workers.
    """
    if config is None:
        config = WorkloadConfig()
    for name, value in overrides.items():
        if not hasattr(config, name):
            raise ServiceError(f"unknown workload option {name!r}")
        setattr(config, name, value)
    config.validate()
    if tcp_local and transport is not None:
        raise ServiceError("tcp_local builds its own transport; do not pass one")
    if workers and not tcp_local:
        raise ServiceError("workers only apply to tcp_local mode")

    if strategy is None:
        strategy = serving_strategy(
            system, config.read_fraction if read_write else None
        )

    owns_transport = transport is None
    sim: Optional[SimTransport] = None
    if owns_transport and not tcp_local:
        sim = SimTransport(
            make_replicas(system),
            # Named stream: independent of the schedule/client RNGs.
            seed=RngStreams(seed).seed_for("loadgen.transport"),
            crash_rate=config.crash_rate,
        )

    cluster = None
    if tcp_local and workers > 0:
        from .cluster import ReplicaCluster

        cluster = ReplicaCluster(
            list(system.universe.ids),
            workers=workers,
            use_uvloop=use_uvloop,
        )
        cluster.start()

    if use_uvloop:
        from ..runtime.clock import install_uvloop

        install_uvloop()  # no-op (returns False) without the perf extra

    async def _run() -> Tuple[ServiceMetrics, Dict[str, Any]]:
        local = transport if transport is not None else sim
        servers: List[asyncio.AbstractServer] = []
        if local is None:
            if cluster is not None:
                addresses = cluster.addresses
            else:
                servers, addresses = await start_tcp_replicas(
                    make_replicas(system), base_port=0
                )
            local = BinaryTcpTransport(addresses)
        try:
            run_metrics = await run_workload(
                system, local, strategy, config, seed=seed
            )
        finally:
            if owns_transport:
                await local.close()
            for server in servers:
                server.close()
                await server.wait_closed()
        return run_metrics, transport_summary(local)

    started = time.perf_counter()
    try:
        if sim is not None:
            assert isinstance(sim.clock, VirtualClock)
            metrics, transport_stats = run_virtual(_run(), clock=sim.clock)
        else:
            metrics, transport_stats = asyncio.run(_run())
    finally:
        if cluster is not None:
            cluster.close()
    # Prefer the in-loop measurement (excludes dialing and preload);
    # fall back to the coarse wrapper time if a custom runner skipped it.
    elapsed = getattr(metrics, "elapsed_seconds", 0.0) or (
        time.perf_counter() - started
    )
    # For a split pair the predicted loads blend the read and write
    # distributions at the workload's read fraction (Section 2 of the
    # read/write LP docs); a plain strategy ignores the fraction.
    if isinstance(strategy, ReadWriteStrategy):
        predicted = strategy.element_loads(config.read_fraction)
        lp_load = strategy.induced_load(config.read_fraction)
        split = strategy.is_split
    else:
        predicted = strategy.element_loads()
        lp_load = strategy.induced_load()
        split = False
    return BenchmarkReport(
        system_name=system.system_name,
        n=system.n,
        seed=seed,
        config=config,
        metrics=metrics,
        predicted_loads=predicted,
        lp_load=lp_load,
        element_names=list(system.universe.names),
        read_write=split,
        # Relative LP capacity (1/load): the throughput multiple this
        # strategy admits over a single element's service rate.
        predicted_capacity=(1.0 / lp_load) if lp_load > 0 else None,
        elapsed_seconds=elapsed,
        transport_stats=transport_stats,
    )


def run_capacity_benchmark(
    system: QuorumSystem,
    *,
    strategy: Optional[PathStrategy] = None,
    read_write: bool = True,
    seed: int = 0,
    read_fraction: float = 0.9,
    ops: int = 600,
    keys: int = 128,
    skew: float = 0.6,
    clients: int = 24,
    service_time_ms: float = 2.0,
    base_latency: float = 0.1,
    mean_latency: float = 0.3,
    timeout: float = DEFAULT_TIMEOUT_MS,
) -> Dict[str, Any]:
    """Measure saturated throughput in virtual time vs the LP prediction.

    The service runs under a :class:`~repro.runtime.clock.VirtualClock`
    over a :class:`~repro.service.simtransport.SimTransport` whose
    replicas are FIFO servers with ``service_time_ms`` per request —
    each replica has a hard capacity of ``1000/service_time_ms`` ops/s.
    A closed loop of ``clients`` concurrent clients saturates the
    system, so observed throughput approaches the capacity the strategy
    admits; the LP prediction is ``node_rate / induced_load``.

    ``read_write=True`` (the default) solves the read/write capacity LP
    at ``read_fraction`` and serves reads from the optimal read-quorum
    distribution; ``read_write=False`` benchmarks the unified
    write-legal optimum — the baseline the split is gated against.
    ``read_repair`` is off in this mode: repair writes are outside the
    LP's traffic model, and safety is unaffected because every read
    quorum still intersects every write quorum.

    Returns a JSON-ready dict with observed and predicted ops per
    virtual second, their ratio, the LP load, and per-path loads.
    """
    if strategy is None:
        strategy = serving_strategy(system, read_fraction if read_write else None)

    if isinstance(strategy, ReadWriteStrategy):
        lp_load = strategy.induced_load(read_fraction)
        split = strategy.is_split
    else:
        lp_load = strategy.induced_load()
        split = False

    config = WorkloadConfig(
        ops=ops,
        read_fraction=read_fraction,
        keys=keys,
        skew=skew,
        clients=clients,
        timeout=timeout,
        read_repair=False,
    )

    clock = VirtualClock()
    transport = SimTransport(
        make_replicas(system),
        clock=clock,
        seed=RngStreams(seed).seed_for("loadgen.transport"),
        base_latency=base_latency,
        mean_latency=mean_latency,
        service_time_ms=service_time_ms,
    )

    async def _run() -> ServiceMetrics:
        try:
            return await run_workload(
                system, transport, strategy, config, seed=seed
            )
        finally:
            await transport.close()

    metrics = run_virtual(_run(), clock=clock)

    node_rate = 1000.0 / service_time_ms  # per-replica ops per second
    predicted = node_rate / lp_load if lp_load > 0 else 0.0
    elapsed_s = metrics.virtual_elapsed_ms / 1000.0
    observed = metrics.ops_succeeded / elapsed_s if elapsed_s > 0 else 0.0
    return {
        "system": system.system_name,
        "n": system.n,
        "seed": seed,
        "read_write": split,
        "read_fraction": read_fraction,
        "service_time_ms": service_time_ms,
        "clients": clients,
        "ops": ops,
        "lp_load": lp_load,
        "predicted_ops_per_sec": predicted,
        "observed_ops_per_sec": observed,
        "observed_over_predicted": (observed / predicted) if predicted else 0.0,
        "virtual_elapsed_ms": metrics.virtual_elapsed_ms,
        "ops_succeeded": metrics.ops_succeeded,
        "ops_failed": metrics.ops_failed,
        "path_loads": {
            path: metrics.observed_path_loads(path).tolist()
            for path in ("read", "write")
        },
    }
