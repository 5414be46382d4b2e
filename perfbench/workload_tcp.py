"""The binary-TCP workloads, ``tcp-read95`` and ``tcp-write50``.

One process, one OS thread, one benchmark-owned event loop: the replica
servers run in-loop (``start_tcp_replicas`` with ``workers=0``) and
``CLIENTS`` closed-loop client coroutines, each with its own
``Coordinator``, share one ``BinaryTcpTransport``.  Each client waits
for its reply before sending the next op.  Keys follow a zipf
popularity over ``KEYS`` preloaded keys; every client's op stream comes
from the ``--seed`` argument alone.

Every written value names its own version (counter, writer, key), so
each read is checked on the fly, without a history: it must be at least
as new as the newest write acknowledged before it was issued, and carry
exactly the value written at the version it reports.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis.capacity import read_write_capacity
from repro.analysis.load import optimal_strategy
from repro.cli import build_system
from repro.service import (
    BinaryTcpTransport,
    Coordinator,
    InProcessTransport,
    OperationFailed,
    ServiceMetrics,
    make_replicas,
    start_tcp_replicas,
)

from common import Latencies, Result, latency_metrics, layer_metrics, median, peak_rss_mb
from hostspeed import HostSpeed, at_reference
from layers import LoopMeter, Tracer, install_program_tracing

CLIENTS = 8
KEYS = 1024
ZIPF_EXPONENT = 0.8
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
WARMUP_S = 1.0
#: Generous per-request deadline: a stalled host must not turn into
#: timeouts, retries and failed ops.
TIMEOUT_MS = 1000.0
#: Concurrent writes while preloading, and reads in the final check.
BATCH = 64
#: Ops per client in the in-process replay of the traced pass.
INPROC_OPS_PER_CLIENT = 1000
_OPS_CHUNK = 4096


@dataclass(frozen=True)
class TcpWorkload:
    spec: str
    read_fraction: float
    #: True: the capacity LP's read/write split at ``read_fraction``;
    #: False: the unified load-optimal strategy.
    split: bool
    value_bytes: int


WORKLOADS = {
    "tcp-read95": TcpWorkload("htgrid:4x4", 0.95, True, 8),
    "tcp-write50": TcpWorkload("htriang:15", 0.5, False, 512),
}

KEY_NAMES = [f"k{index:04d}" for index in range(KEYS)]

_Timestamp = Tuple[int, int]


class Values:
    """Values of ``size`` characters whose first 8 name their version."""

    def __init__(self, seed: int, size: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.filler = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size - 8))

    def make(self, key_index: int, counter: int, writer: int) -> str:
        return f"{counter:06x}{writer:x}{key_index & 15:x}{self.filler}"


def op_stream(seed: int, client: int, read_fraction: float) -> Iterator[Tuple[bool, int]]:
    """Endless ``(is_read, key index)`` stream of one client; key index
    ``r`` is drawn with weight ``1 / (r + 1)**ZIPF_EXPONENT``."""
    rng = np.random.default_rng([seed, 2, client])
    cdf = np.cumsum(1.0 / np.power(np.arange(1, KEYS + 1, dtype=float), ZIPF_EXPONENT))
    cdf /= cdf[-1]
    while True:
        reads = (rng.random(_OPS_CHUNK) < read_fraction).tolist()
        keys = np.searchsorted(cdf, rng.random(_OPS_CHUNK), side="right").tolist()
        yield from zip(reads, keys)


@dataclass
class Stand:
    """One set-up: servers, the shared transport and the clients."""

    system: object
    strategy: object
    servers: list
    transport: BinaryTcpTransport
    coordinators: List[Coordinator]
    metrics: ServiceMetrics
    #: Newest acknowledged version per key index.
    acked: List[_Timestamp]


@dataclass
class Phase:
    """One window: ``start``/``deadline``/``end`` on the wall clock, the
    ``run_*`` fields and every op time on the run clock."""

    start: float
    deadline: float
    run_start: float
    end: float = 0.0
    run_end: float = 0.0
    reads: Latencies = field(default_factory=Latencies)
    writes: Latencies = field(default_factory=Latencies)
    failed: int = 0
    wrong: int = 0

    @property
    def ops(self) -> int:
        return len(self.reads.ms) + len(self.writes.ms) + self.failed


async def _write(coordinator: Coordinator, key_index: int, values: Values, acked: List[_Timestamp]) -> bool:
    """Write a self-describing value; False when the ack contradicts it.

    ``Coordinator.write`` stamps ``clock + 1`` before its first await,
    so the version is known before the write is sent.
    """
    counter = coordinator.clock + 1
    ack = await coordinator.write(
        KEY_NAMES[key_index], values.make(key_index, counter, coordinator.coordinator_id)
    )
    stamp = (ack.counter, ack.writer)
    if stamp > acked[key_index]:
        acked[key_index] = stamp
    return ack.counter == counter


async def _preload(coordinator: Coordinator, values: Values, acked: List[_Timestamp]) -> None:
    for first in range(0, KEYS, BATCH):
        oks = await asyncio.gather(
            *(_write(coordinator, k, values, acked) for k in range(first, min(KEYS, first + BATCH)))
        )
        if not all(oks):
            raise AssertionError("preload write acknowledged a different version")


async def set_up(
    workload: TcpWorkload, seed: int, values: Values, clock: Callable[[], float]
) -> Tuple[Stand, float, float]:
    """System build, LP solve, server start, dial and preload.

    Returns ``(stand, set-up seconds, LP seconds)``, timed on ``clock``.
    """
    start = clock()
    system = build_system(workload.spec)
    solve_start = clock()
    if workload.split:
        strategy = read_write_capacity(system, read_fraction=workload.read_fraction).strategy
    else:
        strategy = optimal_strategy(system)
    solve_s = clock() - solve_start
    servers, addresses = await start_tcp_replicas(make_replicas(system))
    transport = BinaryTcpTransport(addresses)
    await asyncio.gather(
        *(transport.call(rid, {"op": "ping"}, TIMEOUT_MS) for rid in sorted(addresses))
    )
    acked: List[_Timestamp] = [(0, -1)] * KEYS
    loader = Coordinator(
        system, transport, strategy, coordinator_id=CLIENTS, seed=seed, timeout=TIMEOUT_MS
    )
    await _preload(loader, values, acked)
    metrics = ServiceMetrics(system.n)
    coordinators = [
        Coordinator(
            system,
            transport,
            strategy,
            coordinator_id=client,
            seed=seed * 64 + client,
            timeout=TIMEOUT_MS,
            metrics=metrics,
        )
        for client in range(CLIENTS)
    ]
    stand = Stand(system, strategy, servers, transport, coordinators, metrics, acked)
    return stand, clock() - start, solve_s


async def tear_down(stand: Stand) -> None:
    for coordinator in stand.coordinators:
        await coordinator.drain()
    await stand.transport.close()
    for server in stand.servers:
        server.close()
    for server in stand.servers:
        await server.wait_closed()


async def _client(
    coordinator: Coordinator,
    ops: Iterator[Tuple[bool, int]],
    phase: Phase,
    acked: List[_Timestamp],
    values: Values,
    speed: HostSpeed,
) -> None:
    perf, clock = time.perf_counter, speed.clock
    read, make, tick = coordinator.read, values.make, speed.tick
    while True:
        tick()
        if perf() >= phase.deadline:
            return
        start = clock()
        is_read, k = next(ops)
        if is_read:
            expected = acked[k]
            try:
                result = await read(KEY_NAMES[k])
            except OperationFailed:
                phase.failed += 1
                continue
            phase.reads.add(start, clock())
            stamp = (result.counter, result.writer)
            if stamp < expected or result.stale or result.value != make(k, *stamp):
                phase.wrong += 1
        else:
            try:
                ok = await _write(coordinator, k, values, acked)
            except OperationFailed:
                phase.failed += 1
                continue
            phase.writes.add(start, clock())
            phase.wrong += not ok


async def run_phase(
    stand: Stand, streams: list, seconds: float, values: Values, speed: HostSpeed
) -> Phase:
    start = time.perf_counter()
    phase = Phase(start=start, deadline=start + seconds, run_start=speed.clock())
    await asyncio.gather(
        *(
            _client(coordinator, stream, phase, stand.acked, values, speed)
            for coordinator, stream in zip(stand.coordinators, streams)
        )
    )
    phase.end = time.perf_counter()
    phase.run_end = speed.clock()
    return phase


async def final_check(stand: Stand, seed: int, values: Values) -> int:
    """Quorum-read every key; count keys not at their newest acked version."""
    checker = Coordinator(
        stand.system,
        stand.transport,
        stand.strategy,
        coordinator_id=CLIENTS + 1,
        seed=seed,
        timeout=TIMEOUT_MS,
    )
    wrong = 0
    for first in range(0, KEYS, BATCH):
        indices = range(first, min(KEYS, first + BATCH))
        results = await asyncio.gather(*(checker.read(KEY_NAMES[k]) for k in indices))
        for k, result in zip(indices, results):
            stamp = (result.counter, result.writer)
            if stamp != stand.acked[k] or result.value != values.make(k, *stamp):
                wrong += 1
    return wrong


async def inproc_us_per_op(workload: TcpWorkload, stand: Stand, seed: int, values: Values) -> float:
    """Replay the workload's op streams over ``InProcessTransport``:
    coordinator plus replica cost, without wire or socket."""
    transport = InProcessTransport(make_replicas(stand.system), seed=seed)
    acked: List[_Timestamp] = [(0, -1)] * KEYS
    loader = Coordinator(
        stand.system, transport, stand.strategy, coordinator_id=CLIENTS, seed=seed, timeout=TIMEOUT_MS
    )
    await _preload(loader, values, acked)
    coordinators = [
        Coordinator(
            stand.system,
            transport,
            stand.strategy,
            coordinator_id=client,
            seed=seed * 64 + client,
            timeout=TIMEOUT_MS,
        )
        for client in range(CLIENTS)
    ]

    async def replay(coordinator: Coordinator, ops: Iterator[Tuple[bool, int]]) -> None:
        for _ in range(INPROC_OPS_PER_CLIENT):
            is_read, k = next(ops)
            if is_read:
                await coordinator.read(KEY_NAMES[k])
            else:
                await _write(coordinator, k, values, acked)

    start = time.perf_counter()
    await asyncio.gather(
        *(
            replay(coordinator, op_stream(seed, client, workload.read_fraction))
            for client, coordinator in enumerate(coordinators)
        )
    )
    elapsed = time.perf_counter() - start
    return elapsed / (CLIENTS * INPROC_OPS_PER_CLIENT) * 1e6


def _counters(stand: Stand) -> Dict[str, float]:
    transport, metrics = stand.transport, stand.metrics
    return {
        "wire_bytes": transport.bytes_sent + transport.bytes_received,
        "frames_sent": transport.frames_sent,
        "coalesced_ops": transport.coalesced_ops,
        "rpcs": transport.calls,
        "flushes": transport.flushes,
        "reconnects": transport.reconnects,
        "retries": metrics.retries,
        "read_repairs": metrics.read_repairs,
        "fallbacks": metrics.fallbacks,
        "hedges_issued": metrics.hedges_issued,
        "hedges_won": metrics.hedges_won,
        "failed": metrics.ops_failed,
    }


async def _warm_then_measure(
    stand: Stand,
    workload: TcpWorkload,
    seed: int,
    seconds: float,
    values: Values,
    phases: List[Phase],
    speed: HostSpeed,
) -> Phase:
    """A warm-up phase, then the measured one, on the seed's op streams."""
    streams = [op_stream(seed, client, workload.read_fraction) for client in range(CLIENTS)]
    phases.append(await run_phase(stand, streams, WARMUP_S, values, speed))
    phases.append(await run_phase(stand, streams, seconds, values, speed))
    return phases[-1]


def _rate(phase: Phase, speed: HostSpeed) -> float:
    """Ops completed per run-clock second of the window, at reference speed."""
    ends = phase.reads.ends + phase.writes.ends
    run_rate = len(ends) / (phase.run_end - phase.run_start)
    scaled = speed.rate(run_rate, ends)
    print(
        f"ops_per_s: {scaled:.2f} ({len(ends)} ops; per run-clock second {run_rate:.2f},"
        f" per wall second {len(ends) / (phase.end - phase.start):.2f})"
    )
    return scaled


async def _run(
    workload: TcpWorkload, seed: int, seconds: float, trace: bool, meter: LoopMeter
) -> Result:
    values = Values(seed, workload.value_bytes)
    speed = HostSpeed(lambda: meter.idle_ns)
    setup_times: List[float] = []
    solve_times: List[float] = []
    stand = None
    for _ in range(SETUPS):
        if stand is not None:
            await tear_down(stand)
        before = speed.burst()
        stand, setup_s, solve_s = await set_up(workload, seed, values, speed.clock)
        setup_times.append(at_reference(setup_s, (before + speed.burst()) / 2))
        solve_times.append(solve_s)
    print("setup_s runs: " + " ".join(f"{value:.4f}" for value in setup_times))
    phases: List[Phase] = []
    try:
        # With tracing, this untraced window is only the reference for
        # the tracing overhead, so it runs half as long.
        untraced = await _warm_then_measure(
            stand, workload, seed, seconds / 2 if trace else seconds, values, phases, speed
        )
        stale_keys = await final_check(stand, seed, values)
    finally:
        await tear_down(stand)
    untraced_rate = _rate(untraced, speed)
    if trace:
        # A stand of its own: coordinators bind the transport's submit
        # when they are built, so they must be built with tracing on.
        tracer = Tracer()
        install_program_tracing(tracer)
        try:
            stand, _, _ = await set_up(workload, seed, values, speed.clock)
            try:
                streams = [op_stream(seed, c, workload.read_fraction) for c in range(CLIENTS)]
                phases.append(await run_phase(stand, streams, WARMUP_S, values, speed))
                before = _counters(stand)
                idle_before, iterations_before = meter.idle_ns, meter.iterations
                tracer.reset()
                traced = await run_phase(stand, streams, seconds, values, speed)
                tracer.uninstall()
                idle_ns = meter.idle_ns - idle_before
                iterations = meter.iterations - iterations_before
                phases.append(traced)
                after = _counters(stand)
                stale_keys += await final_check(stand, seed, values)
            finally:
                await tear_down(stand)
        finally:
            tracer.uninstall()
        counts: Dict[str, float] = {name: after[name] - before[name] for name in after}
        counts["overhead_frac"] = 1.0 - _rate(traced, speed) / untraced_rate
        counts["strategy_solve_s"] = median(solve_times)
        counts["inproc_us"] = await inproc_us_per_op(workload, stand, seed, values)
        metrics = layer_metrics(
            tracer,
            ops=traced.ops,
            reads=len(traced.reads.ms),
            wall_ns=int((traced.end - traced.start) * 1e9),
            idle_ns=idle_ns,
            iterations=iterations,
            counts=counts,
        )
    else:
        metrics = {"ops_per_s": untraced_rate, "setup_s": median(setup_times)}
        metrics.update(latency_metrics(speed, untraced.reads, untraced.writes))
        metrics["peak_rss_mb"] = peak_rss_mb()
    failed = sum(phase.failed for phase in phases)
    wrong = sum(phase.wrong for phase in phases)
    print(
        f"correctness: {failed} failed ops, {wrong} wrong replies,"
        f" {stale_keys} keys not at their newest acknowledged version"
    )
    return Result(
        correct=failed == 0 and wrong == 0 and stale_keys == 0,
        attempted=sum(phase.ops for phase in phases),
        failed=failed + wrong + stale_keys,
        metrics=metrics,
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    meter = LoopMeter(selectors.DefaultSelector())
    loop = asyncio.SelectorEventLoop(meter)
    try:
        return loop.run_until_complete(_run(WORKLOADS[name], seed, seconds, trace, meter))
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
