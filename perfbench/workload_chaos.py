"""The virtual-time chaos workload, ``sim-chaos``.

Back-to-back ``run_chaos(mode="sim")`` runs on ``hgrid:4x4`` with the
default ``ChaosConfig`` fault mix (crashes, latency spikes, drops,
duplicates, a flapper, a partition, circuit breakers, degraded reads,
hinted handoff), 256 keys and deferred hedging.  Run ``i`` of a window
uses chaos seed ``--seed * 1000 + i``.  Every run has the same length,
``OPS_PER_RUN`` ops, because throughput depends on it: each fault query
scans every rule of the schedule, and the number of rules grows with the
number of ops (see README.md).

Virtual time makes a run's outcome a pure function of its seed, so the
wall-clock figures here are the CPU cost of simulating each op; op
latencies are timed from outside, around ``Coordinator.read``/``write``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.load import optimal_strategy
from repro.cli import build_system
from repro.service import ChaosConfig, Coordinator, InProcessTransport, make_replicas, run_chaos

from common import Latencies, Result, latency_metrics, layer_metrics, median, peak_rss_mb
from hostspeed import HostSpeed, at_reference
from layers import Tracer, install_program_tracing

SPEC = "hgrid:4x4"
OPS_PER_RUN = 1000
SETUPS = 15
#: Ops of the fault-free in-process replay of the traced pass.
INPROC_OPS = 4000


def chaos_config() -> ChaosConfig:
    return ChaosConfig(ops=OPS_PER_RUN, keys=256, hedge_spares=1, hedge_delay_ms=2.0)


def chaos_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Window:
    """Chaos runs with their wall and run-clock durations; op times on
    the run clock."""

    walls: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    reads: Latencies = field(default_factory=Latencies)
    writes: Latencies = field(default_factory=Latencies)

    def rate(self, speed: HostSpeed) -> float:
        """Ops per run-clock second over all runs, at reference speed."""
        run_rate = OPS_PER_RUN * len(self.run_s) / sum(self.run_s)
        scaled = speed.rate(run_rate, self.reads.ends + self.writes.ends)
        print(
            f"ops_per_s: {scaled:.2f} ({len(self.run_s)} runs; per run-clock second"
            f" {run_rate:.2f}, per wall second {OPS_PER_RUN * len(self.walls) / sum(self.walls):.2f})"
        )
        return scaled


class OpTimer:
    """Wall-clock latency of every workload op, timed around the public
    ``Coordinator.read``/``write`` (the preload coordinator is skipped);
    the host-speed probe fires here too, before an op is timed."""

    def __init__(self, clients: int, window: Window, speed: HostSpeed) -> None:
        self.clients = clients
        self.window = window
        self.speed = speed
        self._saved: Dict[str, object] = {}

    def install(self) -> None:
        for kind, samples in (("read", self.window.reads), ("write", self.window.writes)):
            original = self._saved[kind] = Coordinator.__dict__[kind]
            setattr(Coordinator, kind, self._timed(original, samples))

    def uninstall(self) -> None:
        for kind, original in self._saved.items():
            setattr(Coordinator, kind, original)
        self._saved.clear()

    def _timed(self, original, samples: Latencies):
        clients = self.clients
        clock, tick = self.speed.clock, self.speed.tick

        async def timed(coordinator: Coordinator, *args):
            if coordinator.coordinator_id >= clients:
                return await original(coordinator, *args)
            tick()
            start = clock()
            try:
                return await original(coordinator, *args)
            finally:
                samples.add(start, clock())

        return timed


def measure(system, strategy, seed: int, seconds: float, speed: HostSpeed) -> Window:
    """Chaos runs back to back until ``seconds`` have passed."""
    window = Window()
    timer = OpTimer(chaos_config().clients, window, speed)
    timer.install()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            run_start, clock_start = time.perf_counter(), speed.clock()
            report = run_chaos(
                system,
                seed=chaos_seed(seed, len(window.walls)),
                config=chaos_config(),
                strategy=strategy,
                mode="sim",
            )
            window.walls.append(time.perf_counter() - run_start)
            window.run_s.append(speed.clock() - clock_start)
            window.reports.append(report)
    finally:
        timer.uninstall()
    return window


def check(window: Window, reference) -> int:
    """Print each run's outcome counts and digests; return the number of
    invariant violations, plus one if the window's first run does not
    reproduce the reference run's digests."""
    problems = 0
    for index, (wall, report) in enumerate(zip(window.walls, window.reports)):
        differs = index == 0 and report.hashes != reference.hashes
        print(
            f"  chaos seed {report.seed}: {OPS_PER_RUN / wall:8.2f} ops/s,"
            f" {len(report.schedule)} rules, {len(report.violations)} violations,"
            f" trace {report.hashes['trace'][:16]} metrics {report.hashes['metrics'][:16]}"
            f" {format_counts(report.operations)}" + (" DIFFERS FROM DIRECT CALL" if differs else "")
        )
        problems += len(report.violations) + differs
    return problems


def format_counts(counts: Dict[str, object]) -> str:
    return " ".join(f"{name}={value}" for name, value in sorted(counts.items()))


async def _inproc_replay(system, strategy, seed: int) -> float:
    """The chaos op mix, fault-free over ``InProcessTransport``:
    coordinator plus replica cost per op, in microseconds."""
    config = chaos_config()
    transport = InProcessTransport(make_replicas(system), seed=seed)
    coordinators = [
        Coordinator(system, transport, strategy, coordinator_id=client, seed=seed * 64 + client)
        for client in range(config.clients)
    ]
    rng = np.random.default_rng([seed, 3])
    reads = (rng.random(INPROC_OPS) < config.read_fraction).tolist()
    keys = [f"k{k:03d}" for k in rng.integers(0, config.keys, INPROC_OPS).tolist()]
    for key in sorted(set(keys)):
        await coordinators[0].write(key, "preload")
    start = time.perf_counter()
    for index, (is_read, key) in enumerate(zip(reads, keys)):
        coordinator = coordinators[index % config.clients]
        if is_read:
            await coordinator.read(key)
        else:
            await coordinator.write(key, f"v{index}")
    return (time.perf_counter() - start) / INPROC_OPS * 1e6


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    speed = HostSpeed()
    setup_times: List[float] = []
    solve_times: List[float] = []
    for _ in range(SETUPS):
        before = speed.burst()
        start = speed.clock()
        system = build_system(SPEC)
        solve_start = speed.clock()
        strategy = optimal_strategy(system)
        end = speed.clock()
        setup_times.append(at_reference(end - start, (before + speed.burst()) / 2))
        solve_times.append(end - solve_start)
    print("setup_s runs: " + " ".join(f"{value:.5f}" for value in setup_times))

    # Warm-up, and the reference the first measured run must reproduce:
    # a direct call with its own system and LP solve.
    reference = run_chaos(
        build_system(SPEC), seed=chaos_seed(seed, 0), config=chaos_config(), mode="sim"
    )
    # With tracing, this untraced window is only the reference for the
    # tracing overhead, so it runs half as long.
    untraced = measure(system, strategy, seed, seconds / 2 if trace else seconds, speed)
    untraced_rate = untraced.rate(speed)
    print(f"untraced: {len(untraced.walls)} runs of {OPS_PER_RUN} ops")
    problems = check(untraced, reference)
    windows = [untraced]
    if trace:
        tracer = Tracer()
        install_program_tracing(tracer)
        tracer.meter_default_selector()
        try:
            traced = measure(system, strategy, seed, seconds, speed)
        finally:
            tracer.uninstall()
        print(f"traced: {len(traced.walls)} runs of {OPS_PER_RUN} ops")
        problems += check(traced, reference)
        windows.append(traced)
        runs = len(traced.reports)
        service = [report.metrics for report in traced.reports]
        counts: Dict[str, float] = {
            "retries": sum(m.retries for m in service),
            "read_repairs": sum(m.read_repairs for m in service),
            "fallbacks": sum(m.fallbacks for m in service),
            "hedges_issued": sum(m.hedges_issued for m in service),
            "hedges_won": sum(m.hedges_won for m in service),
            "failed": sum(
                r.operations["reads_failed"] + r.operations["writes_failed"] for r in traced.reports
            ),
            "rules": sum(len(r.schedule) for r in traced.reports) / runs,
            "availability_s": tracer.layer_ns("analysis") / runs / 1e9,
            "strategy_solve_s": median(solve_times),
            "overhead_frac": 1.0 - traced.rate(speed) / untraced_rate,
            "inproc_us": asyncio.run(_inproc_replay(system, strategy, seed)),
        }
        metrics = layer_metrics(
            tracer,
            ops=OPS_PER_RUN * runs,
            reads=sum(m.ops_by_kind.get("read", 0) for m in service),
            wall_ns=int(sum(traced.walls) * 1e9),
            idle_ns=sum(meter.idle_ns for meter in tracer.meters),
            iterations=sum(meter.iterations for meter in tracer.meters),
            counts=counts,
        )
    else:
        metrics = {"ops_per_s": untraced_rate, "setup_s": median(setup_times)}
        metrics.update(latency_metrics(speed, untraced.reads, untraced.writes))
        metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"digests of chaos seed {reference.seed}: {format_counts(reference.hashes)}")
    print(f"correctness: {problems} invariant violations or digest mismatches")
    return Result(
        correct=problems == 0,
        attempted=OPS_PER_RUN * sum(len(window.reports) for window in windows),
        failed=problems,
        metrics=metrics,
    )
