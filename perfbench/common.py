"""Helpers shared by the workloads: statistics, results, and the
per-layer metric assembly of the traced pass."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from hostspeed import HostSpeed
from layers import FAULT_QUERIES, TIMED_LAYERS, Tracer


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float] = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Latencies:
    """Latencies of one op kind, with when each op ended, both on the
    run clock (``HostSpeed.clock``)."""

    ms: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)

    def add(self, start: float, end: float) -> None:
        self.ms.append((end - start) * 1000.0)
        self.ends.append(end)


#: The tail percentile reported.  p99 would have 60 samples beyond it
#: for the rarest kind (writes on tcp-read95, ~6000 in 30 s), but it
#: follows short host disturbances that neither the run clock nor the
#: probe removes: its spread over ten runs of the same code reached 20%
#: there, against 3-8% for p95.
TAIL = 95


def latency_metrics(speed: HostSpeed, reads: Latencies, writes: Latencies) -> Dict[str, float]:
    """p50 and p95 per op kind at reference speed, printed with their
    sample counts, the unscaled figures and the unscaled p99."""
    out: Dict[str, float] = {}
    for kind, samples in (("read", reads), ("write", writes)):
        scaled = speed.durations(samples.ms, samples.ends)
        p50, tail = (float(value) for value in np.percentile(scaled, [50, TAIL]))
        raw50, raw_tail, raw99 = np.percentile(samples.ms, [50, TAIL, 99])
        out[f"{kind}_p50_ms"], out[f"{kind}_p{TAIL}_ms"] = p50, tail
        print(
            f"{kind:5s} latency: p50 {p50:.4f} ms, p{TAIL} {tail:.4f} ms (n={len(samples.ms)};"
            f" unscaled p50 {raw50:.4f} ms, p{TAIL} {raw_tail:.4f} ms, p99 {raw99:.4f} ms)"
        )
    return out


def layer_metrics(
    tracer: Tracer,
    *,
    ops: int,
    reads: int,
    wall_ns: int,
    idle_ns: int,
    iterations: int,
    counts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced window, and the attribution check.

    ``counts`` carries the window's deltas of the program's own counters
    (transport, coordinator metrics) and the workload-level figures
    (``inproc_us``, ``strategy_solve_s``, ``overhead_frac``, ...); layers
    a workload does not cross report 0.  Prints each layer's share of
    the wall time.  The residual must not be negative: timed layers
    that overlap would double-count.
    """

    def per_op(value: float) -> float:
        return value / ops

    def us_per_op(ns: float) -> float:
        return ns / ops / 1000.0

    layer_us = {layer: us_per_op(tracer.layer_ns(layer)) for layer in TIMED_LAYERS}
    idle_us = us_per_op(idle_ns)
    wall_us = us_per_op(wall_ns)
    residual_us = wall_us - idle_us - sum(layer_us.values())
    print(f"attribution over {ops} traced ops, {wall_us:.2f} us/op wall:")
    for name, value in list(layer_us.items()) + [
        ("loop idle", idle_us),
        ("residual (coordinator + asyncio)", residual_us),
    ]:
        print(f"  {name:34s} {value:10.3f} us/op  {value / wall_us:7.2%}")
    if residual_us < -0.01 * wall_us:
        raise AssertionError(
            f"layer times exceed wall time by {-residual_us:.3f} us/op: spans overlap"
        )

    hedges = counts.get("hedges_issued", 0)
    apply_calls = tracer.calls_of("Replica.apply_write")
    return {
        "strategy.samples_per_op": per_op(tracer.calls_of("Strategy.sample_index")),
        "strategy.sample_us_per_op": layer_us["strategy"],
        "wire.encode_us_per_op": layer_us["wire.encode"],
        "wire.decode_us_per_op": layer_us["wire.decode"],
        "wire.bytes_per_op": per_op(counts.get("wire_bytes", 0)),
        "wire.ops_per_frame": (
            counts["coalesced_ops"] / counts["frames_sent"] if counts.get("frames_sent") else 0.0
        ),
        "transport.rpcs_per_op": per_op(counts.get("rpcs", 0)),
        "transport.flushes_per_op": per_op(counts.get("flushes", 0)),
        "transport.submit_us_per_op": layer_us["transport.submit"],
        "transport.io_us_per_op": layer_us["transport.io"],
        "transport.reconnects": counts.get("reconnects", 0),
        "replica.requests_per_op": per_op(tracer.calls_of("Replica.handle")),
        "replica.apply_us_per_op": layer_us["replica"],
        "replica.writes_ignored_frac": (
            tracer.false_results.get("Replica.apply_write", 0) / apply_calls if apply_calls else 0.0
        ),
        "coordinator.attempts_per_op": 1.0 + per_op(counts.get("retries", 0)),
        "coordinator.repairs_per_read": (
            counts.get("read_repairs", 0) / reads if reads else 0.0
        ),
        "coordinator.fallbacks_per_op": per_op(counts.get("fallbacks", 0)),
        "coordinator.hedges_issued_per_op": per_op(hedges),
        "coordinator.hedge_win_frac": counts.get("hedges_won", 0) / hedges if hedges else 0.0,
        "coordinator.failed_frac": per_op(counts.get("failed", 0)),
        "coordinator.inproc_us_per_op": counts["inproc_us"],
        "coordinator.residual_us_per_op": residual_us,
        "metrics.record_us_per_op": layer_us["metrics"],
        "faults.queries_per_op": per_op(
            tracer.calls_of(*(f"FaultSchedule.{name}" for name in FAULT_QUERIES))
        ),
        "faults.query_us_per_op": layer_us["faults"],
        "faults.rules": counts.get("rules", 0),
        "simtransport.calls_per_op": per_op(tracer.calls_of("SimTransport.call")),
        "loop.idle_frac": idle_ns / wall_ns,
        "loop.idle_us_per_op": idle_us,
        "loop.iterations_per_op": per_op(iterations),
        "scenarios.audit_us_per_op": layer_us["scenarios"],
        "analysis.availability_s": counts.get("availability_s", 0.0),
        "analysis.strategy_solve_s": counts["strategy_solve_s"],
        "trace.wall_us_per_op": wall_us,
        "trace.overhead_frac": counts["overhead_frac"],
    }
