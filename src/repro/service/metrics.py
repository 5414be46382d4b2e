"""Metrics for the serving layer: observed load, latency, reliability.

The point of the subsystem is to close the loop between the paper's
analytic quantities and a running service, so the central object here is
*observed element load*: the fraction of quorum accesses that touched
each element, directly comparable to
:meth:`repro.core.strategy.Strategy.element_loads` (Definition 3.4) and
to the LP-optimal load from :mod:`repro.analysis.load`.

Everything is exportable as a plain dict (:meth:`ServiceMetrics.to_dict`)
so benchmarks can be diffed run-to-run — the determinism tests assert
bit-identical dicts for identical seeds.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from ..core.errors import ServiceError
from ..runtime.metrics import KeyCounter, LatencyHistogram

#: Counter attributes a transport may expose, in reporting order.  All
#: of them come from :class:`~repro.service.transport.BinaryTcpTransport`
#: (the wire-level ones: frames, coalesced ops, the derived ops-per-frame
#: and bytes-per-op ratios); the virtual-time transports expose at most
#: ``calls``.  Kept here, next to the op metrics, so every report that quotes an
#: ops/s figure can also say what the wire did to earn it.
TRANSPORT_COUNTERS = (
    "calls",
    "flushes",
    "bytes_sent",
    "bytes_received",
    "reconnects",
    "frames_sent",
    "frames_received",
    "coalesced_ops",
    "ops_per_frame",
    "bytes_per_op",
)


def transport_summary(transport: Any) -> Dict[str, Any]:
    """Snapshot whichever :data:`TRANSPORT_COUNTERS` a transport exposes.

    Works for every transport — counters a transport lacks are simply
    absent, so callers can diff summaries without caring whether the
    binary TCP client or the virtual-time ``SimTransport`` produced them.
    Ratios stay floats; counts are coerced to plain ints so the result
    is always JSON-serialisable.
    """
    summary: Dict[str, Any] = {}
    for name in TRANSPORT_COUNTERS:
        value = getattr(transport, name, None)
        if value is None:
            continue
        if isinstance(value, float):
            summary[name] = value
        else:
            summary[name] = int(value)
    return summary


class ServiceMetrics:
    """Counters and histograms for one coordinator/benchmark run.

    Parameters
    ----------
    n:
        Universe size (number of replicas) — sizes the per-element
        access counters.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ServiceError(f"metrics need a positive universe size, got {n}")
        self.n = n
        self.quorum_accesses = 0
        # Successful accesses per quorum, keyed by the path that sampled
        # it ("read", "write", or None for callers that name no path);
        # the per-element counters are derived from these when read.
        self._quorum_counts: Dict[Optional[str], Dict[FrozenSet[int], int]] = {
            None: {},
            "read": {},
            "write": {},
        }
        # Per-path accounting for split read/write strategies: quorums
        # sampled by the read path and by the write path (repair/transfer
        # included), so observed loads can be compared against each
        # distribution's prediction.
        self.path_quorum_accesses: Dict[str, int] = {"read": 0, "write": 0}
        self.ops_attempted = 0
        self.ops_succeeded = 0
        self.ops_failed = 0
        self.ops_by_kind: Dict[str, int] = {}
        self.retries = 0
        self.fallbacks = 0
        self.timeouts = 0
        self.unavailable = 0
        self.read_repairs = 0
        self.degraded_reads = 0
        self.hints_recorded = 0
        self.hints_replayed = 0
        self.breaker_opens = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        # Masking-read (Byzantine) accounting.
        self.lies_detected = 0
        self.vote_rounds = 0
        self.vote_failures = 0
        self.vote_margin_sum = 0
        self.vote_margin_min: Optional[int] = None
        # Quorum-lease accounting.
        self.lease_renewals = 0
        self.lease_expiries = 0
        self.rejoins_failed = 0
        # Shared runtime histograms (sim metrics use the identical class,
        # so latency numerics agree across substrates).
        self.straggler_latency = LatencyHistogram()
        self.op_latency = LatencyHistogram()
        # Per-key access counts: the hot-key signal behind kvbench's
        # key-skew report and the sharding layer's hot-shard detection.
        self.keys = KeyCounter()
        # Wall-clock of the measured workload section, stamped by the
        # load generator.  Deliberately NOT in to_dict(): the snapshot
        # must stay bit-identical for identical seeds.
        self.elapsed_seconds = 0.0
        # Virtual-time span of the measured section (ms), stamped when
        # the transport runs on a virtual clock; 0.0 under wall clocks.
        # Kept out of to_dict() alongside elapsed_seconds.
        self.virtual_elapsed_ms = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_quorum_access(
        self, quorum: Iterable[int], path: Optional[str] = None
    ) -> None:
        """Count one successful access of a full quorum.

        ``path`` ("read" or "write") additionally attributes the access
        to one side of a split read/write strategy; omitting it keeps
        only the combined counters (legacy callers).
        """
        counts = self._quorum_counts[path]
        quorum = frozenset(quorum)  # the same object when it is one
        counts[quorum] = counts.get(quorum, 0) + 1
        self.quorum_accesses += 1
        if path is not None:
            self.path_quorum_accesses[path] += 1

    def record_op(self, kind: str, latency: float, ok: bool, attempts: int) -> None:
        """Count one client operation (read or write) end to end."""
        self.ops_attempted += 1
        self.ops_by_kind[kind] = self.ops_by_kind.get(kind, 0) + 1
        if ok:
            self.ops_succeeded += 1
        else:
            self.ops_failed += 1
        if attempts > 1:
            self.retries += attempts - 1
        self.op_latency.record(latency)

    def record_key_access(self, key: str) -> None:
        """Count one client operation against ``key`` (read or write)."""
        self.keys.record(key)

    def record_fallback(self) -> None:
        """A retry that switched to a different (next-best) quorum."""
        self.fallbacks += 1

    def record_timeout(self) -> None:
        """One per-request deadline miss."""
        self.timeouts += 1

    def record_unavailable(self) -> None:
        """One request that hit a crashed/unreachable replica."""
        self.unavailable += 1

    def record_read_repair(self) -> None:
        """One stale replica rewritten during a read."""
        self.read_repairs += 1

    def record_degraded_read(self) -> None:
        """One best-effort stale read served without a full quorum."""
        self.degraded_reads += 1

    def record_hint(self) -> None:
        """One write queued as a hinted handoff for a failed replica."""
        self.hints_recorded += 1

    def record_hint_replayed(self) -> None:
        """One hinted write delivered to its replica after recovery."""
        self.hints_replayed += 1

    def record_breaker_open(self) -> None:
        """One per-replica circuit breaker tripped open."""
        self.breaker_opens += 1

    def record_hedges_issued(self, count: int = 1) -> None:
        """``count`` spare (hedge) requests issued beyond the quorum."""
        self.hedges_issued += count

    def record_hedge_won(self) -> None:
        """One quorum phase completed by a non-primary candidate quorum."""
        self.hedges_won += 1

    def record_straggler(self, latency: float) -> None:
        """One absorbed straggler reply, with its observed latency (ms)."""
        self.straggler_latency.record(latency)

    def record_lie(self) -> None:
        """One replica caught returning a divergent value for the
        accepted timestamp during a masking read."""
        self.lies_detected += 1

    def record_vote(self, margin: int) -> None:
        """One masking read accepted; ``margin`` is votes beyond the
        required ``b+1`` (0 = bare quorum, the adversary's best case)."""
        self.vote_rounds += 1
        self.vote_margin_sum += int(margin)
        if self.vote_margin_min is None or margin < self.vote_margin_min:
            self.vote_margin_min = int(margin)

    def record_vote_failure(self) -> None:
        """One quorum of replies with no ``b+1``-supported candidate."""
        self.vote_rounds += 1
        self.vote_failures += 1

    def record_lease_renewed(self) -> None:
        """One quorum lease granted or renewed via a join handshake."""
        self.lease_renewals += 1

    def record_lease_expired(self) -> None:
        """One sampled quorum found with its lease expired."""
        self.lease_expiries += 1

    def record_rejoin_failed(self) -> None:
        """One re-join handshake that could not reach every member."""
        self.rejoins_failed += 1

    def _element_counts(self, paths: Iterable[Optional[str]]) -> np.ndarray:
        """Per-element access counts over the quorums of ``paths``."""
        totals = [0] * self.n
        for path in paths:
            for quorum, count in self._quorum_counts[path].items():
                for element in quorum:
                    totals[element] += count
        return np.array(totals, dtype=np.int64)

    @property
    def element_accesses(self) -> np.ndarray:
        """Accesses per element over every successful quorum access."""
        return self._element_counts(self._quorum_counts)

    @property
    def path_element_accesses(self) -> Dict[str, np.ndarray]:
        """Accesses per element over each path's quorum accesses."""
        return {path: self._element_counts((path,)) for path in ("read", "write")}

    # List-typed access for tests that index or len() the raw samples.
    @property
    def straggler_latencies(self) -> List[float]:
        return list(self.straggler_latency.samples)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def success_rate(self) -> float:
        """Fraction of operations that completed (1.0 when idle)."""
        if self.ops_attempted == 0:
            return 1.0
        return self.ops_succeeded / self.ops_attempted

    def observed_loads(self) -> np.ndarray:
        """Per-element access frequency over quorum accesses (Def. 3.4).

        Comparable to ``Strategy.element_loads()``: both are "probability
        the element takes part in a picked quorum".
        """
        if self.quorum_accesses == 0:
            return np.zeros(self.n)
        return self.element_accesses / self.quorum_accesses

    def observed_path_loads(self, path: str) -> np.ndarray:
        """Per-element access frequency over one path's quorum accesses.

        Comparable to the corresponding side of a
        :class:`~repro.core.rwstrategy.ReadWriteStrategy`:
        ``strategy.reads.element_loads()`` for the read path,
        ``strategy.writes.element_loads()`` for the write path.
        """
        accesses = self.path_quorum_accesses[path]
        if accesses == 0:
            return np.zeros(self.n)
        return self._element_counts((path,)) / accesses

    def latency_percentile(self, q: float) -> float:
        """Operation latency percentile ``q`` in [0, 100] (ms)."""
        return self.op_latency.percentile(q)

    def load_deviation(self, predicted: Sequence[float]) -> Dict[str, float]:
        """Observed-vs-predicted load summary against a strategy's loads.

        ``max_abs_error`` is the worst per-element gap;
        ``max_relative_error`` normalises by the predicted value (elements
        predicted below 1% of the maximum are compared absolutely, so an
        element the strategy never touches cannot blow up the ratio).
        """
        predicted_arr = np.asarray(predicted, dtype=float)
        if predicted_arr.shape != (self.n,):
            raise ServiceError(
                f"expected {self.n} predicted loads, got {predicted_arr.shape}"
            )
        observed = self.observed_loads()
        errors = np.abs(observed - predicted_arr)
        floor = max(predicted_arr.max(), 1e-12) * 0.01
        relative = errors / np.maximum(predicted_arr, floor)
        return {
            "max_abs_error": float(errors.max()),
            "max_relative_error": float(relative.max()),
            "mean_abs_error": float(errors.mean()),
            "observed_max_load": float(observed.max()),
            "predicted_max_load": float(predicted_arr.max()),
        }

    # ------------------------------------------------------------------
    def to_dict(self, predicted: Optional[Sequence[float]] = None) -> Dict[str, Any]:
        """JSON-serialisable snapshot; pass the strategy's element loads
        to include the observed-vs-predicted comparison."""
        snapshot: Dict[str, Any] = {
            "n": self.n,
            "ops": {
                "attempted": self.ops_attempted,
                "succeeded": self.ops_succeeded,
                "failed": self.ops_failed,
                "by_kind": dict(sorted(self.ops_by_kind.items())),
                "success_rate": self.success_rate,
            },
            "quorum_accesses": self.quorum_accesses,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "unavailable": self.unavailable,
            "read_repairs": self.read_repairs,
            "degraded_reads": self.degraded_reads,
            "hints_recorded": self.hints_recorded,
            "hints_replayed": self.hints_replayed,
            "breaker_opens": self.breaker_opens,
            "hedging": {
                "issued": self.hedges_issued,
                "won": self.hedges_won,
                "stragglers": self.straggler_latency.count,
                "straggler_ms": {
                    "mean": self.straggler_latency.mean,
                    "p95": self.straggler_latency.percentile(95),
                },
            },
            "byzantine": {
                "lies_detected": self.lies_detected,
                "vote_rounds": self.vote_rounds,
                "vote_failures": self.vote_failures,
                "vote_margin_min": self.vote_margin_min,
                "vote_margin_mean": (
                    self.vote_margin_sum / (self.vote_rounds - self.vote_failures)
                    if self.vote_rounds > self.vote_failures
                    else None
                ),
            },
            "leases": {
                "renewals": self.lease_renewals,
                "expiries": self.lease_expiries,
                "rejoins_failed": self.rejoins_failed,
            },
            "latency_ms": self.op_latency.summary(),
            "hot_keys": self.keys.skew_summary(10),
            "observed_loads": [float(x) for x in self.observed_loads()],
            "path_loads": {
                path: {
                    "quorum_accesses": self.path_quorum_accesses[path],
                    "observed_loads": [
                        float(x) for x in self.observed_path_loads(path)
                    ],
                }
                for path in ("read", "write")
            },
        }
        if predicted is not None:
            snapshot["predicted_loads"] = [float(x) for x in predicted]
            snapshot["load_deviation"] = self.load_deviation(predicted)
        return snapshot

    def __repr__(self) -> str:
        return (
            f"<ServiceMetrics ops={self.ops_attempted}"
            f" success={self.success_rate:.3f}"
            f" accesses={self.quorum_accesses}>"
        )
