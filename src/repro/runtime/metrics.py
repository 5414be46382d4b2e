"""Shared metrics primitives for sim and service.

Three small building blocks — :class:`Counter`, :class:`Gauge`,
:class:`LatencyHistogram` — that :mod:`repro.sim.metrics` and
:mod:`repro.service.metrics` are thin views over.  They are deliberately
exact (the histogram keeps every sample) because the determinism tests
hash metric snapshots byte-for-byte: a lossy sketch would trade
reproducibility for memory we don't need at chaos-run scale.

:class:`Counter` and :class:`Gauge` interoperate with plain numbers
(``counter += 1``, ``counter / total``, ``counter == 3``) so call sites
read like the bare ints they replace, while still being shareable by
reference between a component and its observer.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

__all__ = ["Counter", "Gauge", "KeyCounter", "LatencyHistogram"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing integer count with int ergonomics."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def inc(self, by: int = 1) -> int:
        """Increase the count (``by`` must be non-negative)."""
        if by < 0:
            raise ValueError(f"counters only go up; inc({by})")
        self.value += int(by)
        return self.value

    # Arithmetic / comparison interop with plain numbers -----------------
    def __iadd__(self, other: Number) -> "Counter":
        self.inc(int(other))
        return self

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def _coerce(self, other: Any) -> Any:
        if isinstance(other, Counter):
            return other.value
        if isinstance(other, Gauge):
            return other.value
        if isinstance(other, (int, float)):
            return other
        return NotImplemented

    def __eq__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value == value

    def __lt__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value < value

    def __le__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value <= value

    def __gt__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value > value

    def __ge__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value >= value

    def __add__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value + value

    __radd__ = __add__

    def __sub__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value - value

    def __rsub__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else value - self.value

    def __mul__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value * value

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value / value

    def __rtruediv__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else value / self.value

    def __str__(self) -> str:
        return str(self.value)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time numeric value (can move both ways)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def add(self, delta: float) -> float:
        self.value += float(delta)
        return self.value

    def __float__(self) -> float:
        return self.value

    def __int__(self) -> int:
        return int(self.value)

    def __bool__(self) -> bool:
        return self.value != 0.0

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, (Counter, Gauge)):
            return self.value == other.value
        if isinstance(other, (int, float)):
            return self.value == other
        return NotImplemented

    def _coerce(self, other: Any) -> Any:
        if isinstance(other, (Counter, Gauge)):
            return other.value
        if isinstance(other, (int, float)):
            return other
        return NotImplemented

    def __lt__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value < value

    def __le__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value <= value

    def __gt__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value > value

    def __ge__(self, other: Any) -> Any:
        value = self._coerce(other)
        return NotImplemented if value is NotImplemented else self.value >= value

    def __str__(self) -> str:
        return str(self.value)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class KeyCounter:
    """Exact per-key hit counts with a deterministic top-K view.

    The heavy-hitter signal behind hot-shard detection and the kvbench
    key-skew report.  Counts are exact (a lossy sketch would break the
    byte-for-byte snapshot hashing the determinism tests rely on) and
    every view orders ties by key, so two runs with identical draws
    produce identical snapshots.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def record(self, key: str, by: int = 1) -> None:
        """Count ``by`` hits of ``key`` (``by`` must be non-negative)."""
        if by < 0:
            raise ValueError(f"key counters only go up; record({key!r}, {by})")
        self.counts[key] = self.counts.get(key, 0) + int(by)

    @property
    def total(self) -> int:
        """Hits across all keys."""
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        """Number of distinct keys seen."""
        return len(self.counts)

    def top(self, k: int = 10) -> List[Any]:
        """The ``k`` hottest ``(key, count)`` pairs, hottest first.

        Deterministic: ties are broken by key, so the view is a pure
        function of the recorded multiset.
        """
        ranked = sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))
        return [(key, count) for key, count in ranked[: max(0, int(k))]]

    def skew_summary(self, k: int = 10) -> Dict[str, Any]:
        """Key-skew snapshot: total/distinct counts and top-K shares."""
        total = self.total
        top = self.top(k)
        top_share = sum(count for _, count in top) / total if total else 0.0
        hottest_share = (top[0][1] / total) if top and total else 0.0
        return {
            "total": total,
            "distinct": self.distinct,
            "top_k": [[key, count] for key, count in top],
            "top_k_share": top_share,
            "hottest_share": hottest_share,
        }

    def merge(self, other: "KeyCounter") -> None:
        """Fold another counter's hits into this one."""
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"<KeyCounter distinct={self.distinct} total={self.total}>"


class LatencyHistogram:
    """Exact latency aggregation: every sample kept, percentiles on demand.

    Samples are kept as C doubles in an ``array('d')`` (8 bytes each,
    against about 32 for a list of boxed floats).  ``np.mean`` /
    ``np.percentile`` read the same float64 values from it as from the
    list sim and service metrics kept before unification, so snapshots
    stay bit-identical per seed.
    """

    __slots__ = ("samples",)

    def __init__(self, samples: Optional[Iterable[float]] = None) -> None:
        self.samples = array("d", () if samples is None else samples)

    def record(self, value: float) -> None:
        """Add one sample."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Average sample (0 when empty)."""
        return float(np.mean(self.samples)) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Sample percentile ``q`` in [0, 100] (0 when empty)."""
        if not self.samples:
            return 0.0
        return float(np.percentile(self.samples, q))

    def summary(self) -> Dict[str, float]:
        """The standard snapshot block: count, mean, p50/p95/p99."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        self.samples.extend(other.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"<LatencyHistogram count={self.count} mean={self.mean:.3f}>"
