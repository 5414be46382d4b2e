"""The recorded client history of one chaos run.

A harness records each op twice and nothing else: its invoke, before
the op's first await, and its return, when the op settles.  Both carry
the run clock's time, and record order is real-time order.  An op is
one :class:`Op`, filled at invoke and completed at return.

:meth:`History.replay` derives everything else in one ordered pass: the
outcome counts, SLO samples and trace, each read's freshness
expectation as of its invoke, the issued-version registries and the
newest acknowledged write per key.  It sees each record at the point
where it was appended, so it derives what a harness tracking the same
things online would have held there.

Replica apply journals (:class:`Journals`) are kept apart: a 1000-op
run applies about 6,600 writes, several times the size of its history,
and only the monotonicity audit reads them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..runtime.clock import Clock
from ..service.replica import NULL_TIMESTAMP
from .slo import Sample

_TS = Tuple[int, int]

__all__ = ["History", "Journals", "Op", "Replay"]


class Op:
    """One op.  Set at invoke: the workload ``op`` index (None for a
    preload), ``client``, ``kind`` (``"read"``, ``"write"``, or
    ``"preload"``: a baseline write, counted but never traced), ``key``,
    a write's ``value`` and ``stamp`` (the logical-clock counter it was
    stamped with before the attempt, writer ``client``; None when
    unknown).  Set at return: ``outcome`` (``"ok"``, ``"degraded"`` or
    ``"failed"``), the ``counter``/``writer`` read or acknowledged, a
    read's ``value``, ``stale`` flag and ``cached`` (served by the cache
    tier), and the ``latency`` in ms."""

    __slots__ = (
        "op", "client", "kind", "key", "value", "stamp",
        "outcome", "counter", "writer", "stale", "cached", "latency",
    )

    def __init__(
        self,
        op: Optional[int],
        client: int,
        kind: str,
        key: str,
        value: Any = None,
        stamp: Optional[int] = None,
    ) -> None:
        self.op, self.client, self.kind, self.key = op, client, kind, key
        self.value, self.stamp = value, stamp
        self.outcome: Optional[str] = None
        self.counter: Optional[int] = None
        self.writer: Optional[int] = None
        self.stale = self.cached = False
        self.latency = 0.0

    @property
    def ts(self) -> Optional[_TS]:
        """The ``(counter, writer)`` read or acknowledged, if any."""
        return None if self.counter is None else (self.counter, self.writer)


@dataclass
class Replay:
    """What one ordered pass over a :class:`History` derives."""

    #: ``<kind>s_<outcome>``, ``preloads`` and ``reads_cached`` counts.
    counts: Dict[str, int]
    #: One row and one SLO sample per workload op, in return order.
    trace: List[Dict[str, Any]] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    #: Each successful read, in return order, with the newest timestamp
    #: acknowledged for its key when it was invoked (None: none yet).
    reads: List[Tuple[Op, Optional[_TS]]] = field(default_factory=list)
    #: Per key, the newest acknowledged timestamp and its value.
    acked: Dict[str, Tuple[_TS, Any]] = field(default_factory=dict)
    #: ``(key, counter, writer)`` of each stamped write attempt, failed
    #: ones included, to its value; and each write's value, per key.
    issued: Dict[Tuple[str, int, int], Any] = field(default_factory=dict)
    written: Dict[str, Set[Any]] = field(default_factory=dict)


class History:
    """Invoke and return records of one run, in real-time order: record
    ``i`` is ``records[i]``'s return if ``returns[i]`` else its invoke,
    appended at clock time ``times[i]``."""

    __slots__ = ("clock", "records", "returns", "times")

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.records: List[Op] = []
        self.returns = bytearray()
        self.times = array("d")

    def _append(self, record: Op, returned: int) -> None:
        self.records.append(record)
        self.returns.append(returned)
        self.times.append(self.clock.now())

    def invoke(
        self,
        op: Optional[int],
        client: int,
        kind: str,
        key: str,
        value: Any = None,
        stamp: Optional[int] = None,
    ) -> Op:
        """Record that an op began; call before its first await."""
        record = Op(op, client, kind, key, value, stamp)
        self._append(record, 0)
        return record

    def settle(
        self,
        record: Op,
        outcome: str,
        ts: Optional[_TS] = None,
        *,
        value: Any = None,
        stale: bool = False,
        cached: bool = False,
        latency: float = 0.0,
    ) -> None:
        """Record how ``record`` ended; ``value`` is what a read returned."""
        record.outcome = outcome
        if ts is not None:
            record.counter, record.writer = ts
        if record.kind == "read":
            record.value = value
        record.stale, record.cached, record.latency = stale, cached, float(latency)
        self._append(record, 1)

    def replay(
        self, row: Callable[[Op], Dict[str, Any]], counts: Sequence[str] = ()
    ) -> Replay:
        """One ordered pass; ``row`` renders a settled workload op as a
        trace row, ``counts`` names the counters reported even at zero."""
        out = Replay(dict.fromkeys(counts, 0))
        tally, acked = out.counts, out.acked
        expected: Dict[Op, Optional[_TS]] = {}
        for record, returned in zip(self.records, self.returns):
            kind, key = record.kind, record.key
            if not returned:
                if kind == "read":
                    newest = acked.get(key)
                    expected[record] = newest[0] if newest is not None else None
                else:
                    out.written.setdefault(key, set()).add(record.value)
                    if record.stamp is not None:
                        out.issued[(key, record.stamp, record.client)] = record.value
                continue
            served = record.outcome != "failed"
            if kind == "read":
                snapshot = expected.pop(record)
                if served:
                    out.reads.append((record, snapshot))
                if record.cached:
                    tally["reads_cached"] = tally.get("reads_cached", 0) + 1
            elif served:
                ts = (record.counter, record.writer)
                if ts > acked.get(key, (NULL_TIMESTAMP,))[0]:
                    acked[key] = (ts, record.value)
            name = "preloads" if kind == "preload" else f"{kind}s_{record.outcome}"
            tally[name] = tally.get(name, 0) + 1
            if kind != "preload":
                out.samples.append((record.op, served, record.latency))
                out.trace.append(row(record))
        return out


class Journals:
    """Per-replica apply journals for **replica-ts-monotone**: entries
    ``(shard or None, replica id, key -> stored (counter, writer)s)``,
    in attach order."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[Optional[str], int, Dict[str, List[_TS]]]] = []

    def attach(self, replica: Any, shard: Optional[str] = None) -> None:
        """Journal every write ``replica`` stores from now on."""
        journal: Dict[str, List[_TS]] = {}
        self.entries.append((shard, replica.replica_id, journal))

        def on_apply(key: str, counter: int, writer: int) -> None:
            journal.setdefault(key, []).append((counter, writer))

        replica.on_apply = on_apply
