"""The unified declarative fault model shared by sim and service.

A :class:`FaultSchedule` is an immutable list of fault rules, each active
inside a half-open window ``[start, end)`` of *ticks* — whatever virtual
time axis the substrate uses (operation index for the chaos harness,
simulator time for the discrete-event engine).  Because the schedule is
a pure function of time, one schedule object can drive three different
executors without translation:

* :class:`repro.service.faults.FaultyTransport` — injects the faults
  above any asyncio :class:`~repro.service.transport.Transport`;
* :class:`repro.sim.failures.ScheduleInjector` — applies the crash
  down-set to discrete-event :class:`~repro.sim.network.Network` nodes;
* :func:`repro.analysis.availability.availability_comparison` — scores
  the measured down-sets against the paper's exact failure probability.

Fault types
-----------
:class:`CrashFault`
    Replicas are hard-down: requests burn the full deadline and fail.
:class:`FlappingFault`
    Replicas alternate down/up with a fixed period — repeated
    crash/recover cycles that stress suspicion TTLs and circuit breakers.
:class:`PartitionFault`
    Asymmetric network partition: *clients at the given sites* cannot
    reach the listed replicas (other sites still can).  Split-brain
    scenarios use one fault per side.
:class:`LatencyFault`
    Per-replica latency spikes and tail amplification: message latency
    becomes ``latency * factor + extra`` and times out if it exceeds the
    deadline (the request side effect still happens — a slow reply is
    not a lost request).
:class:`DropFault`
    Messages are dropped with a probability; ``direction="request"``
    drops before the replica sees it, ``direction="response"`` drops the
    reply *after* the side effect applied (the nastier fault: an applied
    write the client believes failed).
:class:`DuplicateFault`
    Requests are delivered twice with a probability — exercises the
    idempotence of timestamped writes.
:class:`ByzantineFault`
    Replicas *lie* instead of failing: reads return fabricated values
    (``wrong_value``), rolled-back null state (``stale_timestamp``), or
    per-caller-site divergent fabrications (``equivocate``), and in
    ``wrong_value`` mode writes are fake-acked without applying.  Only a
    masking-mode coordinator (b+1 matching votes per accepted read) can
    survive these.

:func:`iid_crash_schedule` expresses the paper's iid transient-crash
model (each process down independently with probability ``p``, resampled
every epoch) as a schedule — the one way to realise the availability
model, in the simulator (:class:`~repro.sim.failures.ScheduleInjector`)
and the serving layer alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ServiceError, SimulationError

__all__ = [
    "Window",
    "CrashFault",
    "FlappingFault",
    "PartitionFault",
    "LatencyFault",
    "DropFault",
    "DuplicateFault",
    "ByzantineFault",
    "BYZANTINE_MODES",
    "DROP_DIRECTIONS",
    "FaultView",
    "ReplicaRules",
    "NO_RULES",
    "FaultSchedule",
    "split_brain_schedule",
    "sample_iid_crash_set",
    "iid_crash_schedule",
]


def sample_iid_crash_set(rng, ids: Iterable[int], p: float) -> frozenset:
    """Draw the paper's iid crash set: each id is down with probability ``p``.

    One ``rng.random()`` draw per id, in iteration order, so a fixed seed
    yields a fixed crash schedule.  Shared by :func:`iid_crash_schedule`,
    :meth:`FaultSchedule.random` and the serving layer's
    :class:`~repro.service.simtransport.SimTransport`, so every stack
    realises the exact same failure model.
    """
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"crash probability must be in [0,1], got {p}")
    return frozenset(i for i in ids if rng.random() < p)


class Window(Tuple[float, float]):
    """Half-open activity window ``[start, end)`` in ticks."""

    def __new__(cls, start: float, end: float = math.inf) -> "Window":
        if end < start:
            raise ServiceError(f"window end {end} before start {start}")
        return super().__new__(cls, (float(start), float(end)))

    @property
    def start(self) -> float:
        return self[0]

    @property
    def end(self) -> float:
        return self[1]

    def contains(self, now: float) -> bool:
        return self[0] <= now < self[1]


def _check_fraction(what: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ServiceError(f"{what} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class CrashFault:
    """Replicas completely down for the window."""

    replicas: frozenset
    window: Window

    kind = "crash"


@dataclass(frozen=True)
class FlappingFault:
    """Replicas cycle down/up: down for the first ``down_fraction`` of
    every ``period`` ticks inside the window."""

    replicas: frozenset
    window: Window
    period: float = 8.0
    down_fraction: float = 0.5

    kind = "flap"

    def __post_init__(self) -> None:
        if not self.period > 0.0:
            raise ServiceError(f"flapping period must be positive, got {self.period}")
        _check_fraction("flapping down_fraction", self.down_fraction)

    def down(self, now: float) -> bool:
        if not self.window.contains(now):
            return False
        phase = (now - self.window.start) % self.period
        return phase < self.period * self.down_fraction


@dataclass(frozen=True)
class PartitionFault:
    """Clients at ``sites`` cannot reach ``unreachable`` replicas.

    ``sites=None`` applies to every client site.  Asymmetric partitions
    (A sees B, B does not see A) and split-brain (two one-sided faults)
    are both expressible.
    """

    unreachable: frozenset
    window: Window
    sites: Optional[frozenset] = None

    kind = "partition"

    def applies_to(self, site: int) -> bool:
        return self.sites is None or site in self.sites


@dataclass(frozen=True)
class LatencyFault:
    """Latency spike: message latency becomes ``latency*factor + extra``."""

    replicas: frozenset
    window: Window
    extra: float = 0.0
    factor: float = 1.0

    kind = "latency"


#: Which message of a call a :class:`DropFault` loses.
DROP_DIRECTIONS = ("request", "response")


@dataclass(frozen=True)
class DropFault:
    """Messages to/from the replicas vanish with ``probability``."""

    replicas: frozenset
    window: Window
    probability: float = 0.5
    direction: str = "request"  # or "response"

    kind = "drop"

    def __post_init__(self) -> None:
        _check_fraction("drop probability", self.probability)
        if self.direction not in DROP_DIRECTIONS:
            raise ServiceError(
                f"unknown drop direction {self.direction!r}; "
                f"expected one of {DROP_DIRECTIONS}"
            )


@dataclass(frozen=True)
class DuplicateFault:
    """Requests are delivered twice with ``probability``."""

    replicas: frozenset
    window: Window
    probability: float = 0.5

    kind = "duplicate"

    def __post_init__(self) -> None:
        _check_fraction("duplicate probability", self.probability)


#: Recognised lying styles for :class:`ByzantineFault`.
BYZANTINE_MODES = ("wrong_value", "stale_timestamp", "equivocate")


@dataclass(frozen=True)
class ByzantineFault:
    """Replicas return *wrong answers* instead of no answer.

    Unlike every other rule, a Byzantine replica looks perfectly healthy
    to the transport layer — replies arrive on time and well-formed —
    so crash-tolerant quorum intersection alone cannot mask it.  Modes:

    ``wrong_value``
        Reads return a fabricated value at the true timestamp (a
        colluding lie: every liar fabricates the same bytes for a given
        key/version, the adversary's best strategy against voting) and
        writes are acknowledged without being applied.
    ``stale_timestamp``
        Reads deny the data exists — value ``None`` at the null
        timestamp — a rollback attack that can at worst cost
        availability against a voting reader.
    ``equivocate``
        Like ``wrong_value`` on reads, but the fabrication differs per
        caller *site*, so two coordinators comparing notes disagree.

    The lie content is a pure function of (mode, replica, request,
    caller site): no RNG is consumed, so inserting or removing a
    Byzantine rule never shifts the seeded drop/duplicate coin streams.
    """

    replicas: frozenset
    window: Window
    mode: str = "wrong_value"

    kind = "byzantine"

    def __post_init__(self) -> None:
        if self.mode not in BYZANTINE_MODES:
            raise ServiceError(
                f"unknown byzantine mode {self.mode!r}; "
                f"expected one of {BYZANTINE_MODES}"
            )


_FAULT_TYPES = (
    CrashFault,
    FlappingFault,
    PartitionFault,
    LatencyFault,
    DropFault,
    DuplicateFault,
    ByzantineFault,
)


class FaultView(NamedTuple):
    """The replica-independent fault state of one tick, from
    :meth:`FaultSchedule.view`."""

    #: Segment of the tick axis the tick falls in (see :class:`_SegmentIndex`).
    segment: int
    #: Replicas hard-down from crash and flapping faults.
    down: frozenset
    #: ``down`` plus the replicas partitioned away from the view's site.
    unreachable: frozenset


class ReplicaRules(NamedTuple):
    """The per-call fault rules of one replica over one segment, from
    :meth:`FaultSchedule.replica_rules`."""

    #: Worst drop probability of requests to the replica.
    drop_request: float
    #: Worst drop probability of its responses.
    drop_response: float
    #: Worst probability a request to it is delivered twice.
    duplicate: float
    #: ``(factor, extra)`` of every latency rule on it, in schedule order.
    latency: Tuple[Tuple[float, float], ...]
    #: Lying mode of the first Byzantine rule on it, or None.
    byzantine: Optional[str]

    def delay(self, latency: float) -> float:
        """A sampled message latency after every latency rule, in order."""
        for factor, extra in self.latency:
            latency = latency * factor + extra
        return latency


#: The rules of a replica that no drop, duplicate, latency or Byzantine
#: rule touches.  :meth:`FaultSchedule.replica_rules` returns this one
#: object for every such replica, so a caller can test for it with
#: ``is`` and skip rules that cannot change a call: a zero probability
#: never beats a coin in [0, 1), and ``delay`` is the identity.
NO_RULES = ReplicaRules(0.0, 0.0, 0.0, (), None)


class _SegmentIndex:
    """Which rules are active in each segment of the tick axis.

    Every finite window start and end is a boundary; the sorted
    boundaries ``b_0 < ... < b_{k-1}`` cut the axis into ``k + 1``
    segments ``(-inf, b_0), [b_0, b_1), ..., [b_{k-1}, inf)``, inside
    each of which the active rule set is constant.  Segment ``s`` of a
    tick is ``bisect_right(bounds, tick)``, which puts a tick equal to a
    boundary in the segment that *starts* there — the half-open
    ``[start, end)`` window semantics.

    Per segment the index keeps the union of the active
    :class:`CrashFault` replicas and, for every other kind, the active
    rules in schedule order (latency composition and the first-wins
    Byzantine rule depend on it).  Flapping rules stay evaluated live
    inside their segment: their phase changes within it.
    """

    __slots__ = (
        "bounds",
        "crashed",
        "flapping",
        "partitions",
        "latency",
        "drops",
        "duplicates",
        "byzantine",
    )

    def __init__(self, faults: Sequence[Any]) -> None:
        # Empty windows (start == end) are never active and cut nothing.
        live = [fault for fault in faults if fault.window.start < fault.window.end]
        bounds = sorted(
            {edge for fault in live for edge in fault.window if math.isfinite(edge)}
        )
        # One sweep over start/end events, segment by segment.
        changes: List[List[Tuple[int, Any, bool]]] = [[] for _ in range(len(bounds) + 1)]
        for order, fault in enumerate(live):
            start, end = fault.window
            changes[bisect_right(bounds, start)].append((order, fault, True))
            if end != math.inf:
                changes[bisect_right(bounds, end)].append((order, fault, False))
        active: Dict[str, Dict[int, Any]] = {rule.kind: {} for rule in _FAULT_TYPES}
        columns: Dict[str, List[Any]] = {kind: [] for kind in active}
        for segment in changes:
            touched = set()
            for order, fault, starts in segment:
                if starts:
                    active[fault.kind][order] = fault
                else:
                    del active[fault.kind][order]
                touched.add(fault.kind)
            for kind, column in columns.items():
                if column and kind not in touched:
                    column.append(column[-1])  # unchanged: share the entry
                elif kind == "crash":
                    column.append(
                        frozenset().union(*(f.replicas for f in active[kind].values()))
                    )
                else:
                    rules = active[kind]
                    column.append(tuple(rules[order] for order in sorted(rules)))
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.crashed: Tuple[frozenset, ...] = tuple(columns["crash"])
        self.flapping = tuple(columns["flap"])
        self.partitions = tuple(columns["partition"])
        self.latency = tuple(columns["latency"])
        self.drops = tuple(columns["drop"])
        self.duplicates = tuple(columns["duplicate"])
        self.byzantine = tuple(columns["byzantine"])


class FaultSchedule:
    """An immutable collection of fault rules queried by tick.

    Every rule is active on a half-open window, so the schedule is a
    piecewise-constant function of the tick.  The queries below answer
    from a segment index (see :class:`_SegmentIndex`): a binary search
    for the tick's segment, then a loop over only the rules active
    there.  A query costs O(log n) in the number of rules, whatever the
    length of the run, after a one-off O(n log n) build on the first
    query.  Schedules that are only summarised, extended or converted to
    change points never build it.

    The rule semantics live in two queries: :meth:`view` (per tick: the
    segment, the crash down-set, the unreachable set of a site) and
    :meth:`replica_rules` (per segment and replica: drop, duplicate,
    latency and Byzantine rules).  The six per-kind queries
    (:meth:`crash_down_at` ... :meth:`byzantine_mode_at`) are thin
    wrappers over them for callers that ask one thing at a time.
    """

    def __init__(self, faults: Sequence[Any] = ()) -> None:
        for fault in faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise ServiceError(f"not a fault rule: {fault!r}")
        self.faults: Tuple[Any, ...] = tuple(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @cached_property
    def _index(self) -> _SegmentIndex:
        return _SegmentIndex(self.faults)

    # ------------------------------------------------------------------
    # Queries (all pure functions of the tick)
    # ------------------------------------------------------------------
    def view(self, now: float, site: int = 0) -> FaultView:
        """Everything about tick ``now`` that does not name a replica.

        One binary search finds the tick's segment; the view carries it
        with the crash down-set (crash and live flapping rules) and the
        replicas a client at ``site`` cannot reach (that set plus the
        partitions applying to the site).  A caller issuing many calls
        at one tick resolves the view once and asks
        :meth:`replica_rules` per replica of the segment.
        """
        index = self._index
        segment = bisect_right(index.bounds, now)
        down = index.crashed[segment]
        for fault in index.flapping[segment]:
            if fault.down(now):
                down = down | fault.replicas
        unreachable = down
        for fault in index.partitions[segment]:
            if fault.applies_to(site):
                unreachable = unreachable | fault.unreachable
        return FaultView(segment, down, unreachable)

    def replica_rules(self, segment: int, replica_id: int) -> ReplicaRules:
        """The per-call rules for ``replica_id`` throughout ``segment``
        (a :attr:`FaultView.segment`): the worst drop and duplicate
        probabilities, the latency rules in schedule order and the first
        Byzantine rule's mode.  Constant over the segment, so callers
        may keep it until the segment changes.  Rules that cannot change
        a call come back as the shared :data:`NO_RULES`."""
        index = self._index
        drop_request = drop_response = 0.0
        for fault in index.drops[segment]:
            if replica_id in fault.replicas:
                if fault.direction == "request":
                    drop_request = max(drop_request, fault.probability)
                else:
                    drop_response = max(drop_response, fault.probability)
        duplicate = 0.0
        for fault in index.duplicates[segment]:
            if replica_id in fault.replicas:
                duplicate = max(duplicate, fault.probability)
        latency = tuple(
            (fault.factor, fault.extra)
            for fault in index.latency[segment]
            if replica_id in fault.replicas
        )
        byzantine = next(
            (fault.mode for fault in index.byzantine[segment] if replica_id in fault.replicas),
            None,
        )
        rules = ReplicaRules(drop_request, drop_response, duplicate, latency, byzantine)
        return NO_RULES if rules == NO_RULES else rules

    def _rules_at(self, now: float, replica_id: int) -> ReplicaRules:
        return self.replica_rules(bisect_right(self._index.bounds, now), replica_id)

    def crash_down_at(self, now: float) -> frozenset:
        """Replicas hard-down at ``now`` from crash and flapping faults.

        This is the *node-failure* down-set the availability probe
        compares against the paper's iid model — partitions and drops are
        link faults, not node faults.
        """
        return self.view(now).down

    def unreachable_at(self, now: float, site: int = 0) -> frozenset:
        """Replicas a client at ``site`` cannot reach: crashes, flaps and
        partitions that apply to the site."""
        return self.view(now, site).unreachable

    def latency_at(self, now: float, replica_id: int, latency: float) -> float:
        """Apply every active latency fault to a sampled message latency,
        in schedule order."""
        return self._rules_at(now, replica_id).delay(latency)

    def drop_probability(self, now: float, replica_id: int, direction: str) -> float:
        """Worst active drop probability for the replica and direction."""
        rules = self._rules_at(now, replica_id)
        return rules.drop_request if direction == "request" else rules.drop_response

    def duplicate_probability(self, now: float, replica_id: int) -> float:
        return self._rules_at(now, replica_id).duplicate

    def byzantine_mode_at(self, now: float, replica_id: int) -> Optional[str]:
        """Lying mode of ``replica_id`` at ``now``, or None if honest.

        First active rule wins — a replica under two overlapping
        Byzantine rules lies in one consistent style per tick, which
        keeps the fabricated replies deterministic.
        """
        return self._rules_at(now, replica_id).byzantine

    def byzantine_replicas(self) -> frozenset:
        """Every replica named by any Byzantine rule, active or not."""
        liars: set = set()
        for fault in self.faults:
            if isinstance(fault, ByzantineFault):
                liars |= fault.replicas
        return frozenset(liars)

    # ------------------------------------------------------------------
    def change_points(self, horizon: float) -> List[float]:
        """Times in ``[0, horizon]`` where the crash down-set can change.

        Crash windows contribute their boundaries; flapping faults
        contribute every phase toggle.  Link-level faults (partition,
        latency, drop, duplicate) do not move the node down-set and are
        ignored.  Used by the sim-side schedule injector to apply the
        schedule event-wise instead of polling.
        """
        points = {0.0}

        def add(time: float) -> None:
            if 0.0 <= time <= horizon:
                points.add(float(time))

        for fault in self.faults:
            if isinstance(fault, CrashFault):
                add(fault.window.start)
                add(fault.window.end)
            elif isinstance(fault, FlappingFault):
                start = fault.window.start
                end = min(fault.window.end, horizon)
                half = fault.period * fault.down_fraction
                cycle = 0
                while True:
                    base = start + cycle * fault.period
                    if base > end:
                        break
                    add(base)  # goes down
                    # Comes back up, or the window closes mid-down-phase.
                    add(min(base + half, fault.window.end))
                    cycle += 1
        return sorted(points)

    def extended(self, faults: Iterable[Any]) -> "FaultSchedule":
        """A new schedule with extra rules appended."""
        return FaultSchedule(self.faults + tuple(faults))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary, deterministic ordering."""
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return {
            "rules": len(self.faults),
            "by_kind": dict(sorted(counts.items())),
        }

    def __repr__(self) -> str:
        kinds = self.to_dict()["by_kind"]
        return f"<FaultSchedule rules={len(self.faults)} {kinds}>"

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        ids: Sequence[int],
        horizon: float,
        *,
        crash_rate: float = 0.15,
        epoch: float = 25.0,
        latency_spikes: int = 2,
        spike_extra: float = 30.0,
        spike_factor: float = 2.0,
        drops: int = 2,
        drop_probability: float = 0.4,
        duplicates: int = 1,
        duplicate_probability: float = 0.3,
        flappers: int = 1,
        flap_period: float = 8.0,
        partitions: int = 0,
        sites: int = 2,
    ) -> "FaultSchedule":
        """Seeded randomized schedule over ``[0, horizon)`` ticks.

        The crash component is the paper's iid model resampled every
        ``epoch`` ticks with probability ``crash_rate`` — exactly the
        model behind the exact failure probability, so measured
        availability is comparable to ``1 - F_p``.  The remaining fault
        families (spikes, drops, duplications, flapping, partitions) are
        placed in uniformly random windows.
        """
        if horizon <= 0:
            raise ServiceError(f"schedule horizon must be positive, got {horizon}")
        if epoch <= 0:
            raise ServiceError(f"crash epoch must be positive, got {epoch}")
        ids = sorted(ids)
        faults: List[Any] = []
        epochs = int(math.ceil(horizon / epoch))
        for index in range(epochs):
            down = sample_iid_crash_set(rng, ids, crash_rate)
            if down:
                faults.append(
                    CrashFault(down, Window(index * epoch, (index + 1) * epoch))
                )

        def random_window(min_len: float, max_len: float) -> Window:
            length = float(rng.uniform(min_len, max_len))
            start = float(rng.uniform(0.0, max(horizon - length, 1.0)))
            return Window(start, start + length)

        def random_replicas(count: int) -> frozenset:
            count = min(count, len(ids))
            picked = rng.choice(len(ids), size=count, replace=False)
            return frozenset(ids[int(i)] for i in picked)

        for _ in range(latency_spikes):
            faults.append(
                LatencyFault(
                    random_replicas(2),
                    random_window(horizon / 10.0, horizon / 4.0),
                    extra=float(rng.uniform(0.5, 1.5)) * spike_extra,
                    factor=spike_factor,
                )
            )
        for index in range(drops):
            faults.append(
                DropFault(
                    random_replicas(2),
                    random_window(horizon / 10.0, horizon / 4.0),
                    probability=drop_probability,
                    direction="request" if index % 2 == 0 else "response",
                )
            )
        for _ in range(duplicates):
            faults.append(
                DuplicateFault(
                    random_replicas(2),
                    random_window(horizon / 10.0, horizon / 4.0),
                    probability=duplicate_probability,
                )
            )
        for _ in range(flappers):
            faults.append(
                FlappingFault(
                    random_replicas(1),
                    random_window(horizon / 5.0, horizon / 2.0),
                    period=flap_period,
                )
            )
        for _ in range(partitions):
            order = [ids[int(i)] for i in rng.permutation(len(ids))]
            cut = len(order) // 2
            group_a, group_b = frozenset(order[:cut]), frozenset(order[cut:])
            window = random_window(horizon / 8.0, horizon / 3.0)
            for site in range(sites):
                unreachable = group_b if site % 2 == 0 else group_a
                faults.append(
                    PartitionFault(unreachable, window, sites=frozenset({site}))
                )
        return cls(faults)


def split_brain_schedule(
    ids: Sequence[int], window: Window, *, sites: int = 2
) -> List[PartitionFault]:
    """Two one-sided partition faults splitting the universe in half:
    even sites see only the first half, odd sites only the second.

    With a correct coordinator this only costs availability; with
    ``require_full_quorum=False`` it manufactures split-brain — the chaos
    harness's intentionally intersection-breaking scenario.
    """
    ordered = sorted(ids)
    cut = (len(ordered) + 1) // 2
    group_a, group_b = frozenset(ordered[:cut]), frozenset(ordered[cut:])
    even = frozenset(site for site in range(sites) if site % 2 == 0)
    odd = frozenset(site for site in range(sites) if site % 2 == 1)
    faults = [PartitionFault(group_b, window, sites=even)]
    if odd:
        faults.append(PartitionFault(group_a, window, sites=odd))
    return faults


def iid_crash_schedule(
    rng: np.random.Generator,
    ids: Sequence[int],
    p: float,
    *,
    horizon: float,
    epoch: float = 1.0,
) -> FaultSchedule:
    """The paper's iid crash model as a declarative schedule.

    Draws one crash set per epoch boundary at ``0, epoch, 2*epoch, ...``
    up to and *including* ``horizon`` (matching a simulator run with
    ``run(until=horizon)``, whose event at exactly ``horizon`` still
    fires), each set active for the following epoch.  Draw order is one
    ``rng.random()`` per id per epoch in the given id order, via
    :func:`sample_iid_crash_set` — a fixed stream, so seeded experiments
    reproduce bit-for-bit.
    """
    if epoch <= 0:
        raise SimulationError(f"epoch must be positive, got {epoch}")
    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")
    ids = list(ids)
    faults: List[Any] = []
    draws = int(math.floor(horizon / epoch + 1e-9)) + 1
    for index in range(draws):
        down = sample_iid_crash_set(rng, ids, p)
        if down:
            faults.append(
                CrashFault(down, Window(index * epoch, (index + 1) * epoch))
            )
    return FaultSchedule(faults)
