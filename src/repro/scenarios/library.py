"""The named SRE incident library — declarative scenarios over the engine.

Each incident is a :class:`~repro.scenarios.engine.Scenario`: a fault
schedule built from whatever replica ids the chosen quorum system has
(so every incident runs unchanged against ``majority:5``,
``hgrid:4x4``, ``htriang:15``, …), a workload recipe, the shared
invariant set, and SLO targets scored into the scorecard's error-budget
block.  ``quorumtool incident list`` prints this table;
``quorumtool incident run <name>`` executes one and emits the versioned
JSON scorecard.  All incidents are safety-clean by construction
(``expect_violations=False``): they demonstrate *availability and
latency* failure modes — the SLO block is where the damage shows — while
the invariants must keep holding, which is exactly what CI gates on.

The library (names follow the runbook convention ``<area>-<number>``):

``incident-010-split-brain``
    A clean two-site network partition mid-run.  The coordinator keeps
    requiring full quorums, so the minority site *loses availability
    instead of consistency* — the safe twin of the
    ``--unsafe-partial-writes`` demonstration.
``incident-011-replica-lag-read-repair-storm``
    A minority of replicas is down for the first half of the run and
    comes back cold.  Quorum reads keep succeeding throughout; after
    recovery every read that touches a lagging replica triggers read
    repair (the ``read_repairs`` counter in the metrics block is the
    storm).
``incident-012-hot-key-zipf``
    Zipf key popularity (exponent 1.2 over 12 keys) under light faults:
    the hot key concentrates on one quorum's replicas.  The metrics
    block's key-skew summary quantifies the imbalance.
``incident-015-cache-avalanche``
    Open-loop Poisson traffic over the coordinator-side cache tier.  The
    warmup fills every lease at the same instant, so they all expire
    together into a slow origin (a latency fault covers the expiry) —
    the classic avalanche; stale-while-revalidate grace plus
    single-flight refresh is the mitigation being measured.
``net-104-lb-oscillation``
    Latency flips between the two halves of the replica set every ~50
    ops.  Hedged quorum phases (one delayed spare) chase the fast half;
    the scorecard shows what the oscillation costs in tail latency.
``obs-103-slo-burn``
    Open-loop Poisson traffic through a mid-run latency storm on every
    replica.  The per-window burn rates in the SLO block spike while the
    whole-run average stays tame — the reason burn-rate alerts are
    windowed.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.errors import ServiceError
from ..runtime.faults import (
    CrashFault,
    FaultSchedule,
    LatencyFault,
    Window,
    split_brain_schedule,
)
from .engine import ChaosConfig, Scenario
from .slo import SloTargets

__all__ = ["INCIDENTS", "get_incident", "list_incidents"]


def _split_brain(ids: List[int], config: ChaosConfig) -> FaultSchedule:
    return FaultSchedule(
        split_brain_schedule(
            ids, Window(config.ops * 0.25, config.ops * 0.75)
        )
    )


def _minority_down_first_half(
    ids: List[int], config: ChaosConfig
) -> FaultSchedule:
    # The largest set that can never block a quorum on majority-style
    # systems: strictly less than half the universe, down from the
    # start, recovering cold at mid-run.
    lagging = ids[: max(1, (len(ids) - 1) // 2)]
    return FaultSchedule(
        [CrashFault(frozenset(lagging), Window(0.0, config.ops * 0.5))]
    )


def _origin_slow_at_expiry(
    ids: List[int], config: ChaosConfig
) -> FaultSchedule:
    # The latency storm covers the first mass lease expiry (every key
    # was cached at the same warmup instant) and most of the run after
    # it, so refreshes pay the slow origin.
    return FaultSchedule(
        [
            LatencyFault(
                frozenset(ids),
                Window(config.ops * 0.2, config.ops * 0.8),
                extra=10.0,
                factor=2.0,
            )
        ]
    )


def _oscillating_halves(ids: List[int], config: ChaosConfig) -> FaultSchedule:
    # Latency ping-pongs between the two halves of the replica set in
    # ~50-op beats, like a load balancer flapping between two backend
    # pools that take turns being overloaded.
    half = len(ids) // 2
    first, second = frozenset(ids[:half]), frozenset(ids[half:])
    faults = []
    beat = 50.0
    tick = 0.0
    while tick < config.ops:
        faults.append(
            LatencyFault(first, Window(tick, tick + beat), extra=15.0, factor=3.0)
        )
        faults.append(
            LatencyFault(
                second, Window(tick + beat, tick + 2 * beat), extra=15.0, factor=3.0
            )
        )
        tick += 2 * beat
    return FaultSchedule(faults)


def _midrun_latency_storm(
    ids: List[int], config: ChaosConfig
) -> FaultSchedule:
    return FaultSchedule(
        [
            LatencyFault(
                frozenset(ids),
                Window(config.ops * 0.3, config.ops * 0.55),
                extra=30.0,
                factor=4.0,
            )
        ]
    )


#: The named incident library, keyed by incident name.
INCIDENTS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="incident-010-split-brain",
            summary=(
                "two-site partition at mid-run; full-quorum writes trade"
                " availability for consistency"
            ),
            config=ChaosConfig(
                ops=240,
                clients=2,
                crash_rate=0.0,
                latency_spikes=0,
                drops=0,
                duplicates=0,
                flappers=0,
                partitions=0,
            ),
            slo=SloTargets(
                availability=0.75, latency_ms={"p95": 120.0}, window_ops=40
            ),
            schedule=_split_brain,
        ),
        Scenario(
            name="incident-011-replica-lag-read-repair-storm",
            summary=(
                "minority down for the first half recovers cold; reads"
                " trigger a read-repair storm"
            ),
            config=ChaosConfig(
                ops=400,
                read_fraction=0.8,
                clients=2,
                crash_rate=0.0,
                latency_spikes=0,
                drops=0,
                duplicates=0,
                flappers=0,
                partitions=0,
            ),
            slo=SloTargets(
                availability=0.98, latency_ms={"p95": 30.0}, window_ops=50
            ),
            schedule=_minority_down_first_half,
        ),
        Scenario(
            name="incident-012-hot-key-zipf",
            summary=(
                "zipf(1.2) key popularity under light faults concentrates"
                " load on the hot key's quorums"
            ),
            config=ChaosConfig(
                ops=400,
                read_fraction=0.7,
                keys=12,
                clients=2,
                skew=1.2,
                crash_rate=0.05,
                latency_spikes=2,
                drops=1,
                duplicates=0,
                flappers=0,
                partitions=0,
            ),
            slo=SloTargets(
                availability=0.97, latency_ms={"p95": 30.0}, window_ops=50
            ),
        ),
        Scenario(
            name="incident-015-cache-avalanche",
            summary=(
                "poisson traffic over the cache tier; warmup leases expire"
                " together into a slow origin"
            ),
            config=ChaosConfig(
                ops=400,
                read_fraction=0.8,
                clients=4,
                crash_rate=0.0,
                latency_spikes=0,
                drops=0,
                duplicates=0,
                flappers=0,
                partitions=0,
                arrival="poisson",
                arrival_rate=400.0,
                cache_ttl_ms=150.0,
                cache_swr_ms=50.0,
            ),
            slo=SloTargets(
                availability=0.98, latency_ms={"p95": 20.0}, window_ops=50
            ),
            schedule=_origin_slow_at_expiry,
        ),
        Scenario(
            name="net-104-lb-oscillation",
            summary=(
                "latency ping-pongs between replica halves every ~50 ops;"
                " hedged requests chase the fast half"
            ),
            config=ChaosConfig(
                ops=400,
                read_fraction=0.7,
                clients=2,
                crash_rate=0.0,
                latency_spikes=0,
                drops=0,
                duplicates=0,
                flappers=0,
                partitions=0,
                hedge_spares=1,
                hedge_delay_ms=2.0,
            ),
            slo=SloTargets(
                availability=0.995, latency_ms={"p95": 25.0}, window_ops=50
            ),
            schedule=_oscillating_halves,
        ),
        Scenario(
            name="obs-103-slo-burn",
            summary=(
                "open-loop poisson through a mid-run latency storm; windowed"
                " burn rates spike while the average stays tame"
            ),
            config=ChaosConfig(
                ops=500,
                read_fraction=0.7,
                keys=16,
                clients=4,
                crash_rate=0.0,
                latency_spikes=0,
                drops=0,
                duplicates=0,
                flappers=0,
                partitions=0,
                arrival="poisson",
                arrival_rate=500.0,
            ),
            slo=SloTargets(
                availability=0.995, latency_ms={"p95": 25.0}, window_ops=50
            ),
            schedule=_midrun_latency_storm,
        ),
    )
}


def get_incident(name: str) -> Scenario:
    """Look an incident up by name (:class:`ServiceError` on unknown)."""
    try:
        return INCIDENTS[name]
    except KeyError:
        known = ", ".join(sorted(INCIDENTS))
        raise ServiceError(f"unknown incident {name!r}; known: {known}")


def list_incidents() -> List[Dict[str, object]]:
    """The ``incident list`` table, name-ordered."""
    return [INCIDENTS[name].describe() for name in sorted(INCIDENTS)]
