"""The segment-indexed ``FaultSchedule`` queries against a naive reference.

The reference below is the plain definition: scan every rule of the
schedule, in order, and keep the ones whose half-open window contains
the tick.  It lives only here.  Hypothesis draws schedules of all seven
rule kinds with overlapping, empty and unbounded windows, then every
query must agree with the reference exactly (floats included: latency
composes in rule order), at random ticks and at every window boundary
and the float just below it.

The crash/flap timeline has a second reference: the sorted
``(time, +1/-1, replicas)`` edge events of every crash window and
flapping cycle, folded in time order.  ``FaultSchedule.crash_down_at``,
the fold and the simulator's ``ScheduleInjector`` must agree at every
change point of random float schedules and at random ticks.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.runtime import (
    ByzantineFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultSchedule,
    FlappingFault,
    LatencyFault,
    PartitionFault,
    Window,
    iid_crash_schedule,
)
from repro.runtime.faults import BYZANTINE_MODES
from repro.sim import Network, Node, ScheduleInjector, Simulator, alive_set

REPLICAS = range(6)
SITES = range(3)


# ----------------------------------------------------------------------
# The reference: a linear scan per query
# ----------------------------------------------------------------------
def active(faults, kind, now):
    return [f for f in faults if isinstance(f, kind) and f.window.start <= now < f.window.end]


def ref_crash_down_at(faults, now):
    down = set()
    for fault in active(faults, CrashFault, now):
        down |= fault.replicas
    for fault in faults:
        if isinstance(fault, FlappingFault) and fault.down(now):
            down |= fault.replicas
    return frozenset(down)


def ref_unreachable_at(faults, now, site):
    down = set(ref_crash_down_at(faults, now))
    for fault in active(faults, PartitionFault, now):
        if fault.sites is None or site in fault.sites:
            down |= fault.unreachable
    return frozenset(down)


def ref_latency_at(faults, now, replica, latency):
    for fault in active(faults, LatencyFault, now):
        if replica in fault.replicas:
            latency = latency * fault.factor + fault.extra
    return latency


def ref_drop_probability(faults, now, replica, direction):
    return max(
        [
            f.probability
            for f in active(faults, DropFault, now)
            if f.direction == direction and replica in f.replicas
        ],
        default=0.0,
    )


def ref_duplicate_probability(faults, now, replica):
    return max(
        [f.probability for f in active(faults, DuplicateFault, now) if replica in f.replicas],
        default=0.0,
    )


def ref_byzantine_mode_at(faults, now, replica):
    for fault in active(faults, ByzantineFault, now):
        if replica in fault.replicas:
            return fault.mode
    return None


# ----------------------------------------------------------------------
# Schedule generators
# ----------------------------------------------------------------------
# Starts and lengths on a coarse grid, so windows share boundaries and
# overlap often; a zero length is an empty window, inf an unbounded one.
starts = st.sampled_from([-math.inf, 0.0, 1.0, 2.5, 4.0, 5.0, 7.5, 10.0])
lengths = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 6.0, math.inf])
windows = st.builds(lambda start, length: Window(start, start + length), starts, lengths)
replica_sets = st.frozensets(st.sampled_from(REPLICAS), max_size=4)
one_replica = st.sampled_from(REPLICAS).map(lambda r: frozenset({r}))
probabilities = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9])

rules = st.one_of(
    st.builds(CrashFault, replica_sets, windows),
    st.builds(
        FlappingFault,
        replica_sets,
        windows,
        period=st.sampled_from([1.0, 2.5, 8.0]),
        down_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    ),
    st.builds(
        PartitionFault,
        replica_sets,
        windows,
        sites=st.none() | st.frozensets(st.sampled_from(SITES), min_size=1),
    ),
    st.builds(
        LatencyFault,
        replica_sets,
        windows,
        extra=st.sampled_from([0.0, 0.7, 3.0]),
        factor=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
    ),
    st.builds(
        DropFault,
        replica_sets,
        windows,
        probability=probabilities,
        direction=st.sampled_from(["request", "response"]),
    ),
    st.builds(DuplicateFault, replica_sets, windows, probability=probabilities),
    st.builds(ByzantineFault, replica_sets, windows, mode=st.sampled_from(BYZANTINE_MODES)),
)


@st.composite
def schedules(draw):
    """Random rules plus, always, two latency rules and two Byzantine
    rules on one replica (the order-sensitive queries), shuffled."""
    faults = draw(st.lists(rules, max_size=14))
    replica = draw(one_replica)
    for _ in range(2):
        faults.append(
            LatencyFault(
                replica,
                draw(windows),
                extra=draw(st.sampled_from([0.0, 0.7, 3.0])),
                factor=draw(st.sampled_from([1.3, 2.0])),
            )
        )
        faults.append(
            ByzantineFault(replica, draw(windows), mode=draw(st.sampled_from(BYZANTINE_MODES)))
        )
    return draw(st.permutations(faults))


def probe_ticks(faults, extra):
    """Every finite boundary, the float just below it, and random ticks."""
    ticks = set(extra)
    for fault in faults:
        for edge in fault.window:
            if math.isfinite(edge):
                ticks.update((edge, math.nextafter(edge, -math.inf)))
    return sorted(ticks)


def assert_matches_reference(schedule, faults, ticks):
    for now in probe_ticks(faults, ticks):
        assert schedule.crash_down_at(now) == ref_crash_down_at(faults, now), now
        for site in SITES:
            assert schedule.unreachable_at(now, site) == ref_unreachable_at(faults, now, site)
        for replica in REPLICAS:
            assert schedule.latency_at(now, replica, 1.7) == ref_latency_at(
                faults, now, replica, 1.7
            )
            for direction in ("request", "response"):
                assert schedule.drop_probability(now, replica, direction) == (
                    ref_drop_probability(faults, now, replica, direction)
                )
            assert schedule.duplicate_probability(now, replica) == (
                ref_duplicate_probability(faults, now, replica)
            )
            assert schedule.byzantine_mode_at(now, replica) == (
                ref_byzantine_mode_at(faults, now, replica)
            )


random_ticks = st.lists(st.floats(-3.0, 25.0, allow_nan=False), max_size=8)


def ref_latency_rules(faults, now, replica):
    return tuple(
        (f.factor, f.extra) for f in active(faults, LatencyFault, now) if replica in f.replicas
    )


def assert_view_and_rules_match_reference(schedule, faults, ticks):
    for now in probe_ticks(faults, ticks):
        for site in SITES:
            view = schedule.view(now, site)
            assert view.down == ref_crash_down_at(faults, now), now
            assert view.unreachable == ref_unreachable_at(faults, now, site), now
        for replica in REPLICAS:
            rules = schedule.replica_rules(view.segment, replica)
            assert rules.drop_request == ref_drop_probability(faults, now, replica, "request")
            assert rules.drop_response == ref_drop_probability(faults, now, replica, "response")
            assert rules.duplicate == ref_duplicate_probability(faults, now, replica)
            assert rules.latency == ref_latency_rules(faults, now, replica)
            assert rules.delay(1.7) == ref_latency_at(faults, now, replica, 1.7)
            assert rules.byzantine == ref_byzantine_mode_at(faults, now, replica)


# A flapper starting off the tick grid, probed far into its window, where
# a float remainder would put the phase just below 8: (33.3 - 1.3) % 8.
# Its cycle 4 starts at 1.3 + 4*8 == 33.3, the change point, so it is down.
late_flap = [FlappingFault(frozenset({1}), Window(1.3, 60.0), period=8.0)]


@settings(max_examples=150, deadline=None)
@given(faults=schedules(), ticks=random_ticks)
@example(faults=late_flap, ticks=[1.3 + 4 * 8, 33.3 - 4.0, 41.3])
@example(
    faults=[
        PartitionFault(frozenset({0, 1}), Window(0.0, 9.0), sites=frozenset({0})),
        PartitionFault(frozenset({2}), Window(2.0), sites=frozenset({1, 2})),
        CrashFault(frozenset({3}), Window(1.0, 4.0)),
    ]
    + late_flap,
    ticks=[0.5, 3.0, 8.0, 33.3],
)
def test_view_and_replica_rules_match_linear_scan(faults, ticks):
    schedule = FaultSchedule(faults)
    assert_view_and_rules_match_reference(schedule, faults, ticks)


def test_late_flap_is_down_at_its_cycle_start():
    schedule = FaultSchedule(late_flap)
    assert 1.3 + 4 * 8 in schedule.change_points(60.0)
    assert schedule.crash_down_at(1.3 + 4 * 8) == frozenset({1})
    assert schedule.crash_down_at(1.3 + 4 * 8 + 4.0) == frozenset()


def test_view_segment_is_constant_between_boundaries():
    schedule = FaultSchedule(
        [
            LatencyFault(frozenset({0}), Window(2.0, 6.0), extra=1.0, factor=2.0),
            LatencyFault(frozenset({0}), Window(4.0), factor=3.0),
            FlappingFault(frozenset({1}), Window(0.0, 8.0), period=2.0),
        ]
    )
    segments = [schedule.view(now).segment for now in (0.0, 1.9, 2.0, 3.9, 4.0, 5.9, 6.0, 99.0)]
    assert segments == [1, 1, 2, 2, 3, 3, 4, 5]
    # The flapper changes the down-set inside a segment; the rules of a
    # segment do not change.
    assert schedule.view(0.5).down == {1} and schedule.view(1.5).down == frozenset()
    assert schedule.replica_rules(2, 0).latency == ((2.0, 1.0),)
    assert schedule.replica_rules(3, 0).latency == ((2.0, 1.0), (3.0, 0.0))
    assert schedule.replica_rules(4, 0).latency == ((3.0, 0.0),)


@settings(max_examples=150, deadline=None)
@given(faults=schedules(), ticks=random_ticks)
def test_queries_match_linear_scan(faults, ticks):
    schedule = FaultSchedule(faults)
    assert_matches_reference(schedule, faults, ticks)
    liars = set()
    for fault in faults:
        if isinstance(fault, ByzantineFault):
            liars |= fault.replicas
    assert schedule.byzantine_replicas() == frozenset(liars)


@settings(max_examples=60, deadline=None)
@given(first=schedules(), more=st.lists(rules, max_size=6), ticks=random_ticks)
def test_extended_schedule_matches_linear_scan(first, more, ticks):
    base = FaultSchedule(first)
    assert_matches_reference(base, first, ticks)  # builds the base index
    extended = base.extended(more)
    assert_matches_reference(extended, first + list(more), ticks)
    assert_matches_reference(base, first, ticks)  # base is unchanged


def test_boundaries_are_half_open():
    schedule = FaultSchedule([CrashFault(frozenset({1}), Window(2.0, 5.0))])
    assert schedule.crash_down_at(math.nextafter(2.0, -math.inf)) == frozenset()
    assert schedule.crash_down_at(2.0) == frozenset({1})
    assert schedule.crash_down_at(math.nextafter(5.0, -math.inf)) == frozenset({1})
    assert schedule.crash_down_at(5.0) == frozenset()


def test_one_rule_segment_holds_the_rules_own_set():
    schedule = iid_crash_schedule(np.random.default_rng(1), range(5), 0.25, horizon=200.0)
    crashes = {fault.window.start: fault.replicas for fault in schedule}
    assert len(crashes) > 100
    for start, replicas in crashes.items():
        assert schedule.crash_down_at(start) is replicas
    # Every crash-free epoch shares one empty set.
    free = [float(tick) for tick in range(201) if float(tick) not in crashes]
    assert free and len({id(schedule.crash_down_at(tick)) for tick in free}) == 1
    # Overlapping rules still take the union.
    union = FaultSchedule(
        [CrashFault(frozenset({1}), Window(0.0, 4.0)), CrashFault(frozenset({2}), Window(2.0))]
    )
    assert union.crash_down_at(3.0) == frozenset({1, 2})


def test_latency_rules_compose_in_schedule_order():
    first = LatencyFault(frozenset({0}), Window(0.0, 10.0), extra=1.0, factor=2.0)
    second = LatencyFault(frozenset({0}), Window(5.0), extra=0.0, factor=3.0)
    assert FaultSchedule([first, second]).latency_at(6.0, 0, 1.0) == (1.0 * 2 + 1) * 3
    assert FaultSchedule([second, first]).latency_at(6.0, 0, 1.0) == 1.0 * 3 * 2 + 1


def test_first_byzantine_rule_wins():
    lie = ByzantineFault(frozenset({2}), Window(0.0, 4.0), mode="equivocate")
    roll = ByzantineFault(frozenset({2}), Window(1.0), mode="stale_timestamp")
    schedule = FaultSchedule([lie, roll])
    assert schedule.byzantine_mode_at(2.0, 2) == "equivocate"
    assert schedule.byzantine_mode_at(4.0, 2) == "stale_timestamp"
    assert schedule.byzantine_mode_at(0.5, 2) == "equivocate"


def test_index_is_built_only_by_tick_queries():
    schedule = iid_crash_schedule(np.random.default_rng(0), range(5), 0.3, horizon=50.0)
    schedule.to_dict()
    schedule.change_points(50.0)
    extended = schedule.extended([DropFault(frozenset({0}), Window(3.0, 9.0))])
    assert "_index" not in vars(schedule) and "_index" not in vars(extended)
    extended.drop_probability(4.0, 0, "request")
    assert "_index" in vars(extended) and "_index" not in vars(schedule)


# ----------------------------------------------------------------------
# The crash/flap timeline against its edge-event fold
# ----------------------------------------------------------------------
def ref_down_events(faults, horizon):
    """Sorted ``(time, +1/-1, replicas)`` down-set change events: every
    crash window's edges and every flapping cycle's, up to ``horizon``.
    At one instant a +1 sorts before a -1."""
    events = []
    for fault in faults:
        if isinstance(fault, CrashFault):
            if fault.window.start > horizon:
                continue
            events.append((fault.window.start, +1, fault.replicas))
            if fault.window.end != math.inf:
                events.append((fault.window.end, -1, fault.replicas))
        elif isinstance(fault, FlappingFault):
            start, end = fault.window
            half = fault.period * fault.down_fraction
            cycle = 0
            while True:
                base = start + cycle * fault.period
                if base >= end or base > horizon:
                    break
                events.append((base, +1, fault.replicas))
                events.append((min(base + half, end), -1, fault.replicas))
                cycle += 1
    events.sort(key=lambda event: (event[0], -event[1]))
    return events


def ref_fold_down_sets(faults, horizon, times):
    """The down-set at each of the ascending ``times``: fold in every
    event at or before the time (so a window's end event fires at its
    end, the half-open semantics)."""
    events = ref_down_events(faults, horizon)
    counts = {}
    cursor = 0
    for now in times:
        while cursor < len(events) and events[cursor][0] <= now:
            _, sign, replicas = events[cursor]
            for replica in replicas:
                counts[replica] = counts.get(replica, 0) + sign
            cursor += 1
        yield frozenset(replica for replica, count in counts.items() if count > 0)


class Sink(Node):
    def on_message(self, src, message):
        pass


TIMELINE_HORIZON = 64.0
float_starts = st.floats(0.0, 48.0, allow_nan=False)
float_ends = st.one_of(st.just(math.inf), st.floats(0.0, 40.0, allow_nan=False))


@st.composite
def float_windows(draw):
    start = draw(float_starts)
    return Window(start, start + draw(float_ends))


timeline_rules = st.one_of(
    st.builds(CrashFault, replica_sets, float_windows()),
    st.builds(
        FlappingFault,
        replica_sets,
        float_windows(),
        period=st.floats(0.25, 16.0, allow_nan=False),
        down_fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    ),
)


@settings(deadline=None)
@given(
    faults=st.lists(timeline_rules, min_size=1, max_size=6),
    ticks=st.lists(st.floats(0.0, TIMELINE_HORIZON, allow_nan=False), max_size=16),
)
@example(faults=late_flap, ticks=[33.3, 37.3])
def test_crash_timeline_matches_edge_fold_and_injector(faults, ticks):
    schedule = FaultSchedule(faults)
    times = sorted(set(schedule.change_points(TIMELINE_HORIZON)) | set(ticks))
    sim = Simulator()
    network = Network(sim)
    for replica in REPLICAS:
        Sink(replica, network)
    ScheduleInjector(network, schedule, horizon=TIMELINE_HORIZON).start()
    everyone = frozenset(REPLICAS)
    for now, folded in zip(times, ref_fold_down_sets(faults, TIMELINE_HORIZON, times)):
        sim.run(until=now)
        assert schedule.crash_down_at(now) == folded, now
        assert everyone - alive_set(network) == folded, now
