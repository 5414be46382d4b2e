"""Tests for failure injection and measurement helpers."""

import hashlib
import math

import numpy as np
import pytest

from repro.core import SimulationError, Strategy
from repro.runtime import (
    CrashFault,
    DropFault,
    FaultSchedule,
    FlappingFault,
    LatencyFault,
    PartitionFault,
    Window,
    iid_crash_schedule,
)
from repro.sim import (
    AvailabilityProbe,
    LoadMeter,
    Network,
    Node,
    ScheduleInjector,
    Simulator,
    alive_set,
    schedule_availability,
)
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem

class Sink(Node):
    def on_message(self, src, message):
        pass


class TestIidCrashInjector:
    def test_crash_rate(self):
        sim = Simulator(seed=0)
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(10)]
        schedule = iid_crash_schedule(sim.rng, net.node_ids, 0.3, horizon=3000.0)
        ScheduleInjector(net, schedule, horizon=3000.0).start()
        down_fractions = []

        def sample():
            down = sum(1 for i in net.node_ids if not net.node(i).alive)
            down_fractions.append(down / 10)
            if sim.now < 3000:
                sim.schedule(1.0, sample)

        sim.schedule(0.5, sample)
        sim.run(until=3000)
        assert np.mean(down_fractions) == pytest.approx(0.3, abs=0.02)

    def test_validation(self):
        rng = Simulator().rng
        with pytest.raises(SimulationError):
            iid_crash_schedule(rng, [0, 1], 1.5, horizon=10.0)
        with pytest.raises(SimulationError):
            iid_crash_schedule(rng, [0, 1], 0.1, horizon=10.0, epoch=0.0)

    def test_alive_set(self):
        net = Network(Simulator())
        nodes = [Sink(i, net) for i in range(4)]
        nodes[2].crash()
        assert alive_set(net) == frozenset({0, 1, 3})


class TestTargetedAndPartitionInjectors:
    def test_targeted_crash_and_recovery(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(3)]
        schedule = FaultSchedule([CrashFault(frozenset({0, 2}), Window(5.0, 15.0))])
        ScheduleInjector(net, schedule, horizon=20.0).start()
        sim.run(until=6.0)
        assert alive_set(net) == frozenset({1})
        sim.run(until=20.0)
        assert alive_set(net) == frozenset({0, 1, 2})

    def test_partition_injector(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(4)]
        sim.schedule_at(1.0, net.set_partition, [[0, 1], [2, 3]])
        sim.schedule_at(6.0, net.heal_partition)
        sim.run(until=2.0)
        assert not net._connected(0, 2)
        assert net._connected(0, 1)
        sim.run(until=10.0)
        assert net._connected(0, 2)


class TestScheduleInjector:
    def test_applies_crash_windows_eventwise(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(4)]
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0, 2}), Window(5.0, 10.0)),
                CrashFault(frozenset({1}), Window(8.0, 12.0)),
            ]
        )
        ScheduleInjector(net, schedule, horizon=20.0).start()
        sim.run(until=6.0)
        assert alive_set(net) == frozenset({1, 3})
        sim.run(until=9.0)
        assert alive_set(net) == frozenset({3})
        sim.run(until=11.0)
        assert alive_set(net) == frozenset({0, 2, 3})
        sim.run(until=20.0)
        assert alive_set(net) == frozenset({0, 1, 2, 3})

    def test_flapping_fault_toggles(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(2)]
        schedule = FaultSchedule(
            [FlappingFault(frozenset({0}), Window(0.0, 20.0), period=10.0)]
        )
        ScheduleInjector(net, schedule, horizon=20.0).start()
        sim.run(until=2.0)
        assert alive_set(net) == frozenset({1})
        sim.run(until=7.0)
        assert alive_set(net) == frozenset({0, 1})
        sim.run(until=12.0)
        assert alive_set(net) == frozenset({1})

    def test_iid_alive_sets_match_legacy_injector(self):
        # The alive sets the removed imperative iid injector produced at
        # seed 7 (6 nodes, p=0.4, epoch 1, run to t=50): 51 epochs, pinned
        # by sha256 of ``repr([sorted(alive) for alive in seen])``.  The
        # declarative schedule must reproduce them draw-for-draw, read
        # directly at every tick and through the injector alike.
        sim = Simulator(seed=7)
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(6)]
        schedule = iid_crash_schedule(sim.rng, net.node_ids, 0.4, horizon=50.0)
        direct = [frozenset(range(6)) - schedule.crash_down_at(float(t)) for t in range(51)]
        ScheduleInjector(net, schedule, horizon=50.0).start()
        injected = []
        for tick in range(51):
            sim.run(until=float(tick))
            injected.append(alive_set(net))
        assert injected == direct
        canonical = repr([sorted(alive) for alive in direct])
        assert canonical.startswith("[[0, 1, 2, 5], [1, 2, 3], [1, 2, 3, 4, 5],")
        assert (
            hashlib.sha256(canonical.encode()).hexdigest()
            == "01640e7bc957e23c29702de5f164db13033e209ddefbd9f64fd4f28c4e88f24e"
        )

    def test_flapping_window_closing_while_down_recovers(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(2)]
        fault = FlappingFault(
            frozenset({0}), Window(0.0, 10.0), period=4.0, down_fraction=0.75
        )
        ScheduleInjector(net, FaultSchedule([fault]), horizon=10.5).start()
        sim.run(until=9.9)
        assert alive_set(net) == frozenset({1})
        sim.run(until=10.4)
        assert alive_set(net) == frozenset({0, 1})

    def test_down_set_matches_schedule_between_change_points(self):
        # Random crash and flapping schedules: at every change point and
        # between two of them, the injector's down-set must be the
        # schedule's.  Times are multiples of 1/8, so the midpoints are
        # exact; tests/runtime/test_fault_index.py draws float schedules.
        rng = np.random.default_rng(15)
        size = 6
        mismatches = []
        for trial in range(150):
            faults = []
            for _ in range(int(rng.integers(1, 7))):
                count = int(rng.integers(1, 3))
                replicas = frozenset(int(r) for r in rng.choice(size, count, replace=False))
                start = int(rng.integers(0, 240)) / 8
                end = math.inf if rng.random() < 0.2 else start + int(rng.integers(1, 240)) / 8
                if rng.random() < 0.4:
                    faults.append(CrashFault(replicas, Window(start, end)))
                else:
                    period = int(rng.integers(2, 64)) / 4
                    down_fraction = float(rng.choice([0.25, 0.5, 0.75]))
                    faults.append(
                        FlappingFault(replicas, Window(start, end), period, down_fraction)
                    )
            schedule = FaultSchedule(faults)
            horizon = int(rng.integers(80, 480)) / 8
            sim = Simulator()
            net = Network(sim)
            nodes = [Sink(i, net) for i in range(size)]
            ScheduleInjector(net, schedule, horizon=horizon).start()
            points = schedule.change_points(horizon) + [horizon]
            for left, right in zip(points, points[1:]):
                for now in (left, (left + right) / 2):
                    sim.run(until=now)
                    expected = frozenset(range(size)) - schedule.crash_down_at(now)
                    if alive_set(net) != expected:
                        mismatches.append((trial, now))
        assert mismatches == []

    def test_validation(self):
        net = Network(Simulator())
        with pytest.raises(SimulationError):
            ScheduleInjector(net, FaultSchedule(), horizon=-1.0)

    def test_changes_past_the_horizon_are_not_applied(self):
        sim = Simulator()
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(2)]
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0}), Window(2.0, 6.0)),
                CrashFault(frozenset({1}), Window(5.0)),
            ]
        )
        ScheduleInjector(net, schedule, horizon=4.0).start()
        sim.run(until=3.0)
        assert alive_set(net) == frozenset({1})
        sim.run(until=10.0)
        assert alive_set(net) == frozenset({1})


class TestScheduleAvailability:
    def test_converges_to_analytic(self):
        system = MajorityQuorumSystem.of_size(5)
        schedule = iid_crash_schedule(
            np.random.default_rng(11), range(system.n), 0.3, horizon=30_000.0
        )
        probe = schedule_availability(system, schedule, 30_001)
        exact = system.failure_probability(0.3)
        assert probe.epochs == 30_001
        assert abs(probe.failure_rate - exact) < probe.confidence_half_width() + 0.01

    def test_counts_ticks_without_a_live_quorum(self):
        # Majority of 3: two down is a failure.  Ticks 0..9; replicas 0
        # and 1 are both down at ticks 2, 3 and 4, and replica 2 flaps
        # down on [6, 7) and [8, 9), which with 0 down fails ticks 6, 8.
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0}), Window(2.0, 9.0)),
                CrashFault(frozenset({1}), Window(1.0, 5.0)),
                FlappingFault(frozenset({2}), Window(6.0), period=2.0),
            ]
        )
        probe = schedule_availability(MajorityQuorumSystem.of_size(3), schedule, 10)
        assert probe == AvailabilityProbe(epochs=10, failures=5)
        assert probe.failure_rate == 0.5

    def test_no_ticks_is_an_empty_probe(self):
        schedule = FaultSchedule([CrashFault(frozenset({0, 1}), Window(0.0))])
        probe = schedule_availability(MajorityQuorumSystem.of_size(3), schedule, 0)
        assert probe == AvailabilityProbe(epochs=0, failures=0)

    def test_link_faults_take_no_element_down(self):
        # Only crash and flapping rules are node failures: a schedule of
        # partitions, drops and latency spikes leaves every tick live.
        everyone = frozenset({0, 1, 2})
        schedule = FaultSchedule(
            [
                PartitionFault(everyone, Window(0.0)),
                DropFault(everyone, Window(0.0), probability=1.0),
                LatencyFault(everyone, Window(0.0), extra=5.0),
            ]
        )
        probe = schedule_availability(MajorityQuorumSystem.of_size(3), schedule, 20)
        assert probe == AvailabilityProbe(epochs=20, failures=0)

    def test_confidence_half_width_is_the_normal_interval(self):
        probe = AvailabilityProbe(epochs=400, failures=100)
        assert probe.confidence_half_width() == pytest.approx(
            2.5758 * math.sqrt(0.25 * 0.75 / 400)
        )
        assert probe.confidence_half_width(z=1.96) == pytest.approx(
            1.96 * math.sqrt(0.25 * 0.75 / 400)
        )

    def test_empty_probe(self):
        probe = AvailabilityProbe(epochs=0, failures=0)
        assert probe.failure_rate == 0.0
        assert probe.confidence_half_width() == 1.0


class TestLoadMeter:
    def test_counts(self):
        meter = LoadMeter(4)
        meter.record_quorum({0, 1})
        meter.record_quorum({1, 2})
        loads = meter.empirical_loads()
        assert loads[1] == pytest.approx(1.0)
        assert loads[0] == pytest.approx(0.5)
        assert meter.max_load == pytest.approx(1.0)

    def test_empty(self):
        assert LoadMeter(3).max_load == 0.0

    def test_converges_to_strategy_load(self):
        system = HierarchicalTriangle(4)
        strategy = Strategy.uniform(system)
        meter = LoadMeter(system.n)
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            meter.record_quorum(strategy.sample(rng))
        assert meter.max_load == pytest.approx(strategy.induced_load(), abs=0.01)
