"""Tests for failure injection, metrics and workload generators."""

import hashlib
import math

import numpy as np
import pytest

from repro.core import SimulationError, Strategy
from repro.runtime import CrashFault, FaultSchedule, FlappingFault, Window
from repro.sim import (
    AvailabilityProbe,
    ClosedLoopWorkload,
    LatencyStats,
    LoadMeter,
    Network,
    Node,
    PoissonWorkload,
    QuorumPicker,
    ScheduleInjector,
    Simulator,
    alive_set,
    iid_crash_schedule,
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
        ScheduleInjector(net, schedule, horizon=3000.0, step=1.0).start()
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

    def test_step_mode_matches_legacy_injector(self):
        # The alive sets the removed imperative iid injector produced at
        # seed 7 (6 nodes, p=0.4, epoch 1, run to t=50): 51 epochs, pinned
        # by sha256 of ``repr([sorted(alive) for alive in seen])``.  The
        # declarative schedule must reproduce them draw-for-draw.
        sim = Simulator(seed=7)
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(6)]
        seen = []
        schedule = iid_crash_schedule(sim.rng, net.node_ids, 0.4, horizon=50.0)
        ScheduleInjector(
            net,
            schedule,
            horizon=50.0,
            step=1.0,
            on_step=lambda index: seen.append(alive_set(net)),
        ).start()
        sim.run(until=50.0)
        canonical = repr([sorted(alive) for alive in seen])
        assert len(seen) == 51
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
        # Random crash and flapping schedules: between two change points
        # the injector's down-set must be the schedule's.  Compared at
        # interval midpoints, because exactly at a flapping boundary
        # FlappingFault.down's float modulo may round either way.  Times
        # are multiples of 1/8, so the midpoints themselves are exact.
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
                middle = (left + right) / 2
                sim.run(until=middle)
                expected = frozenset(range(size)) - schedule.crash_down_at(middle)
                if alive_set(net) != expected:
                    mismatches.append((trial, middle))
        assert mismatches == []

    def test_validation(self):
        net = Network(Simulator())
        with pytest.raises(SimulationError):
            ScheduleInjector(
                net, FaultSchedule(), horizon=10.0, on_step=lambda index: None
            )
        with pytest.raises(SimulationError):
            ScheduleInjector(net, FaultSchedule(), horizon=10.0, step=0.0)


class TestAvailabilityProbe:
    def test_converges_to_analytic(self):
        system = MajorityQuorumSystem.of_size(5)
        sim = Simulator(seed=11)
        net = Network(sim)
        nodes = [Sink(i, net) for i in range(system.n)]
        probe = AvailabilityProbe(system, net)
        schedule = iid_crash_schedule(sim.rng, net.node_ids, 0.3, horizon=30_000.0)
        ScheduleInjector(
            net, schedule, horizon=30_000.0, step=1.0, on_step=probe.observe
        ).start()
        sim.run(until=30_000)
        exact = system.failure_probability(0.3)
        assert abs(probe.failure_rate - exact) < probe.confidence_half_width() + 0.01

    def test_empty_probe(self):
        net = Network(Simulator())
        Sink(0, net)
        probe = AvailabilityProbe(MajorityQuorumSystem.of_size(1), net)
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


class TestLatencyStats:
    def test_aggregates(self):
        stats = LatencyStats()
        for value in (1.0, 2.0, 3.0):
            stats.record(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.percentile(50) == pytest.approx(2.0)

    def test_empty(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.percentile(99) == 0.0


class TestWorkloads:
    def test_closed_loop_completes_all(self):
        sim = Simulator(seed=0)
        completions = []

        def operation(on_done):
            sim.schedule(1.0, on_done, "ok")

        workload = ClosedLoopWorkload(sim, operation, think_time=0.5, operations=20)
        workload.start()
        sim.run()
        assert len(workload.completed) == 20

    def test_poisson_rate(self):
        sim = Simulator(seed=1)
        workload = PoissonWorkload(sim, lambda: None, rate=2.0, stop_at=1000.0)
        workload.start()
        sim.run(until=1100.0)
        # ~2000 arrivals expected.
        assert 1800 < workload.issued < 2200

    def test_poisson_validation(self):
        with pytest.raises(SimulationError):
            PoissonWorkload(Simulator(), lambda: None, rate=0.0)

    def test_quorum_picker(self):
        system = HierarchicalTriangle(3)
        picker = QuorumPicker(Strategy.uniform(system), fallbacks=2)
        sim = Simulator(seed=0)
        candidates = picker.pick(sim)
        assert len(candidates) == 3
        for quorum in candidates:
            assert system.contains_quorum(quorum)

    def test_quorum_picker_validation(self):
        system = HierarchicalTriangle(3)
        with pytest.raises(SimulationError):
            QuorumPicker(Strategy.uniform(system), fallbacks=-1)
