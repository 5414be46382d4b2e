"""Tests for runtime fault-model additions (the schedule core is covered
by ``tests/service/test_faults.py``, which exercises it through the
service re-export)."""

import numpy as np
import pytest

from repro.core import SimulationError
from repro.core.errors import ServiceError
from repro.runtime import (
    ByzantineFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultSchedule,
    FlappingFault,
    Window,
    iid_crash_schedule,
    sample_iid_crash_set,
)


class TestIidCrashSchedule:
    def test_matches_raw_sampling_stream(self):
        # The schedule consumes one draw per id per epoch in id order —
        # the exact stream the legacy injector consumed.
        ids = list(range(5))
        schedule = iid_crash_schedule(
            np.random.default_rng(9), ids, 0.5, horizon=3.0, epoch=1.0
        )
        reference = np.random.default_rng(9)
        for index in range(4):  # epochs at t = 0, 1, 2 and 3 (inclusive)
            expected = sample_iid_crash_set(reference, ids, 0.5)
            assert schedule.crash_down_at(index + 0.5) == expected

    def test_draw_count_includes_horizon_boundary(self):
        # run(until=horizon) fires the event at exactly t == horizon, so
        # the schedule draws floor(horizon/epoch) + 1 crash sets.
        ids = list(range(20))
        rng = np.random.default_rng(0)
        iid_crash_schedule(rng, ids, 0.5, horizon=10.0, epoch=1.0)
        follow_on = rng.random()
        reference = np.random.default_rng(0)
        reference.random(11 * len(ids))
        assert follow_on == reference.random()

    def test_windows_cover_each_epoch(self):
        schedule = iid_crash_schedule(
            np.random.default_rng(1), range(10), 0.9, horizon=2.0, epoch=1.0
        )
        for fault in schedule:
            assert fault.window.end - fault.window.start == pytest.approx(1.0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            iid_crash_schedule(rng, [0], 0.5, horizon=1.0, epoch=0.0)
        with pytest.raises(SimulationError):
            iid_crash_schedule(rng, [0], 0.5, horizon=-1.0)
        with pytest.raises(SimulationError):
            iid_crash_schedule(rng, [0], 1.5, horizon=1.0)


class TestChangePoints:
    def test_crash_window_boundaries(self):
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0}), Window(2.0, 5.0)),
                CrashFault(frozenset({1}), Window(4.0, 9.0)),
            ]
        )
        assert schedule.change_points(10.0) == [0.0, 2.0, 4.0, 5.0, 9.0]

    def test_flapping_phase_toggles(self):
        schedule = FaultSchedule(
            [FlappingFault(frozenset({0}), Window(0.0, 20.0), period=10.0)]
        )
        points = schedule.change_points(20.0)
        assert points == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_link_faults_ignored(self):
        schedule = FaultSchedule(
            [DropFault(frozenset({0}), Window(3.0, 7.0), probability=1.0)]
        )
        assert schedule.change_points(10.0) == [0.0]

    def test_clamped_to_horizon(self):
        schedule = FaultSchedule([CrashFault(frozenset({0}), Window(2.0, 50.0))])
        assert schedule.change_points(10.0) == [0.0, 2.0]

    def test_flapping_window_closing_while_down(self):
        # Down 3 of every 4 ticks: the window closes at 10, inside the
        # third down phase, and that is when the node comes back up.
        fault = FlappingFault(
            frozenset({0}), Window(0.0, 10.0), period=4.0, down_fraction=0.75
        )
        schedule = FaultSchedule([fault])
        assert schedule.change_points(10.5) == [0.0, 3.0, 4.0, 7.0, 8.0, 10.0]
        assert schedule.crash_down_at(9.9) == frozenset({0})
        assert schedule.crash_down_at(10.4) == frozenset()


class TestFlappingDown:
    # Down for the first half of every 4-tick cycle from t = 1, forever.
    HALF = FlappingFault(frozenset({0}), Window(1.0), period=4.0)

    @pytest.mark.parametrize(
        "now, down",
        [
            (0.5, False),
            (1.0, True),
            (2.999, True),
            (3.0, False),
            (5.0, True),
            (7.0, False),
            (1.0 + 1000 * 4.0, True),
        ],
    )
    def test_down_for_the_first_fraction_of_each_cycle(self, now, down):
        assert self.HALF.down(now) is down

    def test_full_down_fraction_is_down_until_the_window_ends(self):
        fault = FlappingFault(
            frozenset({0}), Window(2.0, 10.0), period=3.0, down_fraction=1.0
        )
        times = (1.99, 2.0, 4.99, 5.0, 8.0, 9.99, 10.0)
        assert [fault.down(now) for now in times] == [False] + [True] * 5 + [False]

    def test_tenth_tick_cycles_flip_at_their_edge_expressions(self):
        # Period 0.1 from t = 0.1: a remainder (now - start) % period
        # rounds to just under the period at some cycle starts.  Down
        # starts at start + k*period and ends at base + period*fraction,
        # the expressions change_points computes.
        fault = FlappingFault(frozenset({0}), Window(0.1), period=0.1)
        for cycle in range(200):
            base = 0.1 + cycle * 0.1
            assert fault.down(base), cycle
            assert not fault.down(base + 0.1 * 0.5), cycle


class TestByzantineFault:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError):
            ByzantineFault(frozenset({0}), Window(0.0), mode="gaslight")

    def test_default_mode_is_wrong_value(self):
        fault = ByzantineFault(frozenset({0}), Window(0.0))
        assert fault.mode == "wrong_value"
        assert fault.kind == "byzantine"

    def test_mode_query_respects_window_and_membership(self):
        schedule = FaultSchedule(
            [ByzantineFault(frozenset({1, 3}), Window(5.0, 10.0), mode="equivocate")]
        )
        assert schedule.byzantine_mode_at(7.0, 1) == "equivocate"
        assert schedule.byzantine_mode_at(7.0, 3) == "equivocate"
        assert schedule.byzantine_mode_at(7.0, 2) is None
        assert schedule.byzantine_mode_at(4.9, 1) is None
        assert schedule.byzantine_mode_at(10.0, 1) is None  # half-open

    def test_first_active_rule_wins(self):
        schedule = FaultSchedule(
            [
                ByzantineFault(frozenset({0}), Window(0.0), mode="stale_timestamp"),
                ByzantineFault(frozenset({0}), Window(0.0), mode="wrong_value"),
            ]
        )
        assert schedule.byzantine_mode_at(1.0, 0) == "stale_timestamp"

    def test_byzantine_replicas_unions_all_rules(self):
        schedule = FaultSchedule(
            [
                ByzantineFault(frozenset({0}), Window(0.0, 5.0)),
                ByzantineFault(frozenset({2, 4}), Window(50.0), mode="equivocate"),
                CrashFault(frozenset({1}), Window(0.0)),
            ]
        )
        assert schedule.byzantine_replicas() == frozenset({0, 2, 4})

    def test_byzantine_does_not_join_crash_down_set(self):
        # Liars look healthy: reachability queries must not exclude them.
        schedule = FaultSchedule([ByzantineFault(frozenset({0}), Window(0.0))])
        assert schedule.crash_down_at(1.0) == frozenset()
        assert schedule.change_points(10.0) == [0.0]

    def test_to_dict_counts_byzantine_rules(self):
        schedule = FaultSchedule(
            [
                ByzantineFault(frozenset({0}), Window(0.0)),
                CrashFault(frozenset({1}), Window(0.0, 5.0)),
            ]
        )
        assert schedule.to_dict()["by_kind"] == {"byzantine": 1, "crash": 1}


class TestRuleValidation:
    """Rules that could never behave as written are refused at construction."""

    @pytest.mark.parametrize("period", [0.0, -8.0, float("nan")])
    def test_flapping_period_must_be_positive(self, period):
        with pytest.raises(ServiceError, match="period"):
            FlappingFault(frozenset({0}), Window(0.0, 40.0), period=period)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_flapping_down_fraction_must_be_a_fraction(self, fraction):
        with pytest.raises(ServiceError, match="down_fraction"):
            FlappingFault(frozenset({0}), Window(0.0), down_fraction=fraction)

    def test_drop_direction_must_be_known(self):
        # "requests" used to be accepted and then never fire.
        with pytest.raises(ServiceError, match="direction"):
            DropFault(frozenset({0}), Window(0.0), direction="requests")

    @pytest.mark.parametrize("probability", [-0.01, 1.01, float("nan")])
    def test_probabilities_must_be_in_the_unit_interval(self, probability):
        with pytest.raises(ServiceError, match="drop probability"):
            DropFault(frozenset({0}), Window(0.0), probability=probability)
        with pytest.raises(ServiceError, match="duplicate probability"):
            DuplicateFault(frozenset({0}), Window(0.0), probability=probability)

    def test_boundary_values_are_legal(self):
        FlappingFault(frozenset({0}), Window(0.0), period=1e-3, down_fraction=0.0)
        FlappingFault(frozenset({0}), Window(0.0), down_fraction=1.0)
        for probability in (0.0, 1.0):
            DropFault(frozenset({0}), Window(0.0), probability=probability, direction="response")
            DuplicateFault(frozenset({0}), Window(0.0), probability=probability)

    @pytest.mark.parametrize("epoch", [0.0, -5.0])
    def test_random_rejects_a_non_positive_epoch(self, epoch):
        with pytest.raises(ServiceError, match="crash epoch must be positive"):
            FaultSchedule.random(np.random.default_rng(0), range(5), 100.0, epoch=epoch)

    def test_random_schedules_stay_legal(self):
        schedule = FaultSchedule.random(
            np.random.default_rng(4), range(9), 400.0, partitions=2, flappers=3
        )
        assert schedule.change_points(400.0)[0] == 0.0
