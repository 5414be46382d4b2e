"""Tests for the shared workload driver: key weights, op plans, drive()."""

import asyncio

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.runtime import VirtualClock, run_virtual
from repro.runtime.driver import (
    arrival_summary,
    drive,
    key_weights,
    op_plan,
    poisson_arrivals,
)

KEYS = [f"k{index:04d}" for index in range(8)]


class TestKeyWeightsAndPlan:
    def test_key_weights_normalised_and_skewed(self):
        weights = key_weights(10, 1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[-1]
        uniform = key_weights(10, 0.0)
        assert uniform == pytest.approx(np.full(10, 0.1))

    def test_plan_respects_mix_and_seed(self):
        def plan():
            return op_plan(
                np.random.default_rng(0),
                KEYS,
                ops=2000,
                read_fraction=0.75,
                weights=key_weights(len(KEYS), 0.0),
            )

        schedule = plan()
        assert schedule == plan()
        reads = sum(1 for kind, _ in schedule if kind == "read")
        assert reads / len(schedule) == pytest.approx(0.75, abs=0.05)
        assert {key for _, key in schedule} <= set(KEYS)

    def test_uniform_plan_uses_integer_draws(self):
        # weights=None is the uniform plan by integer draws, a different
        # draw sequence from rng.choice over uniform weights.
        rng = np.random.default_rng(3)
        plan = op_plan(rng, KEYS, ops=40, read_fraction=0.5, weights=None)
        reference = np.random.default_rng(3)
        reads = reference.random(40) < 0.5
        indices = reference.integers(0, len(KEYS), size=40)
        assert plan == [
            ("read" if is_read else "write", KEYS[index])
            for is_read, index in zip(reads, indices)
        ]

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_plan_rejects_read_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ServiceError, match=r"read fraction must be in \[0,1\]"):
            op_plan(
                np.random.default_rng(0),
                KEYS,
                ops=5,
                read_fraction=fraction,
                weights=None,
            )

    def test_key_weights_reject_negative_skew(self):
        with pytest.raises(ServiceError, match="skew must be >= 0"):
            key_weights(8, -1.0)


def record_ops(log, *, hold=None):
    """A ``start`` that logs (event, index, worker) and awaits ``hold``."""

    def start(index, worker):
        log.append(("start", index, worker))

        async def op():
            await (hold() if hold is not None else asyncio.sleep(0))
            log.append(("end", index, worker))

        return op()

    return start


class TestClosedLoop:
    def test_starts_every_index_exactly_once_in_order(self):
        log = []
        asyncio.run(drive(50, record_ops(log), workers=4))
        starts = [index for event, index, _ in log if event == "start"]
        assert starts == list(range(50))
        assert sorted(index for event, index, _ in log if event == "end") == starts
        assert {worker for _, _, worker in log} == {0, 1, 2, 3}

    def test_one_worker_never_overlaps_two_ops(self):
        log = []
        asyncio.run(drive(20, record_ops(log), workers=1))
        assert log == [
            (event, index, 0) for index in range(20) for event in ("start", "end")
        ]

    def test_closed_loop_reports_clock_time_and_no_lag(self):
        clock = VirtualClock()
        start = record_ops([], hold=lambda: clock.sleep(2.0))
        elapsed, lag = run_virtual(
            drive(10, start, workers=1, clock=clock), clock=clock
        )
        assert elapsed == pytest.approx(20.0)
        assert lag == 0.0


class TestOpenLoop:
    def test_virtual_clock_gives_zero_lag_and_the_configured_rate(self):
        clock = VirtualClock()
        rate, ops = 500.0, 2000
        arrivals = poisson_arrivals(np.random.default_rng(0), ops, rate)
        spawned = []

        def start(index, worker):
            spawned.append((clock.now(), worker))
            return clock.sleep(5.0)

        elapsed, lag = run_virtual(
            drive(ops, start, workers=3, clock=clock, arrivals=arrivals), clock=clock
        )
        assert lag < 1e-6
        assert [at for at, _ in spawned] == pytest.approx(list(arrivals))
        assert [worker for _, worker in spawned] == [i % 3 for i in range(ops)]
        # The run ends when the last op, spawned at the last arrival,
        # finishes its 5 ms.
        assert elapsed == pytest.approx(arrivals[-1] + 5.0)
        summary = arrival_summary(rate, ops, elapsed, lag)
        assert summary["mode"] == "poisson"
        assert summary["max_spawn_lag_ms"] == lag
        assert summary["achieved_ops_per_s"] == pytest.approx(rate, rel=0.1)

    def test_open_loop_without_a_clock_raises(self):
        arrivals = poisson_arrivals(np.random.default_rng(0), 5, 100.0)
        with pytest.raises(ServiceError, match="clocked transport"):
            asyncio.run(drive(5, record_ops([]), workers=1, arrivals=arrivals))

    def test_start_prefix_runs_before_the_spawning_loop_yields(self):
        # Ops 0-2 arrive at the same instant: all three are started
        # before any of them runs, so each start's synchronous prefix
        # sees the state the loop left, in op order.
        clock = VirtualClock()
        log = []
        arrivals = np.array([1.0, 1.0, 1.0, 4.0])
        run_virtual(
            drive(4, record_ops(log), workers=2, clock=clock, arrivals=arrivals),
            clock=clock,
        )
        assert log[:3] == [("start", 0, 0), ("start", 1, 1), ("start", 2, 0)]
        assert log.index(("start", 3, 1)) > log.index(("end", 2, 0))
