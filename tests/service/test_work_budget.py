"""Work budgets of one virtual-time chaos run.

The fault layer and the strategy layer each resolve their state once
per tick or per suspect set, not once per RPC.  These counts are
deterministic under virtual time, so they are pinned as upper bounds:
a change that went back to per-call schedule queries, rebuilt a
restriction per coordinator or per blocked set, or sent a call that no
fault rule touches through the wrapper's rule path, would blow them.
The loop's own work is pinned the same way: every timer is the virtual
loop's slotted one, and a simulated message costs one loop entry.
"""

import asyncio
import sys
from collections import Counter

import pytest

from repro.cli import build_system
from repro.core.strategy import Strategy
from repro.runtime.faults import FaultSchedule
from repro.runtime.clock import VirtualTimeLoop
from repro.service import ChaosConfig, FaultyTransport, SimTransport, run_chaos
from repro.service import faults

PER_KIND_QUERIES = (
    "crash_down_at",
    "unreachable_at",
    "latency_at",
    "drop_probability",
    "duplicate_probability",
    "byzantine_mode_at",
)
OPS = 400


@pytest.fixture
def work(monkeypatch):
    """Calls of the schedule's queries and of restriction builds, keyed
    by (function, calling module)."""
    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name, sys._getframe(1).f_globals["__name__"]] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in PER_KIND_QUERIES + ("view",):
        count(FaultSchedule, name)
    count(Strategy, "_restrict")
    count(FaultyTransport, "start")

    class CountedThen(faults.Then):
        __slots__ = ()

        def __init__(self, *args):
            counts["Then", "repro.service.faults"] += 1
            super().__init__(*args)

    monkeypatch.setattr(faults, "Then", CountedThen)
    return counts


def test_sim_chaos_run_resolves_faults_per_tick_and_restrictions_per_survivor_set(work):
    report = run_chaos(
        build_system("hgrid:4x4"),
        seed=7,
        config=ChaosConfig(keys=256, hedge_spares=1, hedge_delay_ms=2.0, ops=OPS),
        mode="sim",
    )
    assert not report.violations
    transport = "repro.service.faults"
    assert sum(work[name, transport] for name in PER_KIND_QUERIES) == 0
    assert 0 < work["view", transport] <= OPS
    # This run builds 96 restrictions; memoised per coordinator and
    # blocked set instead of per strategy and survivor set, it needs 240.
    assert 0 < work["_restrict", "repro.core.strategy"] <= 120
    # 6,475 wrapper calls, of which 460 carry a drop, duplicate, latency
    # or Byzantine rule and build a continuation; the rest are admission
    # faults or go straight through with the caller's own continuation.
    calls = sum(n for (name, _), n in work.items() if name == "start")
    assert 0 < work["Then", transport] <= calls / 10


def test_each_simulated_message_arms_one_slotted_timer_or_callback(monkeypatch):
    """asyncio's own timer is never built, and each ``SimTransport.start``
    schedules exactly one loop callback (its delivery): a handle-free
    ``deliver_later`` entry, or a ``call_soon`` when it has no delay."""
    counts = Counter()
    start = SimTransport.start.__code__

    def count(owner, name, key=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key or name] += 1
            if sys._getframe(1).f_code is start:
                counts["scheduled by SimTransport.start"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(asyncio.TimerHandle, "__init__", "TimerHandle.__init__")
    count(asyncio.BaseEventLoop, "call_at", "BaseEventLoop.call_at")
    for name in ("call_later", "call_at", "call_soon", "deliver_later"):
        count(VirtualTimeLoop, name)
    count(SimTransport, "start", "SimTransport.start")
    report = run_chaos(
        build_system("hgrid:4x4"),
        seed=7,
        config=ChaosConfig(keys=256, hedge_spares=1, hedge_delay_ms=2.0, ops=OPS),
        mode="sim",
    )
    assert not report.violations
    assert counts["TimerHandle.__init__"] == 0
    assert counts["BaseEventLoop.call_at"] == 0
    assert counts["call_later"] > 0
    assert counts["deliver_later"] > 0
    assert counts["SimTransport.start"] > 0
    assert counts["scheduled by SimTransport.start"] == counts["SimTransport.start"]


def test_sim_chaos_run_stays_within_its_loop_iterations(virtual_loops):
    """The same run takes 8,918 iterations of its ``VirtualTimeLoop``.

    The count is exact under virtual time (one loop per run, counted by
    the loop itself), so a hop added to a fan-out, or a loop that polled
    for ready callbacks more often than asyncio's, shows up here.
    """
    report = run_chaos(
        build_system("hgrid:4x4"),
        seed=7,
        config=ChaosConfig(keys=256, hedge_spares=1, hedge_delay_ms=2.0, ops=OPS),
        mode="sim",
    )
    assert not report.violations
    assert len(virtual_loops) == 1
    assert virtual_loops[0].iterations <= 8_918
