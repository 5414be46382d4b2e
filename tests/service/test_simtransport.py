"""Determinism tests for the virtual-time transport and chaos modes.

The runtime unification's core promises, asserted end to end:

* the same seed through ``run_chaos(mode="sim")`` twice produces
  byte-identical operation traces and metric snapshots (compared by
  their sha256 hashes);
* the same seed through ``mode="sim"`` (virtual clock) and ``mode="wall"``
  (real clock, really sleeping every latency) produces the *same*
  outcomes — virtual time changes how fast the run finishes, not what
  happens in it;
* one ``FaultSchedule`` drives ``FaultyTransport`` identically whatever
  latencies the inner transport draws — the fault-activation log is a
  pure function of (schedule, seed, call sequence).
"""

import asyncio

import pytest

from repro.cli import build_system
from repro.core.errors import ReplicaUnavailable, RequestTimeout
from repro.runtime import VirtualClock, run_virtual
from repro.runtime.faults import CrashFault, FaultSchedule, PartitionFault, Window
from repro.service import (
    ChaosConfig,
    Coordinator,
    FaultyTransport,
    InProcessTransport,
    Reply,
    SimTransport,
    make_replicas,
    run_chaos,
)
from repro.service.ops import Read
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem

def small_config() -> ChaosConfig:
    return ChaosConfig(ops=60, keys=4, clients=2, timeout=30.0)


class TestSimTransport:
    def test_latency_is_spent_in_clock_time(self):
        system = MajorityQuorumSystem.of_size(3)
        clock = VirtualClock()
        transport = SimTransport(make_replicas(system), clock=clock, seed=1)

        async def main():
            reply = await transport.call(0, Read("k"))
            return reply

        reply = run_virtual(main(), clock=clock)
        assert isinstance(reply, Reply)
        assert clock.now() == pytest.approx(reply.latency)

    def test_crashed_replica_burns_full_deadline(self):
        system = MajorityQuorumSystem.of_size(3)
        clock = VirtualClock()
        transport = SimTransport(make_replicas(system), clock=clock, seed=1)
        transport.crash(0)

        async def main():
            with pytest.raises(ReplicaUnavailable):
                await transport.call(0, Read("k"), timeout=25.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(25.0)
        assert transport.unavailable == 1

    def test_slow_reply_times_out_at_deadline(self):
        system = MajorityQuorumSystem.of_size(3)
        clock = VirtualClock()
        # base latency alone exceeds the deadline: guaranteed timeout.
        transport = SimTransport(
            make_replicas(system), clock=clock, seed=0, base_latency=100.0
        )

        async def main():
            with pytest.raises(RequestTimeout):
                await transport.call(0, Read("k"), timeout=10.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(10.0)
        assert transport.timeouts == 1

    def test_concurrent_calls_complete_in_latency_order(self):
        system = MajorityQuorumSystem.of_size(5)
        clock = VirtualClock()
        transport = SimTransport(make_replicas(system), clock=clock, seed=3)
        completions = []

        async def one(rid):
            reply = await transport.call(rid, Read("k"))
            completions.append((clock.now(), rid, reply.latency))

        async def main():
            await asyncio.gather(*(one(rid) for rid in range(5)))

        run_virtual(main(), clock=clock)
        finish_times = [entry[0] for entry in completions]
        assert finish_times == sorted(finish_times)
        for finished, _, latency in completions:
            assert finished == pytest.approx(latency)


class TestChaosSimDeterminism:
    def test_same_seed_same_hashes(self):
        system = HierarchicalTriangle(7)
        first = run_chaos(system, seed=5, config=small_config(), mode="sim")
        second = run_chaos(system, seed=5, config=small_config(), mode="sim")
        assert first.hashes == second.hashes
        assert first.trace == second.trace
        assert first.ok and second.ok

    def test_different_seed_different_hashes(self):
        system = HierarchicalTriangle(7)
        first = run_chaos(system, seed=5, config=small_config(), mode="sim")
        other = run_chaos(system, seed=6, config=small_config(), mode="sim")
        assert first.hashes["trace"] != other.hashes["trace"]

    def test_sim_matches_wall_clock_run(self):
        # The expensive but decisive one: the identical run over a real
        # clock — every latency actually slept — lands on the same
        # hashes.  Virtual time accelerates, it does not alter.
        system = MajorityQuorumSystem.of_size(5)
        config = ChaosConfig(ops=30, keys=3, clients=2, timeout=30.0)
        sim = run_chaos(system, seed=3, config=config, mode="sim")
        wall = run_chaos(system, seed=3, config=config, mode="wall")
        assert sim.hashes == wall.hashes
        assert sim.operations == wall.operations
        # And the speedup is real: the sim run skips the sleeps.
        assert sim.elapsed_seconds < wall.elapsed_seconds

    def test_mode_recorded_in_report(self):
        system = MajorityQuorumSystem.of_size(3)
        report = run_chaos(system, seed=0, config=small_config(), mode="sim")
        assert report.mode == "sim"
        assert report.to_dict()["mode"] == "sim"
        assert set(report.to_dict()["hashes"]) == {"trace", "metrics"}

    def test_split_brain_detected_under_sim(self):
        system = MajorityQuorumSystem.of_size(5)
        config = small_config()
        config.unsafe_partial_writes = True
        report = run_chaos(system, seed=0, config=config, mode="sim")
        assert not report.ok


class TestActivationLogParity:
    def test_same_log_over_any_inner_transport(self):
        # Crash/partition decisions are schedule lookups plus wrapper-RNG
        # coins — nothing about the inner transport enters them, so the
        # activation log must be identical over two SimTransports whose
        # latency draws differ, for the same wrapper seed and call
        # sequence.
        system = MajorityQuorumSystem.of_size(5)
        schedule = FaultSchedule(
            [
                CrashFault(frozenset({0, 3}), Window(0.0, 10.0)),
                CrashFault(frozenset({1}), Window(5.0, 15.0)),
                PartitionFault(frozenset({2}), Window(10.0, 20.0)),
            ]
        )

        def run_over(latency_seed):
            inner = SimTransport(make_replicas(system), seed=latency_seed)
            wrapper = FaultyTransport(inner, schedule, seed=11)

            async def main():
                latencies = []
                for tick in range(20):
                    wrapper.clock = float(tick)
                    for rid in range(5):
                        try:
                            reply = await wrapper.call(
                                rid, Read("k"), timeout=20.0
                            )
                            latencies.append(reply.latency)
                        except (ReplicaUnavailable, RequestTimeout):
                            pass
                return list(wrapper.activation_log), latencies

            return run_virtual(main(), clock=inner.clock)

        log_a, latencies_a = run_over(0)
        log_b, latencies_b = run_over(1)
        assert latencies_a != latencies_b  # the inner draws really differ
        assert log_a == log_b
        assert log_a  # the schedule actually injected something

    def test_log_entries_shape(self):
        schedule = FaultSchedule([CrashFault(frozenset({0}), Window(0.0, 5.0))])
        inner = SimTransport(make_replicas(MajorityQuorumSystem.of_size(3)), seed=0)
        wrapper = FaultyTransport(inner, schedule, seed=0)

        async def main():
            with pytest.raises(ReplicaUnavailable):
                await wrapper.call(0, Read("k"))

        run_virtual(main(), clock=inner.clock)
        assert wrapper.activation_log == [(0.0, "crash", 0)]
        assert wrapper.injected["crash"] == 1


class TestPerfbenchReplayShim:
    def test_plain_event_loop_serves_without_timers(self):
        # perfbench's traced ``inproc_us_per_op`` replay builds
        # InProcessTransport under a plain asyncio.run: with zero
        # latency every call delivers with one ``call_soon``.
        system = build_system("hgrid:4x4")
        transport = InProcessTransport(make_replicas(system), seed=3)
        coordinator = Coordinator(system, transport, seed=3)
        armed = []

        async def main():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def spy(when, *args, **kwargs):
                armed.append(when)
                return call_at(when, *args, **kwargs)

            loop.call_at = spy
            await coordinator.write("k", "v")
            return await coordinator.read("k")

        result = asyncio.run(main())
        assert result.value == "v"
        assert coordinator.metrics.ops_failed == 0
        assert armed == []
