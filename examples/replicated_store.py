"""A replicated register served by h-grid quorums under crash injection.

This is the scenario the hierarchical grid protocol was proposed for
(§4.1 of the paper): 16 replicas managed with read quorums (row-covers),
blind-write quorums (full-lines) and exclusive read-write quorums, here
running over the discrete-event simulator with iid transient crashes.

The example measures operation success rates and compares them with the
analytic availability of each quorum family — the paper's failure
probabilities made operational.

Run with::

    python examples/replicated_store.py
"""

import numpy as np

from repro import HierarchicalGrid
from repro.runtime import LatencyHistogram, iid_crash_schedule
from repro.sim import (
    Network,
    ReplicaNode,
    ReplicatedRegisterClient,
    ScheduleInjector,
    Simulator,
    UniformLatency,
)

CRASH_P = 0.2
OPERATIONS = 2_000


def main() -> None:
    grid = HierarchicalGrid.halving(4, 4)
    covers = grid.row_covers()
    lines = grid.full_lines()
    rw_quorums = list(grid.minimal_quorums())

    sim = Simulator(seed=2001)
    net = Network(sim, latency=UniformLatency(0.5, 1.5))
    for element in grid.universe.ids:
        ReplicaNode(element, net)
    client = ReplicatedRegisterClient(999, net, timeout=8.0)

    # The paper's iid crash model as a declarative runtime schedule —
    # the same FaultSchedule object could drive the asyncio service.
    horizon = OPERATIONS * 25.0 + 100.0
    schedule = iid_crash_schedule(
        sim.rng, net.node_ids, CRASH_P, horizon=horizon, epoch=50.0
    )
    injector = ScheduleInjector(net, schedule, horizon=horizon)
    injector.start()

    rng = np.random.default_rng(7)
    outcomes = {"read": [], "blind_write": [], "read_write": []}
    latency = LatencyHistogram()

    def issue(step: int) -> None:
        kind = ("read", "blind_write", "read_write")[step % 3]

        def done(result):
            outcomes[kind].append(result.ok)
            if result.ok:
                latency.record(result.latency)

        # Sample a primary quorum plus two fallbacks per operation.
        if kind == "read":
            pool = covers
        elif kind == "blind_write":
            pool = lines
        else:
            pool = rw_quorums
        picks = [pool[int(rng.integers(len(pool)))] for _ in range(3)]
        if kind == "read":
            client.read(picks, on_done=done)
        elif kind == "blind_write":
            client.blind_write(picks, f"value-{step}", on_done=done)
        else:
            client.read_write(picks, lambda v: (v or 0), on_done=done)

    for step in range(OPERATIONS):
        sim.schedule(step * 25.0 + 3.0, issue, step)
    sim.run(until=horizon)

    print(f"simulated {OPERATIONS} operations over {grid.system_name}")
    print(f"virtual time: {sim.now:.0f}, messages: {net.messages_sent}")
    print(f"crash probability per epoch: {CRASH_P}\n")

    analytic = {
        "read": grid.read_failure_probability(CRASH_P),
        "blind_write": grid.write_failure_probability(CRASH_P),
        "read_write": grid.failure_probability(CRASH_P),
    }

    def three_try_success(pool):
        # A sampled quorum is fully alive with probability q^|Q|; the
        # client tries three independent samples.
        q = 1.0 - CRASH_P
        per_try = sum(q ** len(quorum) for quorum in pool) / len(pool)
        return 1.0 - (1.0 - per_try) ** 3

    predicted = {
        "read": three_try_success(covers),
        "blind_write": three_try_success(lines),
        "read_write": three_try_success(rw_quorums),
    }
    print(
        f"{'operation':<12} {'success rate':>14} {'3-try prediction':>18}"
        f" {'oracle availability':>20}"
    )
    for kind, results in outcomes.items():
        rate = sum(results) / len(results)
        print(
            f"{kind:<12} {rate:>14.3f} {predicted[kind]:>18.3f}"
            f" {1 - analytic[kind]:>20.3f}"
        )
    print(
        "\n(the 3-try prediction models a client sampling three random"
        " quorums; the oracle column is the paper's availability, which"
        " assumes a clairvoyant quorum choice — the gap between the two"
        " is the price of not knowing which replicas are up, and crashes"
        " striking mid-operation cost a little more)"
    )
    print(f"\nsuccessful-operation latency: mean {latency.mean:.2f},"
          f" p95 {latency.percentile(95):.2f} time units")


if __name__ == "__main__":
    main()
