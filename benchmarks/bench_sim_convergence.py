"""Simulation <-> analysis convergence.

The failure model of the paper (iid transient crashes) is sampled and two
bridges are measured:

* availability: the fraction of crash epochs with no live quorum must
  converge to the analytic ``F_p`` (Def. 3.2);
* load: per-node request frequencies under the §5 balanced strategy must
  converge to the analytic element loads (Def. 3.4).
"""

import pytest

from repro.analysis import failure_probability_montecarlo
from repro.sim import measure_strategy_load
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem, YQuorumSystem

from _tables import format_table, run_once

EPOCHS = 40_000
P = 0.25


def compute_convergence():
    systems = [
        MajorityQuorumSystem.of_size(9),
        HierarchicalTriangle(5),
        YQuorumSystem(4),
    ]
    availability = {}
    for system in systems:
        estimate = failure_probability_montecarlo(system, P, samples=EPOCHS + 1)
        availability[system.system_name] = (
            estimate.value,
            system.failure_probability(P),
            estimate.half_width,
        )

    triangle = HierarchicalTriangle(5)
    meter = measure_strategy_load(triangle.balanced_strategy(), operations=50_000, seed=1)
    return availability, meter.max_load, triangle.load()


@pytest.mark.benchmark(group="sim")
def test_sim_convergence(benchmark):
    availability, measured_load, analytic_load = run_once(
        benchmark, compute_convergence
    )

    rows = [
        [name, measured, exact, half_width]
        for name, (measured, exact, half_width) in availability.items()
    ]
    rows.append(["h-triang5 load", measured_load, analytic_load, "-"])
    print()
    print(
        format_table(
            f"Simulated vs analytic (p={P}, {EPOCHS} epochs)",
            ["quantity", "simulated", "analytic", "99% hw"],
            rows,
            widths=16,
        )
    )

    for name, (measured, exact, half_width) in availability.items():
        assert abs(measured - exact) <= half_width + 0.01, name
    assert measured_load == pytest.approx(analytic_load, abs=0.01)
