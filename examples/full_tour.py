"""The full tour: every major capability in one script.

Walks through the paper's results (tables regenerated programmatically),
the analysis toolkit (duality, envelopes, importance, rare events) and a
closing simulation, printing a compact narrative.  Expect ~1 minute.

Run with::

    python examples/full_tour.py
"""

import numpy as np

from repro import HierarchicalTGrid, HierarchicalTriangle, MajorityQuorumSystem
from repro.analysis import (
    availability_gap,
    failure_probability_montecarlo,
    failure_probability_rare,
    find_crossover,
    importance_profile,
    optimal_failure_probability,
)
from repro.analysis.exact import exact_failure_htriangle
from repro.sim import measure_strategy_load
from repro.systems import SingletonQuorumSystem
from repro.tables import render_failure_table, table2
from repro.viz import render_failure_curves, render_figure2


def main() -> None:
    print("=" * 70)
    print("1. The paper's Table 2, regenerated")
    print("=" * 70)
    print(render_failure_table(table2(), "Table 2 — failure probability, ~15 nodes"))

    print()
    print("=" * 70)
    print("2. The paper's figure 2 and the §5 construction")
    print("=" * 70)
    print(render_figure2())
    triangle = HierarchicalTriangle(5)
    print(f"\nquorums: {triangle.num_minimal_quorums}, all of size"
          f" {triangle.smallest_quorum_size()}; load {triangle.load():.3f};"
          f" self-dual: {triangle.is_self_dual()}")

    print()
    print("=" * 70)
    print("3. Exact rational certification")
    print("=" * 70)
    exact = exact_failure_htriangle(triangle, "1/10")
    print(f"F_1/10(h-triang(15)) = {exact} = {float(exact):.12f}")
    print("rounded to the paper's six decimals: "
          f"{float(exact):.6f} (paper prints 0.000677)")

    print()
    print("=" * 70)
    print("4. Optimality map and crossovers (Prop. 3.2)")
    print("=" * 70)
    majority = MajorityQuorumSystem.of_size(15)
    print(f"optimal envelope at p=0.1, n=15 : {optimal_failure_probability(15, 0.1):.6f}")
    print(f"h-triang pays a gap of           : {availability_gap(triangle, 0.1):.6f}")
    print(f"... for load {triangle.load():.3f} instead of {majority.load():.3f}")
    crossing = find_crossover(SingletonQuorumSystem.of_size(15), majority,
                              low=0.05, high=0.95)
    print(f"singleton overtakes majority at  : p = {crossing:.4f}")

    print()
    print("=" * 70)
    print("5. Criticality (heterogeneous availability)")
    print("=" * 70)
    profile = importance_profile(triangle, 0.15)
    print(f"Birnbaum importance range: {profile.min():.4f} .. {profile.max():.4f}")
    print("(uniform load, non-uniform criticality — a §5 subtlety)")

    print()
    print("=" * 70)
    print("6. Rare events: the deep tail, sampled")
    print("=" * 70)
    estimate = failure_probability_rare(triangle, 0.02, samples=100_000, seed=0)
    exact_tail = triangle.failure_probability(0.02)
    print(f"F_0.02 exact     : {exact_tail:.3e}")
    print(f"F_0.02 estimated : {estimate.value:.3e} (+-{estimate.standard_error:.1e},"
          f" hit rate {estimate.hit_rate:.1%} under biased sampling)")

    print()
    print("=" * 70)
    print("7. Simulation closes the loop")
    print("=" * 70)
    estimate = failure_probability_montecarlo(triangle, 0.25, samples=20_001, seed=7)
    print(f"simulated failure rate at p=0.25 : {estimate.value:.4f}")
    print(f"analytic F_p                     : {triangle.failure_probability(0.25):.4f}")
    meter = measure_strategy_load(triangle.balanced_strategy(), operations=20_000)
    print(f"simulated max element load       : {meter.max_load:.3f}"
          f" (analytic {triangle.load():.3f})")

    print()
    print("=" * 70)
    print("8. The §4 contribution, visually")
    print("=" * 70)
    print(render_failure_curves(
        [HierarchicalTGrid.halving(4, 4), triangle], p_max=0.5, points=28
    ))


if __name__ == "__main__":
    main()
