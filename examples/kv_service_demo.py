"""Serve the paper's load result: majority vs hierarchical triangle.

Runs the asyncio quorum-replicated key-value service (repro.service) in
virtual time for ``majority:15`` and ``h-triang:15`` and
compares the *observed* per-element load — the fraction of quorum
accesses each replica served — with the LP-optimal prediction from
:mod:`repro.analysis.load` (Definition 3.4).

The punchline is Table 4 of the paper, live: under majority the busiest
replica serves more than half the traffic, under the hierarchical
triangle only a third — with the same universe of 15 replicas.

Run with:  PYTHONPATH=src python examples/kv_service_demo.py
"""

from repro.analysis.load import optimal_strategy
from repro.service import run_kv_benchmark
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem

OPS = 2000
SEED = 0


def describe(report):
    observed = report.observed_loads
    predicted = report.predicted_loads
    deviation = report.load_deviation()
    print(f"{report.system_name} (n={report.n})")
    print(f"  LP-optimal load L(S)      : {report.lp_load:.4f}")
    print(f"  observed busiest element  : {observed.max():.4f}")
    print(f"  mean |observed-predicted| : {deviation['mean_abs_error']:.4f}")
    print(f"  max relative deviation    : {deviation['max_relative_error']:.2%}")
    print(f"  success rate              : {report.metrics.success_rate:.2%}")
    print(f"  p99 latency (virtual ms)  : {report.metrics.latency_percentile(99):.2f}")
    width = 40
    for element in range(report.n):
        bar = "#" * max(1, round(observed[element] * width))
        print(f"    {str(report.element_names[element]):>8} {bar:<{width}}"
              f" {observed[element]:.3f} (pred {predicted[element]:.3f})")
    print()


def main():
    for system in (MajorityQuorumSystem.of_size(15), HierarchicalTriangle.of_size(15)):
        strategy = optimal_strategy(system)
        report = run_kv_benchmark(
            system, seed=SEED, strategy=strategy, ops=OPS, crash_rate=0.0
        )
        describe(report)

    crashy = run_kv_benchmark(
        HierarchicalTriangle.of_size(15), seed=SEED, ops=OPS, crash_rate=0.1
    )
    metrics = crashy.metrics
    print("h-triang:15 under iid crashes (p=0.1, resampled epochs)")
    print(f"  success rate   : {metrics.success_rate:.2%}")
    print(f"  fallbacks      : {metrics.fallbacks}")
    print(f"  read repairs   : {metrics.read_repairs}")
    print(f"  p99 latency    : {metrics.latency_percentile(99):.2f} virtual ms")


if __name__ == "__main__":
    main()
