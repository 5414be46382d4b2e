"""Command-line interface: ``quorumtool`` (or ``python -m repro``).

Subcommands
-----------
``info <system>``      construction summary (n, quorum sizes, load)
``failure <system>``   failure probability at one or more crash rates
``load <system>``      exact system load (LP or structural)
``compare``            the Table 2/3-style comparison at a given scale
``figures``            re-print the paper's two construction figures
``kvbench <system>``   drive the quorum-replicated KV service, compare
                       observed per-element load with the LP prediction;
                       ``--shards N`` benchmarks the sharded namespace
                       (N instances of the spec, virtual-time capacity)
``serve <system>``     run TCP replica servers for the system (binary
                       wire v2; ``--workers N`` for multi-process)
``chaos``              randomized fault schedule against the KV service,
                       safety-invariant checks, measured-vs-exact
                       availability; exits 1 on any violation
``reshard``            split a hot shard live, mid-workload, under
                       injected faults; durability/staleness/monotonicity
                       invariants; exits 1 on any violation

Systems are named like ``h-triang:15``, ``h-t-grid:4x4``, ``majority:15``,
``hqs:5x3``, ``cwlog:14``, ``grid:4x4``, ``h-grid:5x5``, ``y:15``,
``paths:13``, ``fpp:7``, ``tree:h2``, ``tgrid:4x4``, ``triangle:5``,
``masking:5x1`` (the b-masking majority over n elements, MRW §3).
"""

from __future__ import annotations

import argparse
from typing import List

from .core.errors import QuorumError
from .core.quorum_system import QuorumSystem
from .systems import (
    CrumblingWallQuorumSystem,
    FPPQuorumSystem,
    GridQuorumSystem,
    HQSQuorumSystem,
    HierarchicalGrid,
    HierarchicalTGrid,
    HierarchicalTriangle,
    MajorityQuorumSystem,
    PathsQuorumSystem,
    SingletonQuorumSystem,
    TreeQuorumSystem,
    YQuorumSystem,
)


def build_system(spec: str) -> QuorumSystem:
    """Instantiate a system from a ``name:params`` CLI spec."""
    name, _, params = spec.partition(":")
    name = name.lower()
    try:
        if name in ("majority", "maj"):
            return MajorityQuorumSystem.of_size(int(params))
        if name == "singleton":
            return SingletonQuorumSystem.of_size(int(params or "1"))
        if name == "hqs":
            branching = [int(x) for x in params.split("x")]
            return HQSQuorumSystem.balanced(branching)
        if name == "cwlog":
            return CrumblingWallQuorumSystem.cwlog(int(params))
        if name == "triangle":
            return CrumblingWallQuorumSystem.triangle(int(params))
        if name == "diamond":
            return CrumblingWallQuorumSystem.diamond(int(params))
        if name == "tgrid":
            rows, cols = (int(x) for x in params.split("x"))
            return CrumblingWallQuorumSystem.flat_tgrid(rows, cols)
        if name == "grid":
            rows, cols = (int(x) for x in params.split("x"))
            return GridQuorumSystem(rows, cols)
        if name in ("h-grid", "hgrid"):
            rows, cols = (int(x) for x in params.split("x"))
            return HierarchicalGrid.halving(rows, cols)
        if name in ("h-t-grid", "htgrid"):
            rows, cols = (int(x) for x in params.split("x"))
            return HierarchicalTGrid.halving(rows, cols)
        if name in ("h-triang", "htriangle", "htriang"):
            return HierarchicalTriangle.of_size(int(params))
        if name == "y":
            return YQuorumSystem.of_size(int(params))
        if name == "paths":
            return PathsQuorumSystem.of_size(int(params))
        if name == "fpp":
            return FPPQuorumSystem.of_size(int(params))
        if name == "tree":
            height = int(params.lstrip("h"))
            return TreeQuorumSystem(height)
        if name == "masking":
            from .analysis.byzantine import masking_majority

            size, _, b = params.partition("x")
            return masking_majority(int(size), int(b))
    except (ValueError, QuorumError) as exc:
        raise SystemExit(f"bad system spec {spec!r}: {exc}")
    raise SystemExit(f"unknown system {name!r}; see --help for the catalogue")


def _cmd_info(args: argparse.Namespace) -> None:
    system = build_system(args.system)
    print(f"system        : {system.system_name}")
    print(f"n             : {system.n}")
    try:
        sizes = system.quorum_sizes()
        print(f"min quorums   : {len(sizes)}")
        print(f"quorum sizes  : min={sizes[0]} max={sizes[-1]}")
        print(f"uniform size  : {system.has_uniform_quorum_size()}")
    except QuorumError as exc:
        print(f"quorum sizes  : c(S)={system.smallest_quorum_size()} ({exc})")
    try:
        print(f"load          : {system.load():.4f}")
    except QuorumError as exc:
        print(f"load          : unavailable ({exc})")


def _cmd_failure(args: argparse.Namespace) -> None:
    system = build_system(args.system)
    for p in args.p:
        value = system.failure_probability(p, method=args.method)
        print(f"F_{p:g}({system.system_name}) = {value:.6f}")


def _cmd_load(args: argparse.Namespace) -> None:
    system = build_system(args.system)
    print(f"L({system.system_name}) = {system.load(method=args.method):.6f}")


def _cmd_compare(args: argparse.Namespace) -> None:
    specs = args.systems
    systems = [build_system(s) for s in specs]
    header = "p      " + "".join(f"{s.system_name:>18}" for s in systems)
    print(header)
    for p in args.p:
        row = f"{p:<7g}"
        for system in systems:
            row += f"{system.failure_probability(p):>18.6f}"
        print(row)
    if args.plot:
        from .viz import render_failure_curves

        print()
        print(render_failure_curves(systems))


def _cmd_figures(args: argparse.Namespace) -> None:
    from .viz import render_figure1, render_figure2

    print(render_figure1())
    print()
    print(render_figure2())


def _cmd_dual(args: argparse.Namespace) -> None:
    system = build_system(args.system)
    dual = system.dual()
    print(f"system        : {system.system_name}")
    print(f"dual quorums  : {dual.num_minimal_quorums}")
    print(f"self-dual     : {system.is_self_dual()}")
    if args.show:
        for quorum in dual.minimal_quorums()[: args.show]:
            print("   ", sorted(quorum))


def _cmd_byzantine(args: argparse.Namespace) -> None:
    from .analysis.byzantine import byzantine_profile

    system = build_system(args.system)
    overlap, dissemination, masking = byzantine_profile(system)
    print(f"system                 : {system.system_name}")
    print(f"min pairwise overlap   : {overlap}")
    print(f"dissemination threshold: b = {dissemination}")
    print(f"masking threshold      : b = {masking}")


def _cmd_table(args: argparse.Namespace) -> None:
    from . import tables

    number = args.number
    if number == 1:
        print(tables.render_failure_table(tables.table1(), "Table 1"))
    elif number == 2:
        print(tables.render_failure_table(tables.table2(), "Table 2"))
    elif number == 3:
        print(tables.render_failure_table(tables.table3(), "Table 3"))
    elif number == 4:
        for scale, rows in tables.table4().items():
            print(f"Table 4 — ~{scale} nodes")
            for row in rows:
                load = f"{row.load:.3f}" if row.load is not None else "-"
                largest = row.largest if row.largest is not None else "-"
                note = f"   ({row.note})" if row.note else ""
                print(f"  {row.system:<10} n={row.n:<4} min={row.smallest}"
                      f" max={largest} load={load}{note}")
            print()
    elif number == 5:
        for row in tables.table5():
            same = "yes" if row["same size"] else "no"
            print(f"{row['system']:<14} c(S)={row['c(S)']:<18} same={same:<4}"
                  f" load={row['load']}")
    else:
        raise SystemExit(f"the paper has tables 1..5, not {number}")


def _cmd_critical(args: argparse.Namespace) -> None:
    from .analysis.importance import importance_profile, most_critical_elements

    system = build_system(args.system)
    profile = importance_profile(system, args.p)
    print(f"system   : {system.system_name} (n={system.n}, p={args.p})")
    print(f"Birnbaum importance: min={profile.min():.6f} max={profile.max():.6f}")
    print("most critical elements:")
    for element, value in most_critical_elements(system, args.p, count=args.top):
        print(f"   {system.universe.name_of(element)!s:>10}  I = {value:.6f}")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .sim import measure_availability

    system = build_system(args.system)
    probe = measure_availability(system, args.p, epochs=args.epochs, seed=args.seed)
    exact = system.failure_probability(args.p)
    print(f"system    : {system.system_name} (n={system.n})")
    print(f"epochs    : {probe.epochs}, crash p = {args.p}")
    print(f"measured  : {probe.failure_rate:.6f} ± {probe.confidence_half_width():.6f}")
    print(f"analytic  : {exact:.6f}")


def _accelerator_banner() -> str:
    """One line naming the optional perf dependencies that are active.

    Printed by the wall-clock modes (``serve``, TCP ``kvbench``) so any
    quoted throughput number also states what it was measured with.
    """
    from .runtime.clock import accelerators

    active = accelerators()
    flags = " ".join(
        f"{name}={'on' if enabled else 'off'}"
        for name, enabled in sorted(active.items())
    )
    hint = "" if all(active.values()) else "  (`pip install 'repro[perf]'` for the rest)"
    return f"accelerators  : {flags}{hint}"


def _cmd_kvbench_sharded(args: argparse.Namespace) -> None:
    import json as json_module

    from .core.errors import ServiceError
    from .sharding import run_sharded_benchmark

    try:
        systems = [build_system(args.system) for _ in range(args.shards)]
        report = run_sharded_benchmark(
            systems,
            specs=[args.system] * args.shards,
            seed=args.seed,
            ops=args.ops,
            keys=args.keys,
            skew=args.skew,
            read_fraction=args.read_fraction,
            clients=args.clients,
            service_time_ms=args.service_time_ms,
            timeout=args.timeout,
            read_write=args.read_write,
        )
    except ServiceError as exc:
        raise SystemExit(f"kvbench failed: {exc}")
    payload = report.to_dict()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return
    if args.json_out:
        return
    skew = report.key_skew
    print(f"system        : {args.system} x {args.shards} shards (virtual time)")
    print(
        f"workload      : {report.ops} ops, clients={args.clients},"
        f" keys={args.keys}, zipf skew={args.skew:g}, seed={args.seed},"
        f" service time={args.service_time_ms:g}ms/req"
    )
    print(f"outcome       : {report.succeeded} ok, {report.failed} failed")
    print(
        f"throughput    : {report.ops_per_virtual_second:.1f} ops/virtual-second"
        f" ({report.virtual_ms:.1f} virtual ms)"
    )
    if skew:
        top = ", ".join(f"{key}×{count}" for key, count in skew["top_k"][:5])
        print(
            f"key skew      : hottest key {skew['hottest_share']:.1%} of"
            f" accesses, top-10 {skew['top_k_share']:.1%}; top: {top}"
        )
    print("per-shard ops :")
    for shard_id, stats in report.per_shard.items():
        latency = stats["latency_ms"]
        print(
            f"   {shard_id:>6}  ops={stats['ops']:<6}"
            f" mean={latency['mean']:.2f}ms p99={latency['p99']:.2f}ms"
        )


def _cmd_kvbench(args: argparse.Namespace) -> None:
    import json as json_module

    from .core.errors import ServiceError
    from .service import BinaryTcpTransport, WorkloadConfig, run_kv_benchmark

    if args.shards:
        if args.tcp or args.tcp_local:
            raise SystemExit("--shards runs under virtual time; no TCP modes")
        _cmd_kvbench_sharded(args)
        return
    system = build_system(args.system)
    transport = None
    if args.tcp and args.tcp_local:
        raise SystemExit("--tcp and --tcp-local are mutually exclusive")
    if (args.workers or args.uvloop) and not args.tcp_local:
        raise SystemExit("--workers/--uvloop require --tcp-local")
    if not args.json:
        # Wall-clock modes state their accelerators so every quoted
        # number is attributable; --json stays seed-deterministic.
        if args.tcp or args.tcp_local:
            print(_accelerator_banner())
    if args.tcp:
        host, colon, base = args.tcp.partition(":")
        if not (host and colon and base.isdigit()):
            raise SystemExit(f"bad --tcp address {args.tcp!r}: expected HOST:BASEPORT")
        addresses = {
            element: (host, int(base) + element) for element in system.universe.ids
        }
        transport = BinaryTcpTransport(addresses)
    try:
        config = WorkloadConfig(
            ops=args.ops,
            read_fraction=args.read_fraction,
            keys=args.keys,
            skew=args.skew,
            clients=args.clients,
            crash_rate=args.crash_rate,
            ops_per_epoch=args.ops_per_epoch,
            timeout=args.timeout,
            hedge_spares=args.hedge_spares,
            hedge_delay_ms=args.hedge_delay_ms,
        )
        report = run_kv_benchmark(
            system,
            seed=args.seed,
            read_write=args.read_write,
            transport=transport,
            config=config,
            tcp_local=args.tcp_local,
            workers=args.workers,
            use_uvloop=args.uvloop,
        )
    except ServiceError as exc:
        raise SystemExit(f"kvbench failed: {exc}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_module.dump(report.perf_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    if args.json:
        # --json stays seed-deterministic (no wall-clock section);
        # --json-out is the perf artifact and includes it.
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    if args.json_out:
        return
    snapshot = report.to_dict()
    ops = snapshot["ops"]
    latency = snapshot["latency_ms"]
    deviation = snapshot["load_deviation"]
    print(f"system        : {system.system_name} (n={system.n})")
    if args.tcp_local:
        print(
            "transport     : tcp-local binary v2,"
            f" workers={args.workers or 'in-loop'}"
        )
        wire = report.transport_stats
        if wire.get("frames_sent"):
            print(
                f"wire          : {wire['bytes_sent']} B out /"
                f" {wire['bytes_received']} B in,"
                f" {wire['ops_per_frame']:.2f} ops/frame,"
                f" {wire['bytes_per_op']:.1f} B/op"
            )
    if report.read_write:
        print(
            f"strategy load : {report.lp_load:.4f} (read/write capacity LP"
            f" at read fraction {config.read_fraction:g})"
        )
    else:
        print(f"strategy load : {report.lp_load:.4f} (LP-optimal, Def. 3.4)")
    predicted_cap = (
        f"{report.predicted_capacity:.2f}x one replica's service rate"
        if report.predicted_capacity
        else "n/a"
    )
    if report.metrics.virtual_elapsed_ms > 0:
        # Virtual time: the wall figure is the simulator's speed, not
        # the service's throughput.
        observed = (
            f"{report.ops_per_virtual_second:,.1f} ops/virtual-second"
            f" (simulation speed {report.ops_per_second:,.0f} ops/s wall)"
        )
    else:
        observed = f"{report.ops_per_second:,.0f} ops/s"
    print(
        f"throughput    : observed {observed},"
        f" LP-predicted capacity {predicted_cap}"
    )
    print(
        f"workload      : {ops['attempted']} ops, clients={config.clients},"
        f" read fraction={config.read_fraction:g}, key skew={config.skew:g},"
        f" crash rate={config.crash_rate:g}, seed={args.seed}"
    )
    print(f"success rate  : {ops['success_rate']:.2%}")
    print(
        f"latency (ms)  : mean={latency['mean']:.2f}"
        f" p50={latency['p50']:.2f} p99={latency['p99']:.2f}"
    )
    hot = snapshot.get("hot_keys")
    if hot and hot.get("total"):
        top = ", ".join(f"{key}×{count}" for key, count in hot["top_k"][:5])
        print(
            f"key skew      : hottest key {hot['hottest_share']:.1%} of"
            f" accesses, top-10 {hot['top_k_share']:.1%}; top: {top}"
        )
    print(
        f"recovery      : retries={snapshot['retries']}"
        f" fallbacks={snapshot['fallbacks']} timeouts={snapshot['timeouts']}"
        f" unavailable={snapshot['unavailable']}"
        f" read-repairs={snapshot['read_repairs']}"
    )
    print("element loads : observed vs LP-predicted")
    observed = report.observed_loads
    predicted = report.predicted_loads
    for element in system.universe.ids:
        name = system.universe.name_of(element)
        print(
            f"   {str(name):>10}  observed={observed[element]:.4f}"
            f"  predicted={predicted[element]:.4f}"
        )
    print(
        f"deviation     : max |observed-predicted| = {deviation['max_abs_error']:.4f}"
        f" (relative {deviation['max_relative_error']:.2%})"
    )


def _clock_mode(args: argparse.Namespace) -> str:
    """The scenario clock from ``--sim``/``--wall``: virtual time unless
    ``--wall`` asks for real time."""
    if args.sim and args.wall:
        raise SystemExit("--sim and --wall are mutually exclusive")
    return "wall" if args.wall else "sim"


def _sweep(args: argparse.Namespace, label: str, run) -> tuple:
    """``run(seed)`` for each seed of ``--seed``/``--seeds``, and the wall
    seconds they took; a ServiceError exits as ``<label> failed: ...``."""
    import time as time_module

    from .core.errors import ServiceError

    if args.seeds < 1:
        raise SystemExit(f"--seeds must be >= 1, got {args.seeds}")
    started = time_module.perf_counter()
    try:
        runs = [run(seed) for seed in range(args.seed, args.seed + args.seeds)]
    except ServiceError as exc:
        raise SystemExit(f"{label} failed: {exc}")
    return runs, time_module.perf_counter() - started


def _emit_sweep(args: argparse.Namespace, payload: dict, reports: list, elapsed: float) -> None:
    """Write ``--json-out`` (the payload plus the non-deterministic
    wall-clock numbers, like kvbench's perf_dict) and print ``--json``."""
    import json as json_module

    if args.json_out:
        artifact = dict(payload)
        artifact["perf"] = {
            "elapsed_seconds": elapsed,
            "run_seconds": [report.elapsed_seconds for report in reports],
            "runs_per_second": len(reports) / elapsed if elapsed > 0 else 0.0,
        }
        with open(args.json_out, "w") as handle:
            json_module.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))


def _sweep_totals(reports: list) -> dict:
    """The sweep payload's seed list and violation totals."""
    from .scenarios.scorecard import violation_counts

    violations = [violation for report in reports for violation in report.violations]
    return {
        "seeds": [report.seed for report in reports],
        "all_ok": all(report.ok for report in reports),
        "violations_total": len(violations),
        "violations_by_invariant": violation_counts(violations),
    }


def _print_sweep(args: argparse.Namespace, elapsed: float, rows: list, note: str = "") -> None:
    """The sweep line, one line per ``(report, facts)`` seed, the verdict."""
    print(f"sweep         : {args.seeds} seeds [{args.seed}.."
          f"{args.seed + args.seeds - 1}], {elapsed:.2f}s total")
    for report, facts in rows:
        status = "ok" if report.ok else f"{len(report.violations)} VIOLATION(S)"
        print(f"   seed {report.seed:>4}: " + "; ".join([status, *facts]))
    all_ok = all(report.ok for report, _ in rows)
    print(f"invariants    : {'all held' if all_ok else 'VIOLATED'} across {args.seeds} seeds{note}")


def _print_invariants(report, held: str) -> None:
    """The verdict of one run: what held, or each violation."""
    if report.ok:
        print(f"invariants    : all held ({held})")
        return
    print(f"invariants    : {len(report.violations)} VIOLATION(S)")
    for violation in report.violations:
        detail = {k: v for k, v in violation.items() if k != "invariant"}
        print(f"   [{violation['invariant']}] {detail}")


def _print_chaos_report(report, config) -> None:
    availability = report.availability
    operations = report.operations
    print(f"system        : {report.system_name} (n={report.n})")
    print(f"seed          : {report.seed} ({config.ops} ops,"
          f" {config.clients} clients, {config.keys} keys)")
    print(f"mode          : {report.mode}"
          + (f" ({report.elapsed_seconds:.3f}s)" if report.elapsed_seconds else ""))
    print(f"fault rules   : {report.schedule.to_dict()['by_kind']}")
    print(f"injected      : {dict(sorted(report.injected.items()))}")
    print(
        f"operations    : reads ok={operations['reads_ok']}"
        f" degraded={operations['reads_degraded']}"
        f" failed={operations['reads_failed']} |"
        f" writes ok={operations['writes_ok']}"
        f" failed={operations['writes_failed']}"
    )
    print(
        f"availability  : measured={availability['measured']:.4f}"
        f" exact={availability['exact']:.4f}"
        f" (iid crash p={availability['crash_rate']:g},"
        f" |delta|={availability['abs_error']:.4f})"
    )
    print(f"op success    : {availability['op_success_rate']:.2%}")
    if report.byzantine_replicas:
        byz = report.metrics.to_dict()["byzantine"] if report.metrics else {}
        leases = report.metrics.to_dict()["leases"] if report.metrics else {}
        margin = byz.get("vote_margin_min")
        print(
            f"byzantine     : liars={report.byzantine_replicas}"
            f" (mode={config.byzantine_mode}, voting b={config.byzantine_b}),"
            f" lies detected={byz.get('lies_detected', 0)},"
            f" vote rounds={byz.get('vote_rounds', 0)}"
            f" (failures={byz.get('vote_failures', 0)},"
            f" min margin={margin if margin is not None else '-'})"
        )
        if config.lease_ttl:
            print(
                f"leases        : ttl={config.lease_ttl} ops,"
                f" renewals={leases.get('renewals', 0)},"
                f" expiries={leases.get('expiries', 0)},"
                f" failed rejoins={leases.get('rejoins_failed', 0)}"
            )
    print(f"trace hash    : {report.hashes['trace']}")
    print(f"metrics hash  : {report.hashes['metrics']}")
    _print_invariants(report, "no acked write lost, no stale unflagged read,"
                      " versions intact, timestamps monotone")


def _cmd_chaos(args: argparse.Namespace) -> None:
    from .scenarios.engine import ChaosConfig, run_chaos

    system = build_system(args.system)
    if args.boost:
        from .analysis.byzantine import boost, masking_threshold

        if args.byzantine < 1:
            raise SystemExit("--boost needs --byzantine B with B >= 1")
        if masking_threshold(system) < args.byzantine:
            system = boost(system, args.byzantine)
            print(f"boosted       : {system.system_name}"
                  f" (n={system.n}, groups of {2 * args.byzantine + 1})")
    mode = _clock_mode(args)
    config = ChaosConfig(
        ops=args.ops,
        read_fraction=args.read_fraction,
        keys=args.keys,
        clients=args.clients,
        crash_rate=args.crash_rate,
        epoch=args.epoch,
        timeout=args.timeout,
        degraded_reads=not args.no_degraded_reads,
        partitions=args.partitions,
        unsafe_partial_writes=args.unsafe_partial_writes,
        byzantine_b=args.byzantine,
        byzantine_liars=args.liars,
        byzantine_mode=args.byzantine_mode,
        lease_ttl=args.lease_ttl,
        read_write=args.read_write,
    )
    # run_chaos validates the config: a bad one exits as "chaos failed".
    reports, elapsed = _sweep(
        args, "chaos", lambda seed: run_chaos(system, seed=seed, config=config, mode=mode)
    )
    totals = _sweep_totals(reports)
    if args.seeds == 1:
        payload = reports[0].to_dict()
    else:
        payload = {
            "system": system.system_name,
            "n": system.n,
            "mode": mode,
            **totals,
            "runs": [report.to_dict() for report in reports],
        }
    _emit_sweep(args, payload, reports, elapsed)
    if args.seeds == 1 and not args.json:
        _print_chaos_report(reports[0], config)
    elif not args.json:
        print(f"system        : {system.system_name} (n={system.n}), mode {mode}")
        _print_sweep(args, elapsed, [
            (report, [
                f"availability measured={report.availability['measured']:.4f}"
                f" exact={report.availability['exact']:.4f}",
                f"trace {report.hashes['trace'][:12]}",
            ])
            for report in reports
        ])
    if not totals["all_ok"]:
        raise SystemExit(1)


def _print_reshard_report(report) -> None:
    config = report.config
    operations = report.operations
    print(f"shards        : {config.shards} x {config.spec}")
    print(f"seed          : {report.seed} ({config.ops} ops,"
          f" {config.clients} clients, {config.keys} keys,"
          f" zipf skew={config.skew:g})")
    print(f"mode          : {report.mode}"
          + (f" ({report.elapsed_seconds:.3f}s)" if report.elapsed_seconds else ""))
    print(f"injected      : {dict(sorted(report.injected.items()))}")
    print(
        f"operations    : reads ok={operations['reads_ok']}"
        f" failed={operations['reads_failed']} |"
        f" writes ok={operations['writes_ok']}"
        f" failed={operations['writes_failed']}"
        f" (+{operations['preloads']} preloads)"
    )
    if report.reshards:
        for event in report.reshards:
            status = "flipped" if event.get("ok") else "ABORTED"
            print(
                f"reshard       : {event['kind']} {event['shards']} {status},"
                f" map v{event['from_version']}→v{event['to_version']},"
                f" {event['keys_moved']} keys moved"
                + (f" ({event['detail']})" if event.get("detail") else "")
            )
    else:
        print("reshard       : none fired")
    print(f"map           : v{report.map_versions[1]}"
          f" digest {report.map_digest[:12]}")
    print(f"trace hash    : {report.hashes['trace']}")
    _print_invariants(report, "acked writes durable across the flip, reads"
                      " fresh, versions intact, timestamps monotone")


def _cmd_reshard(args: argparse.Namespace) -> None:
    from .sharding import ReshardChaosConfig, run_reshard_chaos

    mode = _clock_mode(args)
    config = ReshardChaosConfig(
        ops=args.ops,
        read_fraction=args.read_fraction,
        keys=args.keys,
        skew=args.skew,
        clients=args.clients,
        shards=args.shards,
        spec=args.spec,
        reshard=args.kind,
        reshard_at=args.reshard_at,
        crash_rate=args.crash_rate,
        epoch=args.epoch,
        timeout=args.timeout,
        lease_ttl=args.lease_ttl,
    )
    # run_reshard_chaos validates the config: a bad one exits as "reshard failed".
    reports, elapsed = _sweep(
        args, "reshard", lambda seed: run_reshard_chaos(seed=seed, config=config, mode=mode)
    )
    totals = _sweep_totals(reports)
    completed = sum(1 for report in reports if report.reshard_completed)
    if args.seeds == 1:
        payload = reports[0].to_dict()
    else:
        payload = {
            "spec": args.spec,
            "shards": args.shards,
            "mode": mode,
            **totals,
            "reshards_completed": completed,
            "runs": [report.to_dict() for report in reports],
        }
    _emit_sweep(args, payload, reports, elapsed)
    if args.seeds == 1 and not args.json:
        _print_reshard_report(reports[0])
    elif not args.json:
        print(f"sharded       : {args.shards} x {args.spec}, mode {mode}")
        rows = []
        for report in reports:
            moved = sum(e.get("keys_moved", 0) for e in report.reshards if e.get("ok"))
            fate = (
                f"reshard flipped ({moved} keys)"
                if report.reshard_completed
                else ("reshard aborted" if report.reshards else "no reshard")
            )
            rows.append((report, [
                fate, f"map v{report.map_versions[1]}", f"trace {report.hashes['trace'][:12]}"
            ]))
        _print_sweep(args, elapsed, rows, f" ({completed} reshards ran to a flip)")
    if not totals["all_ok"]:
        raise SystemExit(1)


def _print_incident_report(scenario, report, scorecard) -> None:
    _print_chaos_report(report, report.config)
    slo = scorecard["slo"]
    observed = slo["observed"]
    budget = slo["error_budget"]
    met = slo["met"]
    targets = slo["targets"]
    latency_bits = ", ".join(
        f"{label}={observed['latency_ms'][label]:.1f}ms"
        f" (ceiling {ceiling:g}, {'met' if met['latency'][label] else 'MISSED'})"
        for label, ceiling in sorted(targets["latency_ms"].items())
    )
    print(
        f"slo           : availability {observed['availability']:.4f}"
        f" vs target {targets['availability']:g}"
        f" ({'met' if met['availability'] else 'MISSED'})"
        + (f"; {latency_bits}" if latency_bits else "")
    )
    print(
        f"error budget  : burn rate {budget['burn_rate']:.2f}"
        f" (max window {budget['max_window_burn_rate']:.2f}"
        f" over {targets['window_ops']} ops), slo"
        f" {'met' if met['ok'] else 'MISSED'}"
    )
    if scorecard.get("arrival"):
        arrival = scorecard["arrival"]
        print(
            f"arrival       : open-loop poisson"
            f" {arrival['rate_ops_per_s']:g} ops/s target,"
            f" achieved {arrival['achieved_ops_per_s']:.1f}"
            f" (max spawn lag {arrival['max_spawn_lag_ms']:.3f}ms)"
        )
    if scorecard.get("cache"):
        cache = scorecard["cache"]
        print(
            f"cache         : hit rate {cache['hit_rate']:.1%}"
            f" ({cache['hits']} fresh + {cache['stale_served']} stale-served"
            f" / {cache['lookups']} lookups),"
            f" {cache['refreshes']} refreshes"
        )


def _cmd_incident(args: argparse.Namespace) -> None:
    import json as json_module

    from .core.errors import ServiceError
    from .scenarios import get_incident, list_incidents, run_scenario

    if args.action == "list":
        rows = list_incidents()
        if args.json:
            print(json_module.dumps(rows, indent=2, sort_keys=True))
            return
        for row in rows:
            print(f"{row['name']}")
            print(f"   {row['summary']}")
            slo = row["slo"]
            latency = ", ".join(
                f"{label}<={ceiling:g}ms"
                for label, ceiling in sorted(slo["latency_ms"].items())
            )
            print(
                f"   default system {row['system']};"
                f" slo availability>={slo['availability']:g}"
                + (f", {latency}" if latency else "")
            )
        return

    if args.name is None:
        raise SystemExit("incident run needs a name (see: quorumtool incident list)")
    mode = _clock_mode(args)
    overrides = {}
    if args.ops is not None:
        overrides["ops"] = args.ops
    try:
        scenario = get_incident(args.name)
    except ServiceError as exc:
        raise SystemExit(f"incident failed: {exc}")
    results, elapsed = _sweep(
        args,
        "incident",
        lambda seed: run_scenario(
            scenario, seed=seed, mode=mode, system_spec=args.system, **overrides
        ),
    )
    reports = [report for report, _ in results]
    cards = [card for _, card in results]
    totals = _sweep_totals(reports)

    if args.seeds == 1:
        payload = cards[0]
    else:
        payload = {
            "scorecard_version": cards[0]["scorecard_version"],
            "scenario": scenario.name,
            "summary": scenario.summary,
            "expect_violations": scenario.expect_violations,
            "system": reports[0].system_name,
            "mode": mode,
            **totals,
            "slo_met": [card["slo"]["met"]["ok"] for card in cards],
            "runs": cards,
        }
    _emit_sweep(args, payload, reports, elapsed)
    if args.seeds == 1 and not args.json:
        print(f"incident      : {scenario.name}")
        print(f"   {scenario.summary}")
        _print_incident_report(scenario, reports[0], cards[0])
    elif not args.json:
        print(f"incident      : {scenario.name}, mode {mode}")
        print(f"system        : {reports[0].system_name} (n={reports[0].n})")
        _print_sweep(args, elapsed, [
            (report, [
                "slo met" if card["slo"]["met"]["ok"] else "slo missed",
                f"burn {card['slo']['error_budget']['burn_rate']:.2f}",
                f"trace {report.hashes['trace'][:12]}",
            ])
            for report, card in results
        ])
    # Violations fail the command unless the scenario is an intentional
    # unsafe demonstration — that is what CI gates on.
    if not totals["all_ok"] and not scenario.expect_violations:
        raise SystemExit(1)


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import time as time_module

    from .runtime.clock import install_uvloop
    from .service import ReplicaCluster, make_replicas, start_tcp_replicas

    system = build_system(args.system)
    print(_accelerator_banner())
    if args.uvloop:
        install_uvloop()  # no-op (returns False) without the perf extra

    def _print_addresses(addresses) -> None:
        print(
            f"serving {system.system_name} (n={system.n}) over TCP"
            " (binary wire v2)"
        )
        for element in sorted(addresses):
            host, port = addresses[element]
            name = system.universe.name_of(element)
            print(f"   replica {str(name):>10} -> {host}:{port}")

    if args.workers:
        # Multi-core serving: replicas hosted round-robin across worker
        # processes, keeping the base_port + id layout external clients
        # dial against.
        cluster = ReplicaCluster(
            list(system.universe.ids),
            workers=args.workers,
            host=args.host,
            base_port=args.base_port,
            use_uvloop=args.uvloop,
        )
        cluster.start()
        _print_addresses(cluster.addresses)
        print(f"workers       : {cluster.workers} OS processes")
        print("press Ctrl-C to stop" if args.duration is None else
              f"serving for {args.duration:g}s")
        try:
            deadline = (
                None if args.duration is None
                else time_module.monotonic() + args.duration
            )
            while deadline is None or time_module.monotonic() < deadline:
                time_module.sleep(0.2)
                crashed = cluster.poll_crashed()
                if crashed:
                    raise SystemExit(
                        f"serve failed: worker hosting replicas {crashed} died"
                    )
        except KeyboardInterrupt:
            pass
        finally:
            cluster.close()
        return

    async def _serve() -> None:
        replicas = make_replicas(system)
        servers, addresses = await start_tcp_replicas(
            replicas, host=args.host, base_port=args.base_port
        )
        _print_addresses(addresses)
        print("press Ctrl-C to stop" if args.duration is None else
              f"serving for {args.duration:g}s")
        try:
            if args.duration is None:
                await asyncio.gather(*(s.serve_forever() for s in servers))
            else:
                await asyncio.sleep(args.duration)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            for server in servers:
                server.close()
                await server.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise SystemExit(f"serve failed: {exc}")


def main(argv: List[str] = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="quorumtool",
        description="Hierarchical quorum systems (ICDCS 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="construction summary")
    p_info.add_argument("system")
    p_info.set_defaults(func=_cmd_info)

    p_fail = sub.add_parser("failure", help="failure probability")
    p_fail.add_argument("system")
    p_fail.add_argument("-p", type=float, action="append", default=None)
    p_fail.add_argument("--method", default="auto")
    p_fail.set_defaults(func=_cmd_failure)

    p_load = sub.add_parser("load", help="system load")
    p_load.add_argument("system")
    p_load.add_argument("--method", default="auto")
    p_load.set_defaults(func=_cmd_load)

    p_cmp = sub.add_parser("compare", help="failure-probability comparison")
    p_cmp.add_argument("systems", nargs="+")
    p_cmp.add_argument("-p", type=float, action="append", default=None)
    p_cmp.add_argument("--plot", action="store_true", help="ASCII failure curves")
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figures", help="print the paper's figures")
    p_fig.set_defaults(func=_cmd_figures)

    p_dual = sub.add_parser("dual", help="dual system / self-duality")
    p_dual.add_argument("system")
    p_dual.add_argument("--show", type=int, default=0, help="print first k dual quorums")
    p_dual.set_defaults(func=_cmd_dual)

    p_byz = sub.add_parser("byzantine", help="Byzantine thresholds (§7 outlook)")
    p_byz.add_argument("system")
    p_byz.set_defaults(func=_cmd_byzantine)

    p_table = sub.add_parser("table", help="regenerate one of the paper's tables")
    p_table.add_argument("number", type=int)
    p_table.set_defaults(func=_cmd_table)

    p_crit = sub.add_parser("critical", help="Birnbaum importance per element")
    p_crit.add_argument("system")
    p_crit.add_argument("-p", type=float, default=0.2)
    p_crit.add_argument("--top", type=int, default=3)
    p_crit.set_defaults(func=_cmd_critical)

    p_sim = sub.add_parser("simulate", help="measure availability by simulation")
    p_sim.add_argument("system")
    p_sim.add_argument("-p", type=float, default=0.2)
    p_sim.add_argument("--epochs", type=int, default=20_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser(
        "kvbench", help="benchmark the quorum-replicated KV service"
    )
    p_bench.add_argument("system")
    p_bench.add_argument("--ops", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--read-fraction", type=float, default=0.9)
    p_bench.add_argument("--keys", type=int, default=64)
    p_bench.add_argument("--skew", type=float, default=0.8)
    p_bench.add_argument("--clients", type=int, default=4)
    p_bench.add_argument("--crash-rate", type=float, default=0.0)
    p_bench.add_argument("--ops-per-epoch", type=int, default=50)
    p_bench.add_argument("--timeout", type=float, default=50.0,
                         help="per-request deadline in ms")
    p_bench.add_argument("--tcp", metavar="HOST:BASEPORT", default=None,
                         help="drive live `quorumtool serve` replicas instead"
                              " of the virtual-time SimTransport")
    p_bench.add_argument("--tcp-local", action="store_true",
                         help="start localhost TCP replicas in this process"
                              " and benchmark over real sockets")
    p_bench.add_argument("--workers", type=int, default=0,
                         help="with --tcp-local: host the replicas in this"
                              " many OS processes (0 = in the benchmark's"
                              " own event loop)")
    p_bench.add_argument("--uvloop", action="store_true",
                         help="install uvloop for the client loop and any"
                              " worker processes (no-op without the"
                              " repro[perf] extra)")
    p_bench.add_argument("--read-write", action="store_true",
                         help="serve reads from the read/write capacity LP's"
                              " read-quorum distribution (optimized at"
                              " --read-fraction) instead of the unified"
                              " write-legal strategy; with --shards, every"
                              " shard solves its own LP")
    p_bench.add_argument("--hedge-spares", type=int, default=0,
                         help="spare replicas contacted beyond each quorum"
                              " (first candidate quorum to fully ack wins)")
    p_bench.add_argument("--hedge-delay-ms", type=float, default=0.0,
                         help="defer hedge spares until this delay elapses"
                              " without a full quorum ack (0 = send upfront)")
    p_bench.add_argument("--shards", type=int, default=0,
                         help="benchmark a sharded namespace with this many"
                              " instances of the system spec under virtual"
                              " time (0 = classic single-system benchmark)")
    p_bench.add_argument("--service-time-ms", type=float, default=2.0,
                         help="with --shards: per-request replica service"
                              " time (finite-capacity FIFO replicas)")
    p_bench.add_argument("--json", action="store_true",
                         help="print the full metrics dict as JSON")
    p_bench.add_argument("--json-out", metavar="PATH", default=None,
                         help="write the metrics dict (with perf section:"
                              " ops/s, wire bytes, hedge stats) to PATH")
    p_bench.set_defaults(func=_cmd_kvbench)

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized fault injection against the KV service with"
             " safety-invariant checks (exit 1 on violation)",
    )
    p_chaos.add_argument("--system", required=True,
                         help="system spec, e.g. htriang:15")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--ops", type=int, default=400)
    p_chaos.add_argument("--read-fraction", type=float, default=0.6)
    p_chaos.add_argument("--keys", type=int, default=8)
    p_chaos.add_argument("--clients", type=int, default=2)
    p_chaos.add_argument("--crash-rate", type=float, default=0.15,
                         help="iid crash probability per epoch (compared"
                              " against the exact F_p)")
    p_chaos.add_argument("--epoch", type=int, default=25,
                         help="ticks per crash epoch")
    p_chaos.add_argument("--timeout", type=float, default=50.0,
                         help="per-request deadline in ms")
    p_chaos.add_argument("--partitions", type=int, default=1,
                         help="random partition windows in the schedule")
    p_chaos.add_argument("--read-write", action="store_true",
                         help="serve reads from the capacity LP's read-quorum"
                              " family (small read quorums) — the safety"
                              " invariants must hold over the split path too;"
                              " composes with --byzantine (2B+1-deep"
                              " read/write intersections)")
    p_chaos.add_argument("--no-degraded-reads", action="store_true",
                         help="fail reads outright instead of serving"
                              " best-effort stale results")
    p_chaos.add_argument("--unsafe-partial-writes", action="store_true",
                         help="TESTING ONLY: ack partial quorums under a"
                              " forced split-brain partition; the harness"
                              " must detect the violation and exit 1")
    p_chaos.add_argument("--byzantine", type=int, default=0, metavar="B",
                         help="run masking reads voting b+1 matching replies"
                              " deep (requires a b-masking system; see"
                              " --boost)")
    p_chaos.add_argument("--liars", type=int, default=0, metavar="L",
                         help="turn L replicas into lying (Byzantine)"
                              " replicas for the whole run; with L <= B the"
                              " run must stay clean, with L = B+1 the"
                              " harness must detect fabricated reads and"
                              " exit 1")
    p_chaos.add_argument("--byzantine-mode", default="wrong_value",
                         choices=("wrong_value", "stale_timestamp",
                                  "equivocate"),
                         help="lie flavour: fabricate values + fake-ack"
                              " writes, deny writes ever happened, or tell"
                              " each client site a different lie")
    p_chaos.add_argument("--lease-ttl", type=int, default=0, metavar="OPS",
                         help="quorum leases: every sampled quorum must"
                              " re-join (Timed-Quorum handshake) after this"
                              " many coordinator ops (0 = off)")
    p_chaos.add_argument("--boost", action="store_true",
                         help="if the system is thinner than --byzantine"
                              " requires, replace each element with a group"
                              " of 2B+1 replicas (analysis.byzantine.boost)")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the full chaos report as JSON")
    p_chaos.add_argument("--sim", action="store_true",
                         help="run under virtual time (the default;"
                              " bit-reproducible, milliseconds per run)")
    p_chaos.add_argument("--wall", action="store_true",
                         help="run the same SimTransport scenario under real"
                              " time (the wall-clock baseline for --sim)")
    p_chaos.add_argument("--seeds", type=int, default=1,
                         help="sweep this many consecutive seeds starting at"
                              " --seed (exit 1 if any run violates an"
                              " invariant)")
    p_chaos.add_argument("--json-out", metavar="PATH",
                         help="write the JSON report (plus wall-clock perf"
                              " numbers) to PATH")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_reshard = sub.add_parser(
        "reshard",
        help="split/grow a hot shard live under injected faults, with"
             " durability/staleness/monotonicity checks (exit 1 on"
             " violation)",
    )
    p_reshard.add_argument("--spec", default="majority:5",
                           help="per-shard system spec, e.g. majority:5")
    p_reshard.add_argument("--shards", type=int, default=4,
                           help="initial shard count (equal hash ranges)")
    p_reshard.add_argument("--kind", choices=("split", "grow", "none"),
                           default="split",
                           help="reshard operation fired mid-workload:"
                                " split the hottest shard, grow it (§5"
                                " membership growth), or none (baseline)")
    p_reshard.add_argument("--reshard-at", type=float, default=0.4,
                           help="fire the reshard after this fraction of ops")
    p_reshard.add_argument("--seed", type=int, default=0)
    p_reshard.add_argument("--ops", type=int, default=600)
    p_reshard.add_argument("--read-fraction", type=float, default=0.6)
    p_reshard.add_argument("--keys", type=int, default=48)
    p_reshard.add_argument("--skew", type=float, default=0.9,
                           help="zipf key skew (drives the hot shard)")
    p_reshard.add_argument("--clients", type=int, default=4)
    p_reshard.add_argument("--crash-rate", type=float, default=0.1,
                           help="iid crash probability per fault epoch")
    p_reshard.add_argument("--epoch", type=float, default=40.0,
                           help="ticks per crash epoch")
    p_reshard.add_argument("--timeout", type=float, default=200.0,
                           help="per-request deadline in ms")
    p_reshard.add_argument("--lease-ttl", type=int, default=0, metavar="OPS",
                           help="per-shard quorum leases: sampled quorums"
                                " re-join after this many ops, so the"
                                " drain→copy→flip handoff runs under"
                                " membership churn (0 = off)")
    p_reshard.add_argument("--sim", action="store_true",
                           help="run under virtual time (the default;"
                                " bit-reproducible, milliseconds per run)")
    p_reshard.add_argument("--wall", action="store_true",
                           help="run the same scenario under real time")
    p_reshard.add_argument("--seeds", type=int, default=1,
                           help="sweep this many consecutive seeds starting"
                                " at --seed (exit 1 if any run violates an"
                                " invariant)")
    p_reshard.add_argument("--json", action="store_true",
                           help="print the full reshard report as JSON")
    p_reshard.add_argument("--json-out", metavar="PATH",
                           help="write the JSON scorecard (plus wall-clock"
                                " perf numbers) to PATH")
    p_reshard.set_defaults(func=_cmd_reshard)

    p_incident = sub.add_parser(
        "incident",
        help="run a named SRE incident scenario from the library",
    )
    p_incident.add_argument("action", choices=("run", "list"),
                            help="'list' the incident library or 'run' one")
    p_incident.add_argument("name", nargs="?", default=None,
                            help="incident name (for 'run')")
    p_incident.add_argument("--system", default=None, metavar="SPEC",
                            help="override the incident's default quorum"
                                 " system (e.g. majority:5, hgrid:4x4,"
                                 " htriang:15)")
    p_incident.add_argument("--seed", type=int, default=0)
    p_incident.add_argument("--seeds", type=int, default=1,
                            help="sweep this many consecutive seeds starting"
                                 " at --seed (exit 1 if any run violates an"
                                 " invariant)")
    p_incident.add_argument("--ops", type=int, default=None,
                            help="override the incident's operation count")
    p_incident.add_argument("--sim", action="store_true",
                            help="run under virtual time (the default;"
                                 " bit-reproducible, milliseconds per run)")
    p_incident.add_argument("--wall", action="store_true",
                            help="run the same scenario under real time")
    p_incident.add_argument("--json", action="store_true",
                            help="print the scorecard as JSON")
    p_incident.add_argument("--json-out", metavar="PATH",
                            help="write the JSON scorecard (plus wall-clock"
                                 " perf numbers) to PATH")
    p_incident.set_defaults(func=_cmd_incident)

    p_serve = sub.add_parser(
        "serve", help="run TCP replica servers for a system"
    )
    p_serve.add_argument("system")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--base-port", type=int, default=9000,
                         help="replica i listens on base-port + i (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="host replicas in this many OS processes"
                              " (0 = one event loop in this process;"
                              " worker ports are ephemeral)")
    p_serve.add_argument("--uvloop", action="store_true",
                         help="install uvloop for the serving loop(s)"
                              " (no-op without the repro[perf] extra)")
    p_serve.add_argument("--duration", type=float, default=None,
                         help="stop after this many seconds (default: forever)")
    p_serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    if hasattr(args, "p") and args.p is None:
        args.p = [0.1, 0.2, 0.3, 0.5]
    args.func(args)


if __name__ == "__main__":
    main()
