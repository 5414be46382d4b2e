"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tcp-read95 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory; without it the command exits non-zero.  Output
is human-readable lines (environment fingerprint, set-up times, sample
counts, correctness, and with ``--trace 1`` each layer's share of wall
time), then one JSON object on the last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced window.  The exit code is 0 only
when every correctness check held.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Workloads, metric names and units are read from here, so the result
#: line always matches what the file declares.
SPEC = ROOT / "BENCHMARK.json"


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(module: str) -> Optional[str]:
    try:
        return getattr(importlib.import_module(module), "__version__", "present")
    except ImportError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    """What a result was measured with: orjson, for one, changes the
    wire codec's speed."""
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "orjson": _version("orjson"),
        "uvloop": _version("uvloop") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[workload["name"] for workload in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(fingerprint(), sort_keys=True))
    if args.workload == "sim-chaos":
        import workload_chaos as workload
    else:
        import workload_tcp as workload
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result.metrics) != set(units):
        raise AssertionError(f"metrics differ from {SPEC.name}: {set(result.metrics) ^ set(units)}")
    metrics = {}
    for name, value in result.metrics.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
