"""Declarative scenario engine + named SRE incident library.

One runner (:mod:`repro.scenarios.engine`) executes a Scenario — fault
schedule + workload recipe + the shared invariant set
(:mod:`repro.scenarios.invariants`) + SLO targets
(:mod:`repro.scenarios.slo`) — over the plain service stack, records
its client history (:mod:`repro.scenarios.history`), producing
versioned JSON scorecards (:mod:`repro.scenarios.scorecard`) with
bit-reproducible trace hashes in ``sim`` mode.  The named incidents
live in :mod:`repro.scenarios.library`, behind ``quorumtool incident``;
``quorumtool chaos`` and the sharded harness run on the same engine and
registry.
"""

from .engine import ChaosConfig, ChaosReport, Scenario, run_chaos, run_scenario
from .invariants import (
    BYZANTINE_INVARIANTS,
    CORE_INVARIANTS,
    INVARIANTS,
    audit_durability,
    audit_lie_detection,
    audit_lie_suspicion,
    audit_monotone,
    check_fabricated_read,
    check_fresh_read,
    check_issued_value,
    check_version_integrity,
)
from .library import INCIDENTS, get_incident, list_incidents
from .scorecard import (
    SCORECARD_VERSION,
    digest,
    invariants_block,
    violation_counts,
)
from .slo import SloTargets, slo_report

__all__ = [
    "BYZANTINE_INVARIANTS",
    "CORE_INVARIANTS",
    "ChaosConfig",
    "ChaosReport",
    "INCIDENTS",
    "INVARIANTS",
    "SCORECARD_VERSION",
    "Scenario",
    "SloTargets",
    "audit_durability",
    "audit_lie_detection",
    "audit_lie_suspicion",
    "audit_monotone",
    "check_fabricated_read",
    "check_fresh_read",
    "check_issued_value",
    "check_version_integrity",
    "digest",
    "get_incident",
    "invariants_block",
    "list_incidents",
    "run_chaos",
    "run_scenario",
    "slo_report",
    "violation_counts",
]
