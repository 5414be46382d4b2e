"""The shared safety-invariant registry for every chaos harness.

One implementation of each invariant, used by the service chaos engine
(:mod:`repro.scenarios.engine`), the resharding harness
(:mod:`repro.sharding.chaos`) and the incident library alike.  The
checks are deliberately parameterised rather than object-oriented: each
is a pure function appending violation dicts to a caller-owned list, so
a harness composes exactly the checks its execution model supports and
the violation records stay byte-identical to what the pre-refactor
copies emitted.

Two families:

* **read-time checks** run against each successful read
  (:func:`check_fabricated_read`, :func:`check_version_integrity`,
  :func:`check_issued_value`, :func:`check_fresh_read`);
* **post-run audits** sweep replica state and coordinator bookkeeping
  after the workload drained (:func:`audit_durability`,
  :func:`audit_monotone`, :func:`audit_lie_detection`,
  :func:`audit_lie_suspicion`).

``INVARIANTS`` maps every invariant name to its one-line contract — the
single source for scorecard ``checked`` lists and the docs table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..service.replica import NULL_TIMESTAMP

_TS = Tuple[int, int]

__all__ = [
    "BYZANTINE_INVARIANTS",
    "CORE_INVARIANTS",
    "INVARIANTS",
    "audit_durability",
    "audit_lie_detection",
    "audit_lie_suspicion",
    "audit_monotone",
    "check_fabricated_read",
    "check_fresh_read",
    "check_issued_value",
    "check_version_integrity",
]

#: Every known invariant and its contract, scorecard-ordered.
INVARIANTS: Dict[str, str] = {
    "acked-write-durable": (
        "after the run, the newest version surviving on any authoritative"
        " replica is at least the newest acknowledged timestamp per key,"
        " and carries the acknowledged value on equality"
    ),
    "no-stale-unflagged-read": (
        "a successful unflagged read returns a timestamp at least as new"
        " as every write acknowledged before the read began; stale=True"
        " degraded reads are exempt by contract"
    ),
    "version-integrity": (
        "every version a read returns was actually issued by some writer,"
        " with the value it was issued with"
    ),
    "replica-ts-monotone": (
        "replica journals only ever move forward (write idempotence under"
        " duplication, handoff and migration replay)"
    ),
    "byzantine-fabricated-read": (
        "no successful read (degraded included) ever returns a value a"
        " lying replica fabricated"
    ),
    "lie-detection-sound": (
        "within the masking budget, every replica a coordinator marks as"
        " a liar really is one"
    ),
    "lie-suspicion-reflected": (
        "every caught liar entered the suspicion/breaker machinery, so"
        " lying replicas are steered away from"
    ),
}

#: The four invariants every harness checks.
CORE_INVARIANTS: Tuple[str, ...] = (
    "acked-write-durable",
    "no-stale-unflagged-read",
    "version-integrity",
    "replica-ts-monotone",
)

#: The three extra invariants active when replicas lie.
BYZANTINE_INVARIANTS: Tuple[str, ...] = (
    "byzantine-fabricated-read",
    "lie-detection-sound",
    "lie-suspicion-reflected",
)


# ----------------------------------------------------------------------
# Read-time checks
# ----------------------------------------------------------------------
def check_fabricated_read(
    violations: List[Dict[str, Any]],
    *,
    op: int,
    client: int,
    key: str,
    value: Any,
    timestamp: _TS,
    fabricated: Set[Any],
) -> None:
    """**byzantine-fabricated-read**: the value is not a registered lie.

    Checked before any stale exemption on purpose: a fabricated value is
    a safety violation even when served flagged-stale.
    """
    if value in fabricated:
        violations.append(
            {
                "invariant": "byzantine-fabricated-read",
                "op": op,
                "client": client,
                "key": key,
                "detail": (
                    f"read returned fabricated value {value!r}"
                    f" at {timestamp}"
                ),
            }
        )


def check_version_integrity(
    violations: List[Dict[str, Any]],
    *,
    op: int,
    client: int,
    key: str,
    value: Any,
    timestamp: _TS,
    issued_values: Mapping[Tuple[str, int, int], Any],
) -> None:
    """**version-integrity**, exact form: the returned ``(key, counter,
    writer)`` version was registered before some write attempt, with
    exactly this value.  Null timestamps (never-written keys) pass."""
    if timestamp == NULL_TIMESTAMP:
        return
    version = (key, timestamp[0], timestamp[1])
    issued = issued_values.get(version)
    if version not in issued_values:
        violations.append(
            {
                "invariant": "version-integrity",
                "op": op,
                "client": client,
                "key": key,
                "detail": f"read returned never-issued version {timestamp}",
            }
        )
    elif issued != value:
        violations.append(
            {
                "invariant": "version-integrity",
                "op": op,
                "client": client,
                "key": key,
                "detail": (
                    f"version {timestamp} returned value {value!r},"
                    f" issued as {issued!r}"
                ),
            }
        )


def check_issued_value(
    violations: List[Dict[str, Any]],
    *,
    op: int,
    key: str,
    value: Any,
    timestamp: _TS,
    issued: Set[Any],
) -> None:
    """**version-integrity**, value-set form: every non-null value a read
    returns was issued for that key by some writer.  The form the
    sharded harness uses, where coordinator logical clocks restart
    across migration epochs and exact timestamps are not stable."""
    if value is not None and value not in issued:
        violations.append(
            {
                "invariant": "version-integrity",
                "op": op,
                "key": key,
                "detail": (
                    f"read returned never-issued value"
                    f" {value!r} at {timestamp}"
                ),
            }
        )


def check_fresh_read(
    violations: List[Dict[str, Any]],
    *,
    op: int,
    key: str,
    timestamp: _TS,
    stale: bool,
    expected: Optional[_TS],
    client: Optional[int] = None,
) -> None:
    """**no-stale-unflagged-read**: an unflagged read is at least as new
    as ``expected`` — the newest timestamp acknowledged for the key
    *before the read began* (snapshot it before the first await when
    operations run concurrently).  ``stale=True`` reads are exempt:
    the flag is precisely the permission to lag."""
    if stale:
        return
    if expected is not None and timestamp < expected:
        violation: Dict[str, Any] = {
            "invariant": "no-stale-unflagged-read",
            "op": op,
        }
        if client is not None:
            violation["client"] = client
        violation["key"] = key
        violation["detail"] = (
            f"read returned {timestamp}, but {expected} was"
            " acknowledged earlier"
        )
        violations.append(violation)


# ----------------------------------------------------------------------
# Post-run audits
# ----------------------------------------------------------------------
def audit_durability(
    violations: List[Dict[str, Any]],
    *,
    key: str,
    expected: _TS,
    acked_value: Any,
    replicas: Iterable[Any],
) -> None:
    """**acked-write-durable** for one key: the newest version surviving
    on ``replicas`` (the key's authoritative set) is at least
    ``expected``, and holds ``acked_value`` on timestamp equality."""
    surviving: _TS = NULL_TIMESTAMP
    surviving_value: Any = None
    for replica in replicas:
        version = replica.get(key)
        if version is not None and version.timestamp > surviving:
            surviving = version.timestamp
            surviving_value = version.value
    if surviving < expected:
        violations.append(
            {
                "invariant": "acked-write-durable",
                "key": key,
                "detail": (
                    f"newest surviving version is {surviving}, but"
                    f" {expected} was acknowledged"
                ),
            }
        )
    elif surviving == expected and surviving_value != acked_value:
        violations.append(
            {
                "invariant": "acked-write-durable",
                "key": key,
                "detail": (
                    f"surviving version {surviving} holds"
                    f" {surviving_value!r}, acknowledged as"
                    f" {acked_value!r}"
                ),
            }
        )


def audit_monotone(
    violations: List[Dict[str, Any]],
    journal: Mapping[str, List[_TS]],
    *,
    replica: int,
    shard: Optional[str] = None,
) -> None:
    """**replica-ts-monotone** for one replica's journal: per key, the
    applied ``(counter, writer)`` sequence strictly increases."""
    for key in sorted(journal):
        entries = journal[key]
        for previous, current in zip(entries, entries[1:]):
            if current <= previous:
                violation: Dict[str, Any] = {
                    "invariant": "replica-ts-monotone",
                }
                if shard is not None:
                    violation["shard"] = shard
                violation["replica"] = replica
                violation["key"] = key
                violation["detail"] = f"{previous} then {current}"
                violations.append(violation)


def audit_lie_detection(
    violations: List[Dict[str, Any]],
    *,
    coordinators: Sequence[Any],
    liars: List[int],
    budget: int,
) -> None:
    """**lie-detection-sound**: no honest replica was marked as a liar.

    Soundness is only guaranteed inside the masking budget: with more
    than ``budget`` liars, colluding votes can out-number the truth and
    frame honest replicas — that regime is the expected-failure case,
    already flagged by byzantine-fabricated-read — so the audit is
    skipped there.
    """
    if len(liars) > budget:
        return
    accused: Set[int] = set()
    for coordinator in coordinators:
        accused |= coordinator.health.lied_replicas
    framed = sorted(accused - set(liars))
    if framed:
        violations.append(
            {
                "invariant": "lie-detection-sound",
                "detail": (
                    f"honest replicas {framed} marked as liars"
                    f" (actual liars: {liars})"
                ),
            }
        )


def audit_lie_suspicion(
    violations: List[Dict[str, Any]],
    *,
    coordinators: Sequence[Any],
) -> None:
    """**lie-suspicion-reflected**: every caught liar fed the suspicion
    machinery of the coordinator that caught it."""
    for coordinator in coordinators:
        health = coordinator.health
        unreflected = sorted(health.lied_replicas - health.suspicion_history)
        if unreflected:
            violations.append(
                {
                    "invariant": "lie-suspicion-reflected",
                    "client": coordinator.coordinator_id,
                    "detail": (
                        f"caught liars {unreflected} never entered"
                        " the suspicion set"
                    ),
                }
            )
