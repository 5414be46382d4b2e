"""The shared safety-invariant registry for every chaos harness.

One implementation of each invariant, used by the service chaos engine
(:mod:`repro.scenarios.engine`), the resharding harness
(:mod:`repro.sharding.chaos`) and the incident library alike.  Each
invariant is a function of a run's recorded
:class:`~repro.scenarios.history.History` and of its replicas; each
check is a pure function appending violation dicts to a caller-owned
list, so a harness composes exactly the checks its execution model
supports.

Two families:

* **read checks** run once per successful read of the history's
  replay, in return order, against the read's expectation as of its
  invoke and the registries of issued versions
  (:func:`check_fabricated_read`, :func:`check_version_integrity`,
  :func:`check_issued_value`, :func:`check_fresh_read`);
* **post-run audits** compare the replay's acknowledged writes, the
  replicas' apply journals and the coordinators' bookkeeping with the
  state the run left (:func:`audit_durability`, :func:`audit_monotone`,
  :func:`audit_lie_detection`, :func:`audit_lie_suspicion`).

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


def _violation(invariant: str, detail: str, **where: Any) -> Dict[str, Any]:
    """One violation record: the invariant, where it fired (None fields
    left out), then the detail."""
    record: Dict[str, Any] = {"invariant": invariant}
    record.update((name, value) for name, value in where.items() if value is not None)
    record["detail"] = detail
    return record


# ----------------------------------------------------------------------
# Read checks
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
        detail = f"read returned fabricated value {value!r} at {timestamp}"
        violations.append(
            _violation("byzantine-fabricated-read", detail, op=op, client=client, key=key)
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
    writer)`` version was stamped on some write attempt, with exactly
    this value.  Null timestamps (never-written keys) pass."""
    if timestamp == NULL_TIMESTAMP:
        return
    version = (key, timestamp[0], timestamp[1])
    issued = issued_values.get(version)
    if version not in issued_values:
        detail = f"read returned never-issued version {timestamp}"
    elif issued != value:
        detail = f"version {timestamp} returned value {value!r}, issued as {issued!r}"
    else:
        return
    violations.append(_violation("version-integrity", detail, op=op, client=client, key=key))


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
        detail = f"read returned never-issued value {value!r} at {timestamp}"
        violations.append(_violation("version-integrity", detail, op=op, key=key))


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
    *before the read began* (the replay's snapshot at the read's
    invoke, so overlapping writes are excluded).  ``stale=True`` reads
    are exempt: the flag is precisely the permission to lag."""
    if not stale and expected is not None and timestamp < expected:
        detail = f"read returned {timestamp}, but {expected} was acknowledged earlier"
        violations.append(
            _violation("no-stale-unflagged-read", detail, op=op, client=client, key=key)
        )


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
        detail = f"newest surviving version is {surviving}, but {expected} was acknowledged"
    elif surviving == expected and surviving_value != acked_value:
        detail = (
            f"surviving version {surviving} holds {surviving_value!r},"
            f" acknowledged as {acked_value!r}"
        )
    else:
        return
    violations.append(_violation("acked-write-durable", detail, key=key))


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
                violations.append(
                    _violation(
                        "replica-ts-monotone",
                        f"{previous} then {current}",
                        shard=shard,
                        replica=replica,
                        key=key,
                    )
                )


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
        detail = f"honest replicas {framed} marked as liars (actual liars: {liars})"
        violations.append(_violation("lie-detection-sound", detail))


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
            detail = f"caught liars {unreflected} never entered the suspicion set"
            violations.append(
                _violation("lie-suspicion-reflected", detail, client=coordinator.coordinator_id)
            )
