"""Versioned hash-partitioned shard map over quorum systems.

A :class:`ShardMap` carves the 32-bit hash ring ``[0, SLOT_SPACE)`` into
contiguous half-open slot ranges, one per :class:`Shard`, each backed by
its own :class:`~repro.core.quorum_system.QuorumSystem` instance.  Keys
route by :func:`key_slot` — the first 8 bytes of the key's SHA-256,
reduced mod ``SLOT_SPACE`` — which is stable across processes, Python
versions and runs, so a serialized map routes identically everywhere
(``hash()`` would not: it is salted per process).

Maps are immutable values: every reshaping operation (:meth:`~ShardMap.
split`, :meth:`~ShardMap.merge`, :meth:`~ShardMap.replace`) returns a
*new* map with ``version`` bumped by one.  The sharded coordinator
installs a new map atomically after the handoff protocol completes, so
``version`` totally orders the epochs a running service has served
under — the in-memory analogue of the bounded-validity views that Timed
Quorum Systems use to make dynamic membership safe.

Serialisation embeds both the CLI spec string (``"htriang:15"``) when
one is known and the explicit quorum description from
:mod:`repro.core.serialization`, so a map round-trips even for systems
produced by growth operations that no spec names.  :meth:`ShardMap.
digest` hashes the canonical JSON form — the stable fingerprint the
determinism tests compare across sim and wall modes.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ServiceError
from ..core.quorum_system import QuorumSystem
from ..core.serialization import system_from_dict, system_to_dict

__all__ = ["SLOT_SPACE", "Shard", "ShardMap", "key_slot"]

#: Size of the hash ring: slots are in ``[0, SLOT_SPACE)``.
SLOT_SPACE = 1 << 32

#: Format marker for serialized shard maps.
FORMAT = "repro-shard-map/1"


def key_slot(key: str) -> int:
    """Deterministic slot of a key on the hash ring.

    First 8 bytes of SHA-256, big-endian, mod ``SLOT_SPACE`` — process-
    and platform-independent, unlike the salted builtin ``hash()``.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % SLOT_SPACE


class Shard:
    """One partition: a slot range served by one quorum system.

    Parameters
    ----------
    shard_id:
        Stable name; split children are named ``"<id>.0"`` / ``"<id>.1"``.
    lo, hi:
        Half-open slot range ``[lo, hi)`` on the hash ring.
    system:
        The quorum system serving this range.
    spec:
        Optional CLI-style spec (``"majority:5"``) the system was built
        from; kept for compact serialisation and display.
    """

    __slots__ = ("shard_id", "lo", "hi", "system", "spec")

    def __init__(
        self,
        shard_id: str,
        lo: int,
        hi: int,
        system: QuorumSystem,
        spec: Optional[str] = None,
    ) -> None:
        if not shard_id:
            raise ServiceError("shard needs a non-empty id")
        if not 0 <= lo < hi <= SLOT_SPACE:
            raise ServiceError(
                f"shard {shard_id!r}: invalid slot range [{lo}, {hi})"
            )
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.system = system
        self.spec = spec

    @property
    def slots(self) -> int:
        """Number of slots (share of the ring) this shard owns."""
        return self.hi - self.lo

    def to_dict(self) -> Dict[str, Any]:
        blob: Dict[str, Any] = {
            "id": self.shard_id,
            "lo": self.lo,
            "hi": self.hi,
            "system": system_to_dict(self.system),
        }
        if self.spec is not None:
            blob["spec"] = self.spec
        return blob

    @classmethod
    def from_dict(cls, blob: Dict[str, Any]) -> "Shard":
        spec = blob.get("spec")
        if spec is not None:
            # Rebuild through the spec so named constructions keep their
            # native class (growth ops, analytic loads); fall back to the
            # explicit quorums if the spec no longer parses.
            from ..cli import build_system

            try:
                system: QuorumSystem = build_system(spec)
            except Exception:
                system = system_from_dict(blob["system"])
        else:
            system = system_from_dict(blob["system"])
        return cls(str(blob["id"]), int(blob["lo"]), int(blob["hi"]), system, spec)

    def __repr__(self) -> str:
        return (
            f"<Shard {self.shard_id!r} [{self.lo}, {self.hi})"
            f" system={self.system.system_name!r} n={self.system.n}>"
        )


class ShardMap:
    """Immutable versioned routing table: slot ranges → quorum systems.

    Shards must tile the ring exactly — contiguous, non-overlapping,
    jointly covering ``[0, SLOT_SPACE)`` — which the constructor
    validates, so a malformed map can never route a key nowhere (or to
    two places).
    """

    def __init__(self, shards: Sequence[Shard], version: int = 1) -> None:
        if not shards:
            raise ServiceError("shard map needs at least one shard")
        if version < 1:
            raise ServiceError(f"map version must be >= 1, got {version}")
        ordered = sorted(shards, key=lambda s: s.lo)
        seen: set = set()
        cursor = 0
        for shard in ordered:
            if shard.shard_id in seen:
                raise ServiceError(f"duplicate shard id {shard.shard_id!r}")
            seen.add(shard.shard_id)
            if shard.lo != cursor:
                raise ServiceError(
                    f"shard ranges must tile the ring: gap/overlap at slot "
                    f"{cursor} (shard {shard.shard_id!r} starts at {shard.lo})"
                )
            cursor = shard.hi
        if cursor != SLOT_SPACE:
            raise ServiceError(
                f"shard ranges must cover the ring: ends at {cursor}, "
                f"expected {SLOT_SPACE}"
            )
        self.shards: Tuple[Shard, ...] = tuple(ordered)
        self.version = int(version)
        self._los: List[int] = [s.lo for s in self.shards]
        self._by_id: Dict[str, Shard] = {s.shard_id: s for s in self.shards}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for_slot(self, slot: int) -> Shard:
        if not 0 <= slot < SLOT_SPACE:
            raise ServiceError(f"slot {slot} outside [0, {SLOT_SPACE})")
        return self.shards[bisect_right(self._los, slot) - 1]

    def shard_for_key(self, key: str) -> Shard:
        """The shard serving ``key`` under this map version."""
        return self.shard_for_slot(key_slot(key))

    def shard(self, shard_id: str) -> Shard:
        try:
            return self._by_id[shard_id]
        except KeyError:
            raise ServiceError(f"unknown shard {shard_id!r}") from None

    @property
    def shard_ids(self) -> List[str]:
        """Shard ids in ring order."""
        return [s.shard_id for s in self.shards]

    def __len__(self) -> int:
        return len(self.shards)

    def __contains__(self, shard_id: object) -> bool:
        return shard_id in self._by_id

    # ------------------------------------------------------------------
    # Builders and reshaping (each returns a NEW map, version + 1)
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        systems: Sequence[QuorumSystem],
        *,
        specs: Optional[Sequence[Optional[str]]] = None,
        version: int = 1,
    ) -> "ShardMap":
        """Equal slot ranges, one per system, shards named ``s0..s{k-1}``.

        The last shard absorbs the rounding remainder so the ranges tile
        the ring exactly.
        """
        count = len(systems)
        if count == 0:
            raise ServiceError("uniform map needs at least one system")
        if specs is not None and len(specs) != count:
            raise ServiceError("specs must match systems in length")
        width = SLOT_SPACE // count
        shards = []
        for index, system in enumerate(systems):
            lo = index * width
            hi = SLOT_SPACE if index == count - 1 else (index + 1) * width
            spec = specs[index] if specs is not None else None
            shards.append(Shard(f"s{index}", lo, hi, system, spec))
        return cls(shards, version=version)

    def _rebuilt(self, shards: Sequence[Shard]) -> "ShardMap":
        return ShardMap(shards, version=self.version + 1)

    def split(
        self,
        shard_id: str,
        left_system: QuorumSystem,
        right_system: QuorumSystem,
        *,
        left_spec: Optional[str] = None,
        right_spec: Optional[str] = None,
        cut: Optional[int] = None,
    ) -> "ShardMap":
        """Split a shard at ``cut`` (range midpoint by default).

        The children are named ``"<id>.0"`` and ``"<id>.1"``, each with
        its own (possibly different) quorum system — the hot half can
        move to a larger h-triang while the cold half stays small.
        """
        old = self.shard(shard_id)
        if cut is None:
            cut = old.lo + old.slots // 2
        if not old.lo < cut < old.hi:
            raise ServiceError(
                f"cut {cut} outside shard {shard_id!r} range ({old.lo}, {old.hi})"
            )
        replacement = [
            Shard(f"{shard_id}.0", old.lo, cut, left_system, left_spec),
            Shard(f"{shard_id}.1", cut, old.hi, right_system, right_spec),
        ]
        shards = [s for s in self.shards if s.shard_id != shard_id] + replacement
        return self._rebuilt(shards)

    def merge(
        self,
        left_id: str,
        right_id: str,
        merged_system: QuorumSystem,
        *,
        merged_id: Optional[str] = None,
        spec: Optional[str] = None,
    ) -> "ShardMap":
        """Merge two ring-adjacent shards into one.

        The merged shard takes ``merged_id`` (default ``"<left>+<right>"``)
        and serves the union range with ``merged_system``.
        """
        left, right = self.shard(left_id), self.shard(right_id)
        if left.hi != right.lo:
            raise ServiceError(
                f"can only merge ring-adjacent shards; {left_id!r} ends at "
                f"{left.hi}, {right_id!r} starts at {right.lo}"
            )
        name = merged_id if merged_id is not None else f"{left_id}+{right_id}"
        merged = Shard(name, left.lo, right.hi, merged_system, spec)
        shards = [
            s for s in self.shards if s.shard_id not in (left_id, right_id)
        ] + [merged]
        return self._rebuilt(shards)

    def replace(
        self,
        shard_id: str,
        new_system: QuorumSystem,
        *,
        spec: Optional[str] = None,
    ) -> "ShardMap":
        """Swap a shard's quorum system in place (same range, same id).

        This is the §5 membership-growth path: an h-triang shard grows
        via ``grown("t1"/"t2"/"grid")`` into a larger system without
        changing what keys it owns.
        """
        old = self.shard(shard_id)
        replacement = Shard(shard_id, old.lo, old.hi, new_system, spec)
        shards = [s for s in self.shards if s.shard_id != shard_id] + [replacement]
        return self._rebuilt(shards)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "version": self.version,
            "slot_space": SLOT_SPACE,
            "shards": [s.to_dict() for s in self.shards],
        }

    @classmethod
    def from_dict(cls, blob: Dict[str, Any]) -> "ShardMap":
        if blob.get("format") != FORMAT:
            raise ServiceError(
                f"unsupported shard-map format {blob.get('format')!r}"
            )
        if blob.get("slot_space") != SLOT_SPACE:
            raise ServiceError(
                f"shard map uses slot space {blob.get('slot_space')}, "
                f"expected {SLOT_SPACE}"
            )
        shards = [Shard.from_dict(item) for item in blob["shards"]]
        return cls(shards, version=int(blob.get("version", 1)))

    def dumps(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "ShardMap":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the map's stable fingerprint."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()

    def describe(self) -> List[Dict[str, Any]]:
        """Human-facing summary rows (for the CLI)."""
        return [
            {
                "shard": s.shard_id,
                "range": [s.lo, s.hi],
                "share": s.slots / SLOT_SPACE,
                "system": s.system.system_name,
                "n": s.system.n,
                "spec": s.spec,
            }
            for s in self.shards
        ]

    def __repr__(self) -> str:
        return f"<ShardMap v{self.version} shards={len(self.shards)}>"
