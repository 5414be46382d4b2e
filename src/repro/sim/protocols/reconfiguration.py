"""Online reconfiguration of a replicated register.

§5's growth operations ("introducing new elements") change the quorum
system while data lives in it.  This protocol migrates a replicated
register from one quorum system to another — e.g. from ``h-triang(t)``
to one of its §5 growths — without losing the latest committed value:

1. **seal** — read the latest ``(version, value)`` through a quorum of
   the *old* system;
2. **transfer** — write it (with a bumped version) through a quorum of
   the *new* system;
3. **flip** — subsequent operations use the new system only.

The client refuses new operations while a migration is in flight (a
stop-the-world epoch change, the textbook baseline; non-blocking
reconfiguration needs joint quorums and is out of scope).  Safety
follows from quorum intersection *within* each epoch plus the version
bump at the hand-off: post-flip reads see a version at least as high as
the sealed one, so they can never return pre-migration state.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ...core.errors import ProtocolError
from ...core.quorum_system import Quorum, QuorumSystem
from .replication import OperationResult, ReplicatedRegisterClient


class ReconfigurableRegister:
    """A replicated-register façade with epoch-based reconfiguration.

    Parameters
    ----------
    client:
        The underlying :class:`ReplicatedRegisterClient` (replicas for
        *all* epochs must be registered on its network — new elements
        are added as replicas before :meth:`reconfigure` is called).
    system:
        The initial quorum system.
    candidate_quorums:
        How many quorums to offer per operation (retries).
    """

    def __init__(
        self,
        client: ReplicatedRegisterClient,
        system: QuorumSystem,
        candidate_quorums: int = 3,
    ) -> None:
        if candidate_quorums < 1:
            raise ProtocolError("need at least one candidate quorum")
        self._client = client
        self._system = system
        self._candidates = candidate_quorums
        self._migrating = False
        self.epoch = 0
        self.migrations: List[OperationResult] = []

    # ------------------------------------------------------------------
    @property
    def system(self) -> QuorumSystem:
        """The quorum system of the current epoch."""
        return self._system

    @property
    def migrating(self) -> bool:
        """Whether a reconfiguration is in flight."""
        return self._migrating

    def _pick_quorums(self, system: Optional[QuorumSystem] = None) -> List[Quorum]:
        system = system or self._system
        quorums = system.minimal_quorums()
        rng = self._client.sim.rng
        return [
            quorums[int(rng.integers(len(quorums)))]
            for _ in range(self._candidates)
        ]

    def _guard(self) -> None:
        if self._migrating:
            raise ProtocolError("register is reconfiguring; retry after the flip")

    # ------------------------------------------------------------------
    # Normal operations (delegate to the current epoch's system)
    # ------------------------------------------------------------------
    def read(self, on_done: Callable[[OperationResult], None]) -> None:
        """Read through the current epoch's quorums."""
        self._guard()
        self._client.read(self._pick_quorums(), on_done=on_done)

    def write(self, update: Callable[[Any], Any], on_done) -> None:
        """Read-modify-write through the current epoch's quorums."""
        self._guard()
        self._client.read_write(self._pick_quorums(), update, on_done=on_done)

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        new_system: QuorumSystem,
        on_done: Callable[[bool], None],
    ) -> None:
        """Migrate to ``new_system`` (seal -> transfer -> flip).

        ``on_done(ok)`` reports whether the migration committed; on
        failure the register stays in the old epoch and remains usable.
        """
        self._guard()
        self._migrating = True

        def sealed(result: OperationResult) -> None:
            self.migrations.append(result)
            if not result.ok:
                self._migrating = False
                on_done(False)
                return

            sealed_value = result.value

            def transferred(write_result: OperationResult) -> None:
                self.migrations.append(write_result)
                if not write_result.ok:
                    self._migrating = False
                    on_done(False)
                    return
                self._system = new_system
                self.epoch += 1
                self._migrating = False
                on_done(True)

            # Bumping the version happens inside read_write (max+1), so
            # the transferred copy supersedes every old-epoch replica.
            self._client.read_write(
                self._pick_quorums(new_system),
                lambda _current: sealed_value,
                on_done=transferred,
            )

        self._client.read(self._pick_quorums(), on_done=sealed)
