"""Multi-process replica workers: one Python process per core.

Every in-process transport — and even the TCP servers started by
:func:`~repro.service.transport.start_tcp_replicas` — runs all replicas
on one event loop in one Python process, so measured throughput is
capped by one core and one GIL no matter how well the quorum system
spreads load.  :class:`ReplicaCluster` removes that cap: it partitions
the replica set round-robin across ``workers`` OS processes, each
hosting its own event loop and serving its replicas over the usual
binary wire v2 TCP servers.

Mechanics:

* Children are started with the ``fork`` start method when the platform
  has it (fast, no re-import of numpy/scipy) and ``spawn`` otherwise.
  Each child binds its replicas to ephemeral ports and reports the
  ``{replica_id: (host, port)}`` map back over a pipe; the parent
  merges the maps into the address book any TCP transport consumes.
* Shutdown is cooperative: the parent sends a sentinel down the pipe,
  the child's event loop wakes via ``add_reader``, closes its servers
  and exits.  ``close()`` escalates to ``terminate()`` only if a child
  ignores the sentinel.
* Crash detection: :meth:`poll_crashed` reports replicas whose worker
  died.  A dead worker's sockets drop, so in-flight and subsequent
  calls surface :class:`~repro.core.errors.ReplicaUnavailable` — which
  is exactly the signal the coordinator's suspicion set and per-replica
  circuit breakers already consume; no new failure path is needed.

The cluster is driven from *outside* the event loop (create it before
``asyncio.run``) because forking below a running loop duplicates loop
state into the child.  The child scrubs that state defensively either
way (fresh loop, ``_set_running_loop(None)``), so in-loop use — what
``start_tcp_replicas(workers=N)`` does via an executor — also works.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.errors import ServiceError

__all__ = ["ReplicaCluster", "DEFAULT_START_TIMEOUT"]

#: Seconds the parent waits for every worker to report its port map.
DEFAULT_START_TIMEOUT = 30.0

#: Seconds a worker gets to exit after the shutdown sentinel.
_JOIN_TIMEOUT = 5.0


def _worker_main(
    conn, replica_ids: List[int], host: str, base_port: int, use_uvloop: bool
) -> None:
    """Child entry point: serve ``replica_ids`` until the pipe says stop."""
    import asyncio

    # Under the fork start method the child inherits the parent's
    # "currently running loop" thread-state; scrub it so a fresh loop
    # can run in this process.
    try:
        asyncio.events._set_running_loop(None)  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - private API moved
        pass
    if use_uvloop:
        from ..runtime.clock import install_uvloop

        install_uvloop()

    from .replica import Replica
    from .transport import start_tcp_replicas

    async def serve() -> None:
        replicas = [Replica(replica_id) for replica_id in replica_ids]
        servers, addresses = await start_tcp_replicas(
            replicas, host=host, base_port=base_port
        )
        conn.send(addresses)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Any inbound byte — or EOF from a dying parent — is the signal.
        loop.add_reader(conn.fileno(), stop.set)
        try:
            await stop.wait()
        finally:
            loop.remove_reader(conn.fileno())
            for server in servers:
                server.close()
            for server in servers:
                await server.wait_closed()

    loop = asyncio.new_event_loop()
    try:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(serve())
    finally:
        loop.close()
        conn.close()


class ReplicaCluster:
    """A set of replica servers spread over ``workers`` OS processes.

    Parameters
    ----------
    replica_ids:
        Universe element ids to host; replica ``i`` goes to worker
        ``i % workers`` (round-robin keeps quorum members spread across
        cores for every system family).
    workers:
        Process count; each worker serves its replicas on one event
        loop over the binary wire v2 TCP servers.
    host:
        Interface to bind (loopback by default).
    base_port:
        With ``base_port > 0`` replica ``i`` listens on ``base_port + i``
        (the fixed layout external ``kvbench --tcp`` clients expect);
        ``0`` lets the OS assign ephemeral ports.
    use_uvloop:
        Install uvloop in each worker when available (no-op otherwise).
    """

    def __init__(
        self,
        replica_ids: Iterable[int],
        *,
        workers: int = 1,
        host: str = "127.0.0.1",
        base_port: int = 0,
        use_uvloop: bool = False,
    ) -> None:
        self.replica_ids = sorted(replica_ids)
        if not self.replica_ids:
            raise ServiceError("cluster needs at least one replica")
        if workers < 1:
            raise ServiceError(f"cluster needs workers >= 1, got {workers}")
        self.workers = min(workers, len(self.replica_ids))
        self.host = host
        self.base_port = base_port
        self.use_uvloop = use_uvloop
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: List = []
        self._assignments: List[List[int]] = [
            self.replica_ids[shard :: self.workers] for shard in range(self.workers)
        ]
        self._started = False

    # ------------------------------------------------------------------
    def start(self, timeout: float = DEFAULT_START_TIMEOUT) -> Dict[int, Tuple[str, int]]:
        """Spawn the workers; block until every port map arrives.

        Returns the merged ``{replica_id: (host, port)}`` address map.
        """
        if self._started:
            return self.addresses
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        try:
            for assignment in self._assignments:
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        assignment,
                        self.host,
                        self.base_port,
                        self.use_uvloop,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._pipes.append(parent_conn)
            for process, pipe, assignment in zip(
                self._processes, self._pipes, self._assignments
            ):
                if not pipe.poll(timeout):
                    raise ServiceError(
                        f"cluster worker for replicas {assignment} did not "
                        f"report its ports within {timeout:g}s"
                    )
                self.addresses.update(pipe.recv())
        except BaseException:
            self.close()
            raise
        missing = set(self.replica_ids) - set(self.addresses)
        if missing:
            self.close()
            raise ServiceError(f"cluster workers never bound replicas {sorted(missing)}")
        self._started = True
        return self.addresses

    # ------------------------------------------------------------------
    def poll_crashed(self) -> List[int]:
        """Replica ids whose worker process has died.

        Their sockets are gone, so transports raise ``ReplicaUnavailable``
        for them — feeding the coordinator's suspicion set and circuit
        breakers exactly like any other unreachable replica.
        """
        crashed: List[int] = []
        for process, assignment in zip(self._processes, self._assignments):
            if process.pid is not None and not process.is_alive():
                crashed.extend(assignment)
        return sorted(crashed)

    def worker_for(self, replica_id: int) -> Optional[multiprocessing.process.BaseProcess]:
        """The process hosting ``replica_id`` (for targeted crash tests)."""
        for process, assignment in zip(self._processes, self._assignments):
            if replica_id in assignment:
                return process
        return None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker: sentinel first, ``terminate()`` as a last
        resort; idempotent."""
        for pipe in self._pipes:
            try:
                pipe.send(b"stop")
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._processes.clear()
        self._pipes.clear()
        self._started = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ReplicaCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self._started else "stopped"
        return (
            f"<ReplicaCluster {state} replicas={len(self.replica_ids)}"
            f" workers={self.workers}>"
        )
