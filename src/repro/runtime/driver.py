"""The workload driver every serving harness shares.

A harness builds its stack, asks this module for an op plan and drives
it, then audits what happened.  Three pieces:

* :func:`key_weights` — power-law key popularity;
* :func:`op_plan` — the seed-deterministic ``(kind, key)`` sequence,
  precomputed so a run does not depend on how clients interleave;
* :func:`drive` — runs ``ops`` operations either as a **closed loop**
  (``workers`` coroutines pull op indices from one counter, each issuing
  its next op when the previous one finishes, so throughput throttles to
  service capacity) or as an **open loop** (op ``i`` is spawned at its
  arrival instant on a clock whether or not earlier ops finished, so
  overload shows up as queueing and timeout burn instead of a slowed
  generator).

The harness hands :func:`drive` one callable, ``start(index, worker)``.
The driver calls it synchronously at the moment op ``index`` begins and
awaits (closed loop) or spawns (open loop) the awaitable it returns, so
whatever ``start`` does before returning — advancing fault ticks,
firing a reshard, recording an op history — happens in op order, before
the driver yields to the event loop.

:func:`poisson_arrivals` draws open-loop arrival instants and
:func:`arrival_summary` reports how well the open loop kept to them.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ServiceError
from .clock import Clock

__all__ = ["arrival_summary", "drive", "key_weights", "op_plan", "poisson_arrivals"]


def key_weights(count: int, skew: float) -> np.ndarray:
    """Power-law key popularity: weight of rank ``r`` is ``1/(r+1)^skew``."""
    if skew < 0:
        raise ServiceError("skew must be >= 0")
    weights = 1.0 / np.power(np.arange(1, count + 1, dtype=float), skew)
    return weights / weights.sum()


def op_plan(
    rng: np.random.Generator,
    key_names: Sequence[str],
    *,
    ops: int,
    read_fraction: float,
    weights: Optional[np.ndarray],
) -> List[Tuple[str, str]]:
    """The seed-deterministic ``(kind, key)`` sequence of a run.

    Draws every op's kind first, then every op's key: from ``weights``
    (see :func:`key_weights`) when given, uniformly by integer draws when
    ``None``.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ServiceError("read fraction must be in [0,1]")
    reads = rng.random(ops) < read_fraction
    if weights is None:
        indices = rng.integers(0, len(key_names), size=ops)
    else:
        indices = rng.choice(len(key_names), size=ops, p=weights)
    return [
        ("read" if is_read else "write", key_names[int(index)])
        for is_read, index in zip(reads, indices)
    ]


def poisson_arrivals(rng: np.random.Generator, ops: int, rate: float) -> np.ndarray:
    """Arrival offsets (ms) of ``ops`` Poisson arrivals at ``rate`` ops/s."""
    return np.cumsum(rng.exponential(1000.0 / rate, size=ops))


async def drive(
    ops: int,
    start: Callable[[int, int], Awaitable[Any]],
    *,
    workers: int,
    clock: Optional[Clock] = None,
    arrivals: Optional[np.ndarray] = None,
) -> Tuple[float, float]:
    """Run ops ``0 .. ops-1``; return ``(elapsed_ms, max_spawn_lag_ms)``.

    Without ``arrivals`` this is a closed loop of ``workers`` coroutines
    sharing one op counter; ``worker`` is the coroutine's index.  With
    ``arrivals`` (offsets in ms, see :func:`poisson_arrivals`) op
    ``index`` is spawned at ``origin + arrivals[index]`` on ``clock``
    with ``worker = index % workers``; the open loop needs a clock.
    Elapsed time is measured on ``clock`` (0.0 without one); spawn lag
    is how late the open loop spawned its ops (0.0 in the closed loop).
    """
    origin = clock.now() if clock is not None else 0.0
    max_lag = 0.0
    if arrivals is None:
        next_op = itertools.count()

        async def worker(worker_id: int) -> None:
            while True:
                index = next(next_op)
                if index >= ops:
                    return
                await start(index, worker_id)

        await asyncio.gather(*(worker(w) for w in range(workers)))
    elif clock is None:
        raise ServiceError(
            "open-loop arrival needs a clocked transport (SimTransport"
            " under sim/wall time); use closed-loop arrival instead"
        )
    else:
        pending: List["asyncio.Future[Any]"] = []
        for index in range(ops):
            target = origin + float(arrivals[index])
            delay = target - clock.now()
            if delay > 0:
                await clock.sleep(delay)
            lag = clock.now() - target
            if lag > max_lag:
                max_lag = lag
            pending.append(asyncio.ensure_future(start(index, index % workers)))
        await asyncio.gather(*pending)
    elapsed = clock.now() - origin if clock is not None else 0.0
    return elapsed, max_lag


def arrival_summary(
    rate: float, ops: int, elapsed_ms: float, max_spawn_lag_ms: float
) -> Dict[str, Any]:
    """The open-loop accounting block reported next to a run's metrics.

    Under virtual time the loop wakes the generator on schedule, so
    ``max_spawn_lag_ms`` is only float rounding of the ms→s→ms clock jump,
    about one ulp of the clock (3.6e-12 ms 19 virtual seconds in; the tests
    assert < 1e-6).  More means the open loop failed to keep the rate.
    """
    return {
        "mode": "poisson",
        "rate_ops_per_s": rate,
        "elapsed_ms": elapsed_ms,
        "achieved_ops_per_s": ops / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0,
        "max_spawn_lag_ms": max_spawn_lag_ms,
    }
