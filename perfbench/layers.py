"""Per-layer tracing for the traced pass, done from outside the program.

The program under test carries no tracing of its own yet, so the traced
pass swaps functions of each layer (class or module attributes) for
thin wrappers that accumulate *self time*: a span's duration minus the
part covered by spans nested inside it.  Only synchronous functions
are timed, so a span never straddles an ``await`` and the single-thread
stack stays exact.  Coroutine functions are only counted.

Time spent blocked in ``select()`` is the event loop's idle time; it is
measured by a selector proxy on the event loop, so that

    wall = sum(layer self times) + loop idle + residual

where the residual is the untimed rest: coordinator logic, asyncio
scheduling, socket syscalls and the tracing wrappers themselves.
"""

from __future__ import annotations

import functools
import selectors
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf_ns = time.perf_counter_ns


class LoopMeter:
    """Selector proxy: counts loop iterations and time blocked in select."""

    def __init__(self, wrapped: selectors.BaseSelector) -> None:
        self._wrapped = wrapped
        self.idle_ns = 0
        self.iterations = 0

    def select(self, timeout: Optional[float] = None) -> List[Any]:
        start = _perf_ns()
        try:
            return self._wrapped.select(timeout)
        finally:
            self.idle_ns += _perf_ns() - start
            self.iterations += 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self._wrapped, name)


class Tracer:
    """Self-time accumulators keyed by layer, call counts keyed by function.

    ``time``/``count``/``meter_default_selector`` swap wrappers in;
    ``uninstall`` restores every original.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.false_results: Dict[str, int] = defaultdict(int)
        self.meters: List[LoopMeter] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _span(self, layer: str, label: str, fn: Callable, count_false: bool) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        false_results = self.false_results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            stack.append(0)
            start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf_ns() - start
                self_ns[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count_false and result is False:
                false_results[label] += 1
            return result

        return wrapper

    def _counted(self, label: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            calls[label] += 1
            return await fn(*args, **kwargs)

        return wrapper

    def _swap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, replacement)

    def time(self, owner: Any, names: Tuple[str, ...], layer: str, *, count_false: bool = False) -> None:
        """Time each named sync function of ``owner`` under ``layer``."""
        prefix = owner.__name__.rsplit(".", 1)[-1]
        for name in names:
            label = f"{prefix}.{name}"
            self._swap(
                owner, name, lambda fn, label=label: self._span(layer, label, fn, count_false)
            )

    def count(self, owner: Any, name: str) -> None:
        """Count calls of a coroutine function without timing it."""
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        self._swap(owner, name, lambda fn: self._counted(label, fn))

    def meter_default_selector(self) -> None:
        """Meter every event loop created while installed (``run_chaos``
        builds its own virtual-time loop, which asks for the default
        selector)."""
        original = selectors.DefaultSelector

        def factory() -> LoopMeter:
            meter = LoopMeter(original())
            self.meters.append(meter)
            return meter

        self._saved.append((selectors, "DefaultSelector", original))
        selectors.DefaultSelector = factory  # type: ignore[misc]

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def reset(self) -> None:
        """Zero every accumulator (in place: the wrappers hold them)."""
        self.self_ns.clear()
        self.calls.clear()
        self.false_results.clear()

    # ------------------------------------------------------------------
    def layer_ns(self, layer: str) -> int:
        return self.self_ns.get(layer, 0)

    def calls_of(self, *labels: str) -> int:
        return sum(self.calls.get(label, 0) for label in labels)


def install_program_tracing(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads cross."""
    from repro.core.strategy import Strategy
    from repro.runtime.faults import FaultSchedule
    from repro.scenarios import engine
    from repro.service import wire
    from repro.service.metrics import ServiceMetrics
    from repro.service.replica import Replica
    from repro.service.simtransport import SimTransport
    from repro.service import transport

    tracer.time(Strategy, ("sample_index", "avoiding"), "strategy")
    tracer.time(
        wire,
        ("encode_request", "encode_response", "pack_frame", "pack_frames", "hello_frame"),
        "wire.encode",
    )
    tracer.time(wire, ("decode_request", "decode_response"), "wire.decode")
    tracer.time(wire.FrameDecoder, ("feed",), "wire.decode")
    tracer.time(transport.BinaryTcpTransport, ("submit",), "transport.submit")
    # The transport's event-loop callbacks: client flush (the send
    # syscall) and reply dispatch, server request dispatch and reply
    # write.  Private names: the transport has no public hook there.
    tracer.time(transport.BinaryTcpTransport, ("_flush", "_on_data"), "transport.io")
    tracer.time(transport._ReplicaProtocol, ("data_received",), "transport.io")
    tracer.time(Replica, ("handle",), "replica")
    tracer.time(Replica, ("apply_write",), "replica", count_false=True)
    tracer.time(
        ServiceMetrics,
        tuple(name for name in vars(ServiceMetrics) if name.startswith("record_")),
        "metrics",
    )
    tracer.time(FaultSchedule, FAULT_QUERIES + ("random", "extended"), "faults")
    tracer.count(SimTransport, "call")
    tracer.time(
        engine,
        (
            "audit_durability",
            "audit_monotone",
            "audit_lie_detection",
            "audit_lie_suspicion",
            "check_fabricated_read",
            "check_fresh_read",
            "check_version_integrity",
        ),
        "scenarios",
    )
    tracer.time(engine, ("availability_comparison",), "analysis")


#: FaultSchedule methods that answer "what is faulty at tick t".
FAULT_QUERIES = (
    "crash_down_at",
    "unreachable_at",
    "latency_at",
    "drop_probability",
    "duplicate_probability",
    "byzantine_mode_at",
)

#: Layers whose self times, with loop idle and the residual, make up
#: the traced wall time.
TIMED_LAYERS = (
    "strategy",
    "wire.encode",
    "wire.decode",
    "transport.submit",
    "transport.io",
    "replica",
    "metrics",
    "faults",
    "scenarios",
    "analysis",
)
