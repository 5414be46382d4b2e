"""Run clock and host-speed probe: op times as on an uncontended core.

The benchmark runs on a shared host, which disturbs it in two ways.
Some minutes, the host keeps the process off the CPU many times a
second for 10 ms or more; that is left out by timing with the run
clock (``HostSpeed.clock``) instead of the wall clock.  And the speed
of the CPU it does get moves by up to 1.6x within seconds, its average
over a run drifting from minute to minute as other tenants come and
go, so every figure of runs of the same code spreads by 15-20%.  The
probe is a fixed piece of interpreter work (dict updates, struct
packing, a bytes join: the kind of work the service's Python does),
timed every ``PERIOD_S`` from inside the workload's own op loop, so it
runs on the same core, at the same moments, as the program.  A figure
measured at time ``t`` is scaled by the probe's duration around ``t``:

    duration at reference speed = duration * REFERENCE_S / probe(t)
    rate at reference speed     = rate * probe(t) / REFERENCE_S

The probe touches nothing of the program, so a change to the program
moves the scaled figures as it moves the raw ones; only the host's part
of the variation is taken out.  Measured on tcp-read95 over 15 s
windows: the throughput of half-second slices and the probe's speed in
the same slices correlate at 0.85-0.99, and the scaled throughput of
back-to-back windows spreads 2.3% where the raw one spreads 8.8%.

A probe takes about 0.15-0.25 ms and blocks the event loop while it
runs, so it costs under 1% of the run and delays the ops in flight when
it fires.  It runs in every window, traced or not, so it never shows as
a difference between two runs.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Time between probes.
PERIOD_S = 0.025
#: Probes in the running median that smooths the probe series (half a
#: second of them); also the number of back-to-back probes of a burst.
WINDOW = 20
#: The probe duration that counts as reference speed: about what the
#: probe takes on an uncontended core of the 2-core Xeon VM the
#: benchmark was written on.  Only a scale: it cancels in any comparison.
REFERENCE_S = 150e-6

_PACK = struct.Struct("!HBBIH").pack


def _work() -> int:
    counts = {}
    frames = []
    for index in range(300):
        key = (index * 7919) & 255
        counts[key] = counts.get(key, 0) + 1
        frames.append(_PACK(index & 0xFFFF, 1, 2, index, 3))
    return len(b"".join(frames)) + len(counts)


class HostSpeed:
    """The run clock, the probe series of one run, and the scaling it gives.

    ``idle_ns`` reads the event loop's time blocked in ``select()``
    (``layers.LoopMeter``); without it the run clock is CPU time alone,
    right for a loop that never waits for I/O.
    """

    def __init__(self, idle_ns: Optional[Callable[[], int]] = None) -> None:
        self._idle_ns = idle_ns or (lambda: 0)
        self.at: List[float] = []
        self.took: List[float] = []
        self._due = 0.0

    def clock(self) -> float:
        """Run time in seconds: this thread's CPU time plus the time the
        event loop spent waiting for I/O.

        It stands still while the host keeps the runnable process off
        the CPU (another tenant's turn, hypervisor steal): in some
        minutes that is many stalls of 10 ms or more per second, which
        a wall clock would add to every op in flight.  Everything runs
        on this one thread, so no op makes progress during a stall, and
        leaving it out is exact.
        """
        return time.thread_time() + self._idle_ns() * 1e-9

    def tick(self) -> None:
        """Probe if ``PERIOD_S`` has passed since the last probe.  The op
        loops call this before each op, outside the op's timing."""
        now = self.clock()
        if now >= self._due:
            self.probe()
            self._due = now + PERIOD_S

    def probe(self) -> float:
        start = self.clock()
        _work()
        took = self.clock() - start
        self.at.append(start)
        self.took.append(took)
        return took

    def burst(self) -> float:
        """Median of ``WINDOW`` back-to-back probes: the speed right now."""
        return float(np.median([self.probe() for _ in range(WINDOW)]))

    def probe_s(self, times: Sequence[float]) -> np.ndarray:
        """Running median of the probe duration, at each of ``times``
        (run-clock readings)."""
        took = np.asarray(self.took)
        window = min(WINDOW, len(took))
        if window < 1:
            raise ValueError("no probe was taken")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(took, window), axis=1)
        centres = np.asarray(self.at)[window // 2 : window // 2 + len(smooth)]
        return np.interp(np.asarray(times, dtype=float), centres, smooth)

    def durations(self, values: Sequence[float], ends: Sequence[float]) -> np.ndarray:
        """Durations that ended at ``ends``, at reference speed."""
        return np.asarray(values, dtype=float) * REFERENCE_S / self.probe_s(ends)

    def rate(self, raw: float, ends: Sequence[float]) -> float:
        """A rate of events that happened at ``ends``, at reference speed."""
        return raw * float(np.mean(self.probe_s(ends))) / REFERENCE_S


def at_reference(seconds: float, probe_s: float) -> float:
    """A duration measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s
