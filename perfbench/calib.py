"""Host-speed meter: a fixed probe, timed while the workload runs.

The shared host this benchmark was sized on changes speed in phases of
seconds to minutes: a fixed loop ran anywhere from 0.15 s to 0.25 s, its
CPU time followed its wall time (so the drift is the processor's, not the
scheduler's), and the two vCPUs drifted independently.  A command's wall
time therefore mixes what the program does with how fast the host happened
to be.

The meter times a small fixed probe every PERIOD_S from a SIGALRM handler,
on the thread and vCPU that runs the command, and between commands.  A
command's scaled time is its wall time, probes taken out, times the mean
host speed over it: the seconds it would take on a host that runs the
probe in `REF_S`.  The probe never touches trimac, so a change to the
program moves scaled times as it moves raw ones.

While the process runs other Python threads (the decoders' thread pool) a
probe would measure its share of the GIL, not the host, so none is taken;
such a command is scaled by the samples just before and after it.
"""

from __future__ import annotations

import signal
import sys
import time

import numpy as np

REF_S = 0.003  # nominal time of one probe; the scale of the reported times
PERIOD_S = 0.4  # one probe per period while a command runs
NEAR = 3  # samples on each side of a command that also scale it

_STREAM = np.arange(1 << 20, dtype=np.float64)  # 8 MiB, past the private caches
_ROWS = np.linspace(0.0, 1.0, 8_000 * 8).reshape(8_000, 8)


def _probe() -> float:
    """Seconds the fixed probe takes now."""
    # the three kinds of work the workloads do: interpreter bytecode (the
    # optimizer loops), a pass over a large array (the dense reductions)
    # and a batched einsum with a temporary (the vectorized kernels)
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    _STREAM.sum()
    np.einsum("ga,gb->gab", _ROWS, _ROWS).sum(axis=0)
    return time.perf_counter() - start


def speed_now(probes: int = 3) -> float:
    """Host speed now, relative to REF_S: the median of a few probes."""
    return REF_S / sorted(_probe() for _ in range(probes))[probes // 2]


class Meter:
    """Host-speed samples `(start, speed)`; speed is REF_S over probe seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.busy_s = 0.0  # total time spent probing
        self._probing = False

    def _sample(self) -> None:
        # one probe per sample wherever it is taken: back-to-back probes run
        # faster (their arrays stay in cache), which would bias the commands
        # scaled mostly by samples taken between commands
        if self._probing:  # an alarm during a probe
            return
        self._probing = True
        start = time.perf_counter()
        try:
            self.samples.append((start, REF_S / _probe()))
        finally:
            self.busy_s += time.perf_counter() - start
            self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        if len(sys._current_frames()) == 1:  # no other Python thread
            self._sample()

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def between(self) -> None:
        """Between commands: a sample, unless the last one is recent."""
        if time.perf_counter() - self.samples[-1][0] >= PERIOD_S / 2:
            self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over [start, end], relative to REF_S.

        Uses the samples taken inside the interval plus the NEAR nearest on
        each side: a command shorter than a period, or one that runs a
        thread pool, has few or none inside, and one probe is noisy.
        """
        before = [s for s in self.samples if s[0] < start]
        inside = [s for s in self.samples if start <= s[0] < end]
        after = [s for s in self.samples if s[0] >= end]
        near = before[-NEAR:] + inside + after[:NEAR]
        return sum(speed for _, speed in near) / len(near)
