"""Host speed probe: times reported at the reference speed of a fixed kernel.

The shared host this benchmark was built on changes speed by up to 2x over
seconds to minutes (a fixed 0.5 s solver request took 0.34-0.69 s within two
minutes), which no run length averages away.  The probe times a small fixed
pure-Python kernel (exact rationals, big-int bitmasks, dict updates: the
operations the solvers spend their time on) before every request and, while a
request runs, every INTERVAL_S from a SIGALRM handler.  A measured time t is
reported as t * REFERENCE_S / (mean kernel time around and during it), the
time it would have taken with the kernel at its reference time; run.py prints
the raw times too.

The samples inside a request run in the program's process, on its heap.  Per
round, they read 0.89-1.21x the samples between requests (median 1.01), and
the same (0.87-1.24x, median 1.05) when a helper process with a heap of its
own ran the kernel on the same CPU, so that spread is the host's, not the
program's heap.  In-process samples track the host better: with the helper,
or with only the samples between requests, the scaled times spread 2x as
much or more (README.md, "Host speed scaling").
"""
from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

# Kernel time that defines the reference speed: about the fastest the kernel
# ran on the reference host, a shared 2-vCPU x86-64 virtual machine with
# CPython 3.11.  Over the ten-run sets the mean kernel time of a run was
# 1.1-1.5x this, which is how much longer the raw times read.
REFERENCE_S = 0.0050
INTERVAL_S = 0.1


def kernel() -> int:
    """Fixed work of about REFERENCE_S; returns a checksum of it."""
    n = 10
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)] for i in range(n)]
    for i in range(n):
        p = m[i][i] or Fraction(1)
        for r in range(i + 1, n):
            f = m[r][i] / p
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    full = (1 << 600) - 1
    adj = [((v * 0x9E3779B97F4A7C15) ^ (v << 300)) & full for v in range(300)]
    acc = 0
    for _ in range(6):
        for v in range(300):
            mask = adj[v] & ~adj[(7 * v + 1) % 300]
            acc += mask.bit_count() + (mask & -mask).bit_length()
    table: dict[tuple[int, int], int] = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    return acc + len(table) + m[n - 1][n - 1].denominator


class SpeedProbe:
    """Kernel samples, and the periods the SIGALRM handler ran, so that a
    measured interval can be scaled and cleared of the probe's own time."""

    def __init__(self) -> None:
        self._sample_starts: list[float] = []  # kernel runs, in time order
        self._sample_seconds: list[float] = []
        self._sample_inside: list[bool] = []  # taken by the handler, mid-request
        self._handler_starts: list[float] = []  # SIGALRM handler runs, in time order
        self._handler_ends: list[float] = []
        self._previous = None

    def sample(self, inside: bool = False) -> float:
        # a collection here would time the program's heap, not the host
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            seconds = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self._sample_starts.append(t0)
        self._sample_seconds.append(seconds)
        self._sample_inside.append(inside)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        try:
            self.sample(inside=True)
        except RecursionError:
            pass  # the program's stack is at the limit; skip this sample
        self._handler_starts.append(t0)
        self._handler_ends.append(perf_counter())

    def start(self) -> None:
        """Sample every INTERVAL_S until stop()."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def handler_time(self, start: float, end: float) -> float:
        """Seconds the handler ran between start and end."""
        lo = bisect.bisect_right(self._handler_ends, start)
        hi = bisect.bisect_left(self._handler_starts, end)
        return sum(min(self._handler_ends[i], end) - max(self._handler_starts[i], start)
                   for i in range(lo, hi))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken between
        start and end, plus the last one before start and the first after end."""
        lo = max(bisect.bisect_left(self._sample_starts, start) - 1, 0)
        hi = bisect.bisect_right(self._sample_starts, end) + 1
        chosen = self._sample_seconds[lo:hi]
        return REFERENCE_S * len(chosen) / sum(chosen) if chosen else 1.0

    def kernel_means(self, start: float, end: float) -> dict[str, float | None]:
        """Mean kernel seconds of the samples taken between start and end:
        those taken between requests and those taken inside them."""
        lo = bisect.bisect_left(self._sample_starts, start)
        hi = bisect.bisect_right(self._sample_starts, end)
        groups: dict[str, list[float]] = {"between": [], "inside": []}
        for i in range(lo, hi):
            groups["inside" if self._sample_inside[i] else "between"].append(self._sample_seconds[i])
        return {k: sum(v) / len(v) if v else None for k, v in groups.items()}

    def scale(self, start: float, end: float) -> float:
        """Seconds from start to end, less handler time, at the reference speed."""
        return (end - start - self.handler_time(start, end)) * self.factor(start, end)
