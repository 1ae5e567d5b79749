"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed changes by up to 2x, in
steps that come and go within seconds, so a raw wall time says as much
about the host as about the program.  A ``Sampler`` interrupts the
child every ``INTERVAL_S`` with a timer signal and times a fixed
pure-Python kernel (dict and list lookups, small-int arithmetic,
function calls: the kind of work the package does).  Each kernel time
gives the host's speed at that moment, relative to a reference host
that runs the kernel in ``REFERENCE_S``.  A timed span is then reported
as its wall time, minus the time spent in the sampler, times the mean
relative speed over the samples taken inside it: the time the span
would take on the reference host.

The kernel allocates no container objects, so it never triggers a
garbage collection of the program's objects, and it is part of the
benchmark, never of the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import signal
import time

#: Kernel time, in seconds, that defines the reference host: scaled
#: timings read as seconds on a host that runs the kernel this fast.  The
#: 2-core x86-64 VM (CPython 3.11.7) the baseline was measured on ran it
#: in 1.4 to 2.6 ms, as its speed changed.
REFERENCE_S = 0.0022
#: Time between samples while a span is timed.
INTERVAL_S = 0.05
#: Back-to-back samples behind one ``speed()`` reading.
SPOT_SAMPLES = 20

_SIZE = 512
_TABLE = {i: (i * 7919) % _SIZE for i in range(_SIZE)}
_CELLS = [0] * _SIZE


def _step(a: int, b: int) -> int:
    key = (a * 31 + b) % _SIZE
    value = (_TABLE[key] + _CELLS[(key + 1) % _SIZE]) & 255
    _CELLS[key] = value
    return value


def kernel() -> int:
    """A fixed amount of interpreter work; the result only keeps it honest."""
    total = 0
    for a in range(80):
        for b in range(80):
            total += _step(a, b)
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed() -> float:
    """Mean host speed relative to the reference host, from back-to-back samples."""
    return sum(REFERENCE_S / timed_kernel() for _ in range(SPOT_SAMPLES)) / SPOT_SAMPLES


class Sampler:
    """Samples host speed on a timer signal while spans are timed."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        elapsed = timed_kernel()
        self.speeds.append(REFERENCE_S / elapsed)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        """A point in time to measure a span from."""
        return len(self.speeds), self.spent, time.perf_counter()

    def span(self, since: tuple[int, float, float]) -> tuple[float, float, int]:
        """(busy, scaled, samples) of the span since ``since``.

        ``busy`` is its wall time minus the time spent sampling; ``scaled``
        is ``busy`` on the reference host.  A span too short to hold a
        sample is scaled by the samples taken so far, or by a spot sample
        if there are none.
        """
        count, spent, start = since
        busy = time.perf_counter() - start - (self.spent - spent)
        inside = self.speeds[count:]
        speeds = inside or self.speeds or [speed()]
        return busy, busy * sum(speeds) / len(speeds), len(inside)
