"""Timing on a shared machine: times scaled to a fixed reference speed.

On a virtual machine whose cores are shared with other tenants, the same
pure-Python loop runs up to ~2.5x slower for seconds to minutes at a time,
depending on what the neighbours do. Raw times then reflect the neighbours
more than the program. So every measured process samples the current speed
of its core with a fixed reference loop (reference_loop), run from a SIGALRM
handler every INTERVAL_S seconds, and each timed interval is rescaled to the
speed at which the loop takes REFERENCE_S seconds:

    scaled = (wall - time spent in the sampler) * REFERENCE_S / loop time nearby

where "loop time nearby" is the mean over the samples within WINDOW_S of
the interval. The neighbours' load switches the core between a fast and a
slow mode every few tens of milliseconds, so the mean over many short
samples estimates the share of time spent slow. A program change moves the
scaled time as it moves the wall time; a neighbour slowing the core slows
both the loop and the program and largely cancels out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.1
WINDOW_S = 0.5
REFERENCE_S = 0.0012  # the loop's time on an uncontended core (Xeon, 2 vCPU VM)

_R = random.Random(20260809)
_VALUES = list(range(60000))
_R.shuffle(_VALUES)
_PICKS = [_R.randrange(len(_VALUES)) for _ in range(4000)]
_TUPLES = [(_R.randrange(36), _R.randrange(36), _R.randrange(36)) for _ in range(1500)]


def reference_loop() -> int:
    """A fixed mix of scattered list reads, a sort, big-int masks, sets of
    tuples and integer arithmetic: the kinds of work the package does."""
    acc = 0
    for i in _PICKS:
        acc += _VALUES[i]
    ordered = sorted(_TUPLES)
    mask = 0
    for a, b, c in _TUPLES:
        mask |= 1 << (a * 36 + b)
    seen = set()
    for a, b, c in _TUPLES:
        seen.add((b, a, c))
    hits = sum(1 for t in ordered if t in seen)
    for i in range(2000):
        acc = (acc + i * (i % 13)) % 1000003
    return acc + hits + mask.bit_length()


def sample() -> tuple[float, float]:
    t0 = time.perf_counter()
    reference_loop()
    return t0, time.perf_counter()


class SpeedProbe:
    """Runs the reference loop every INTERVAL_S seconds on SIGALRM."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        t0, t1 = sample()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without sampler time, at reference speed.

        WINDOW_S is wide enough to smooth the jitter of single samples and
        narrow next to the seconds a neighbour's load lasts.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        a = min(bisect.bisect_left(self.starts, t0 - WINDOW_S), lo - 1)
        b = max(bisect.bisect_right(self.starts, t1 + WINDOW_S), hi + 1)
        loops = [self.ends[i] - self.starts[i] for i in range(max(a, 0), min(b, len(self.starts)))]
        return (t1 - t0 - inside) * REFERENCE_S / statistics.fmean(loops)
