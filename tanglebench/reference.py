"""The reference kernel K and the clock that normalises times by it.

This machine's speed changes by up to about 1.7x for stretches of tens of
milliseconds to seconds, so raw seconds do not repeat.  The clock therefore
runs K, a fixed pure-Python workload of the same kind as tanglekit's
(small-graph search over tuples, frozensets, sets and dicts), every
PERIOD_S seconds from a timer signal, and right before and after every
timed call.  Each K run measures the machine's speed at that moment.  A
call's time is split at the K runs inside it and every piece is scaled by
the K runs at its ends:

    normalised = sum(piece * NOMINAL_S / mean(K before piece, K after piece))

so a normalised second is the time the call would take on a machine where
K takes NOMINAL_S.  The K runs themselves are taken out of the call's time.
K imports nothing from tanglekit and runs with the garbage collector paused,
so no change to the program changes it.  NOMINAL_S is a fixed constant;
changing it or the kernel rescales every figure, so both stay as they are
for as long as results are compared.
"""

from __future__ import annotations

import gc
import signal
import time

# Nominal duration of one K run: about its duration on the machine the
# reference figures in README.md come from, in its faster speed state.
NOMINAL_S = 0.00025

# Seconds between two K runs made from the timer signal.
PERIOD_S = 0.01

# The Petersen graph: 3-regular, 10 vertices, 15 edges.
_EDGES = tuple((i, (i + 1) % 5) for i in range(5)) + tuple((i, i + 5) for i in range(5)) + tuple(
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
)
_ADJ = {v: tuple(sorted({b for a, b in _EDGES if a == v} | {a for a, b in _EDGES if b == v})) for v in range(10)}


def kernel() -> int:
    """Enumerate the Petersen graph's cycles through vertex 0 by depth-first
    search, keyed by their edge sets; returns how many there are (84)."""
    found: set[frozenset[int]] = set()
    stack: list[tuple[int, tuple[int, ...]]] = [(0, (0,))]
    while stack:
        v, path = stack.pop()
        for w in _ADJ[v]:
            if w == 0 and len(path) > 2:
                found.add(frozenset(zip(path, path[1:] + (0,))))
            elif w not in path:
                stack.append((w, path + (w,)))
    return len(sorted(found, key=len))


class Clock:
    """Times calls in K-normalised seconds while it is open.

    ``samples`` holds (start, duration) of every K run, in time order.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    def call(self, fn, *args, **kwargs):
        """Run fn; return (result, exception raised or None, raw s, normalised s)."""
        self._probe()
        first = len(self.samples) - 1
        out = err = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the caller decides what a raised error means
            err = exc
        t1 = time.perf_counter()
        self._probe()
        runs = self.samples[first:]
        raw = t1 - t0
        norm = 0.0
        here = t0
        for (s, d), (s2, d2) in zip(runs, runs[1:]):
            # the piece from here to the next K run (or to t1), at their mean speed
            end = min(s2, t1)
            if end > here:
                norm += (end - here) * 2 / (d + d2)
            if t0 <= s2 < t1:
                raw -= d2
                here = s2 + d2
        return out, err, raw, norm * NOMINAL_S
