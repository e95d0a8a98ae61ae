"""Times scaled by a reference computation run next to them.

On a 2-vCPU virtual machine whose host is shared with other tenants, the
same item's wall time was seen to switch between two levels about 2x apart,
for seconds at a time, with the neighbours' load; a whole run can sit on the
slow level. Measured next to each other, though, an item's time divided by
the time of a fixed pure-Python computation (``_reference``: Fraction
arithmetic and dict stores, the library's own kind of work) stays within a
few percent. So every end-to-end time is reported as

    wall * REF_SECONDS / (mean of the reference times just before and after)

that is, in seconds of a core on which the reference takes REF_SECONDS,
about its uncontended time on that machine. Parent and change are compared on the same
host, so the constant cancels out of every comparison. A subprocess that runs
for seconds cannot be bracketed that closely, so ``run_sampled`` also times
the reference every 20 ms while it runs.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_SECONDS = 250e-6
SAMPLE_INTERVAL_S = 0.02

_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(60)]


def _reference() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i, a in enumerate(_TERMS):
        acc += a * _TERMS[-i - 1]
        table[(i, i + 1)] = acc
    return acc


def reference_seconds() -> float:
    """Wall time of one reference computation, with the garbage collector off
    so that garbage left by the program under test is not collected here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    def __init__(self):
        self.refs = [reference_seconds()]

    def scaled(self, wall: float) -> float:
        """Scale the wall time of what ran since the previous call (or since
        construction) by the reference times on either side of it."""
        self.refs.append(reference_seconds())
        return wall * REF_SECONDS * 2 / (self.refs[-2] + self.refs[-1])


def run_sampled(fn) -> tuple:
    """Call fn() while a SIGALRM timer times the reference every
    SAMPLE_INTERVAL_S seconds. Returns (fn's result, scaled seconds, wall seconds); the wall
    time leaves out the samples, and the scale is their mean together with a
    reference just before and just after."""
    reference_seconds()  # the first call in a fresh interpreter runs cold
    refs = [reference_seconds()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        t = reference_seconds()
        refs.append(t)
        spent += t

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = perf_counter()
    try:
        out = fn()
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    refs.append(reference_seconds())
    wall -= spent
    return out, wall * REF_SECONDS * len(refs) / sum(refs), wall
