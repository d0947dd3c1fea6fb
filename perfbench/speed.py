"""Machine speed, measured by a fixed reference computation.

On a shared host the same code runs up to twice as fast or slow from one
minute to the next, in phases that outlast a whole run, so no statistic over
the run's own times can cancel them.  ``reference()`` is a fixed mix of the
kinds of work ``socrs`` does (exact rationals, dicts, small numpy arrays).
Timed right before and right after a call on the same CPU, it tells how fast
the machine ran then; a call's time divided by it no longer depends on the
phase.  ``NOMINAL_S`` turns such a ratio back into seconds: it is the
reference's time on the 2-vCPU Xeon VM the benchmark was tuned on, in that
machine's fast phase.  It is a fixed unit, and never changes with the program.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.0125


def reference():
    """Run the reference computation once; return its wall time in seconds."""
    t = time.perf_counter()
    a, d = Fraction(1, 3), {}
    for i in range(1, 300):
        a = (a * Fraction(i, i + 7) + Fraction(1, i)).limit_denominator(10 ** 40)
    for i in range(20000):
        d[i % 211] = d.get(i % 211, 0) + (i * i) % 7
    x = np.arange(32.0)
    for _ in range(300):
        x = np.sqrt(x + 1.0) + x.sum() * 1e-9
    return time.perf_counter() - t


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that a reference
    and the call it brackets run where the other ran."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
