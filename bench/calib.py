"""Machine-speed calibration for the benchmark's time metrics.

The benchmark host's speed drifts: the same pure-Python loop has taken
up to twice as long from one minute to the next.  Each run therefore
interleaves short calibration slices with its timed work and reports
times at a reference speed: a measured time is scaled by
``nominal / median(slice)``, so a run on a machine running at half speed
reports what the reference machine would.  The nominal times are the
median slice and bare start measured on the reference host (2 CPUs,
Python 3.11), so scaled times read near its wall time.

In-process times are scaled by slices of a fixed pure-Python kernel
whose mix (sparse dict products of small ints, ``Fraction`` sums,
string formatting) follows the program's own; each subprocess time
(a set-up or a cold run) by the time a bare interpreter, started just
before it, took to print its first line.  The end of the bare
interpreter is not timed: on the reference host, waiting for a process
to exit takes either about 10 or about 55 ms, a step that tracks
nothing else.  Neither
touches arcmeasure, so no change to the program under test can change
them.  Raw times, the kernel factor and the median bare start are
printed on ``run.py``'s ``info`` line.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

NOMINAL_S = 1.2e-3        # one kernel call at the reference speed
START_NOMINAL_S = 0.06    # one bare interpreter start at that speed
EVERY_S = 0.05            # timed work between two kernel slices

_A = {i: (i * 7919) % 97 - 48 for i in range(60)}
_B = {i: (i * 104729) % 89 - 44 for i in range(60)}


def kernel():
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 3)
    text = " + ".join(f"{c}*u^{e}" for e, c in sorted(out.items()))
    return len(text) + total.numerator % 7


def slice_s():
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def start_s():
    """Seconds a bare interpreter takes now to print its first line."""
    import subprocess  # here, so the worker's set-up time does not pay it

    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "print('ready', flush=True)"],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError("a bare interpreter failed to start")
    return seconds


def local_factors(slices, marks, reach=3):
    """Per-sample multipliers from the slices taken around each sample;
    ``marks[j]`` counts the slices taken before sample j."""
    return [factor(slices[max(0, m - reach):m + reach]) for m in marks]


def factor(slices):
    """Multiplier taking times measured alongside ``slices`` to the
    reference speed."""
    ordered = sorted(slices)  # the median, without importing statistics
    mid = len(ordered) // 2
    return 2 * NOMINAL_S / (ordered[mid] + ordered[~mid])
