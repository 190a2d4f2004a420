"""Machine speed probe: fixed exact arithmetic in the benchmark's own code.

On a shared host the same Python code can run at speeds that differ by half
or more, in phases that last from seconds to minutes, so raw wall times say
as much about when a run happened as about the program.  Workers time this
probe right after set-up and every ``EVERY_S`` seconds between calls;
run.py divides each time by the ``factor`` of the probes timed around it
(``at_reference_speed``), which expresses it at the speed the probe has on
the reference machine.  The probe never touches totalfree, so a change to
the package shows in full; it does the kind of work the package spends its
time on (Fraction elimination), so it slows down when the package does.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# Mean time of one probe on the reference machine: a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7.
REFERENCE_S = 0.0185
EVERY_S = 0.5        # least time between two probes inside a timed loop
WINDOW_S = 2.0       # a call is scaled by the probes this close to its middle
AFTER_SETUP = 10     # probes right after set-up, for setup_s
REPEATS = 4          # eliminations per probe

_rng = random.Random(20080515)
_MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(9)) for _ in range(9))


def _eliminate() -> int:
    """Rank of _MATRIX by Gauss-Jordan elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def probe() -> float:
    """Seconds taken by one probe."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _eliminate()
    return time.perf_counter() - t0


def factor(times) -> float:
    """How much slower than the reference machine the probes ran (1 = as fast)."""
    return statistics.fmean(times) / REFERENCE_S


def at_reference_speed(latencies, starts, probe_times, probe_starts) -> list[float]:
    """Each call's latency divided by the factor of the probes that started
    within WINDOW_S of the call's middle, or of all probes when none did.

    ``starts`` and ``probe_starts`` are seconds from one origin, ascending.
    """
    out = []
    for start, latency in zip(starts, latencies):
        middle = start + latency / 2
        lo = bisect.bisect_left(probe_starts, middle - WINDOW_S)
        hi = bisect.bisect_right(probe_starts, middle + WINDOW_S)
        out.append(latency / factor(probe_times[lo:hi] or probe_times))
    return out
