"""Machine-speed calibration: a fixed pure-Python workload, timed on demand.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds and minutes; the program and this loop slow down together.
`measure.py` times `work()` before and after every command (and `run.py`
around every set-up) and scales each wall time by REFERENCE_S over the
calibration time measured around it, which gives the time the command would
take on a machine where `work()` takes REFERENCE_S.

`work()` uses only the standard library, so a change to dgglue cannot change
it.  Its mix follows dgglue's hot paths: small-int arithmetic modulo a prime,
Fraction arithmetic, dict and list traffic, and a JSON round trip.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

# work()'s wall time in seconds on a quiet 2.1 GHz Xeon vCPU with Python
# 3.11.  Any fixed value would do: it only sets the unit of scaled times.
REFERENCE_S = 0.012

_ROWS = [[(i * j) % 7 for j in range(32)] for i in range(32)]


def work():
    table = {}
    x = Fraction(1, 3)
    for i in range(3000):
        key = i % 97
        table[key] = (table.get(key, 0) + i * i) % 7
        x = (x * 3 + 1) / 2 if i % 25 else Fraction(1, 3)
    rows = [[v for v in row if v] for row in _ROWS]
    return len(json.loads(json.dumps(rows))) + len(table) + x.denominator


def seconds(repeats=1):
    """Median wall time of `repeats` calls of work().

    The garbage collector is off meanwhile: work() makes no cycles, and a
    collection of the program's heap must not count as machine speed.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(wall_s, cal_before, cal_after):
    """`wall_s` at reference speed, from the calibrations around it."""
    return wall_s * REFERENCE_S / ((cal_before + cal_after) / 2)
