"""Host-speed calibration for set-up times.

The host this benchmark was built on runs each vCPU tens of percent
slower for stretches of seconds to minutes (``README.md`` has the
measurements).  A set-up takes well under a second, so a fixed
pure-Python loop timed on the same CPU just before and just after it
runs at nearly the host speed the set-up saw.  :func:`timed_setup`
reports the set-up scaled by the loop's reference time over its measured
time: the set-up's seconds on a host where the loop takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import os
import time

#: Iterations of the calibration loop.
LOOP = 100_000
#: Seconds the loop takes on the quiet host; scaled set-up times are
#: seconds on a host this fast.
REFERENCE_S = 0.004


def loop_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(LOOP):
            total += value
        best = min(best, time.perf_counter() - started)
    return best


def _current_cpu() -> int:
    with open("/proc/self/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


def timed_setup(setup):
    """Run ``setup()`` between two calibrations, pinned to the CPU this
    process is on so both calibrations and the set-up share one vCPU
    (processes the set-up forks inherit the pin).  Returns ``(result,
    scaled seconds, raw seconds)``."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_current_cpu()})
    try:
        before = loop_s()
        started = time.perf_counter()
        result = setup()
        raw = time.perf_counter() - started
        after = loop_s()
    finally:
        os.sched_setaffinity(0, allowed)
    return result, raw * REFERENCE_S * 2.0 / (before + after), raw
