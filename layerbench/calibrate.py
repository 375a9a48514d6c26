"""Reference-speed calibration for the layer-ledger replay.

The host is shared, and its CPU speed drifts by 10-30% within seconds.
The replay therefore runs a fixed calibration loop of interpreter and
small-array work between program calls, about every ``INTERVAL_S`` of
wall time.  The loop slows down with the program, so scaling a time by
``REFERENCE_S`` over the loop's time expresses it at one reference speed
and cancels the drift.
"""

from __future__ import annotations

import time

import numpy as np

#: Replay wall time between calibration samples.
INTERVAL_S = 0.010
#: Mean loop time at the reference speed (the 2-CPU reference host).
REFERENCE_S = 150e-6

_ARRAY = np.arange(256)
_SORT = np.random.default_rng(0).random(8192)


def calibration_loop() -> int:
    """The calibration work; returns a value so nothing is elided."""
    total = 0
    for i in range(1000):
        total += i & 7
    for _ in range(10):
        total += int(_ARRAY.sum())
    total += int(np.sort(_SORT)[0] * 0)
    return total


def sample() -> float:
    """Seconds of one warm calibration loop.

    The first pass refills the caches the program evicted, so only the
    second, timed pass measures the CPU's speed.
    """
    calibration_loop()
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start
