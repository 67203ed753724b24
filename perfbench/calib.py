"""Machine-speed calibration for host times on a shared machine.

This module imports nothing from the program, so the import of the program
itself can be timed against it.
"""

from __future__ import annotations

import time
from typing import List

# Time of one calibration_loop() pass on an unloaded core of the reference
# machine (2 cores, Python 3.11).  Host times are reported scaled to it.
REF_S = 0.002


def calibration_loop() -> float:
    """Time one pass of a fixed pure-Python loop: cell reads and writes,
    string compares and dict stores, the interpreter work the tape programs
    do."""
    t0 = time.perf_counter()
    cells = ["0"] * 64
    table = {}
    acc = 0
    for i in range(20000):
        k = i & 63
        cells[k] = "1" if cells[k] == "0" else "0"
        acc += k
        table[k] = acc
    return time.perf_counter() - t0


class Calibration:
    """Machine speed, sampled next to the timed calls.

    On a shared machine the speed of a core swings by up to 2x within
    seconds to minutes, and calls of the program slow down in step with
    calibration_loop().  So each timed call is divided by the latest loop
    time, taken at most INTERVAL seconds before it, and the quotient, scaled
    by REF_S, is the call's duration in reference seconds."""

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._taken = float("-inf")

    def current(self) -> float:
        if time.perf_counter() - self._taken >= self.INTERVAL:
            self.samples.append(calibration_loop())
            self._taken = time.perf_counter()
        return self.samples[-1]
