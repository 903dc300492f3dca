"""Machine-speed calibration of the timed runs.

The benchmark's host is a share of a busy machine whose speed drifts: the
same items can take 1.8 times longer a minute later.  A fixed pure-Python
kernel, which never touches `recat`, runs between items, and every item's
time is scaled by `NOMINAL_S / (kernel time measured around it)`.  A slow
spell slows the kernel and the items alike and cancels in that ratio; a
change to `recat` moves only the items.  Times scaled this way are in
seconds of a host on which the kernel takes `NOMINAL_S`.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: sets the scale only: the kernel took 8-15 ms on a shared 2-vCPU host
NOMINAL_S = 0.010
#: a calibration runs after an item once this much time has passed since the last
EVERY_S = 0.2
ROUNDS = 1600

_GRID = tuple(Fraction(i, 6) for i in range(7))
_ZERO, _ONE = Fraction(0), Fraction(1)


def kernel(rounds=ROUNDS):
    """The interpreter work `recat` does: exact arithmetic, tuples, dict lookups, calls."""
    memo = {}
    acc = _ZERO
    for i in range(rounds):
        a, b = _GRID[i % 7], _GRID[(i * 5 + 3) % 7]
        key = (a, b, i % 13)
        v = memo.get(key)
        if v is None:
            v = max(_ZERO, a + b - _ONE) if i % 2 else min(_ONE, _ONE - a + b)
            memo[key] = v
        acc = max(acc * v, v - acc) if i % 3 else min(acc + v, _ONE)
        if acc.denominator > 36:
            acc = Fraction(round(acc * 6), 6)
    return acc


def measure(times=1):
    """Seconds one kernel run takes now: the median of `times` runs."""
    runs = []
    for _ in range(times):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return sorted(runs)[len(runs) // 2]


class Clock:
    """Calibrations interleaved with timed items; scales each item's time.

    The machine's speed changes within a second, so an item is scaled by the
    calibrations just before and just after it; a median over a window of
    several seconds followed the speed less well on this host.
    """

    def __init__(self):
        self.samples = [measure()]
        self.marks = []  # per item, the index of the calibration just before it
        self.last = time.perf_counter()

    def item_done(self):
        """Call after each item: notes it and calibrates when one is due."""
        self.marks.append(len(self.samples) - 1)
        if time.perf_counter() - self.last >= EVERY_S:
            self.samples.append(measure())
            self.last = time.perf_counter()

    def close(self):
        """Calibrate once more, so that every item has one after it."""
        self.samples.append(measure())

    def factors(self):
        """Per item, NOMINAL_S over the mean of the calibrations around it."""
        s = self.samples
        return [2 * NOMINAL_S / (s[j] + s[j + 1]) for j in self.marks]


def scaled(seconds, before, after):
    """`seconds` measured between two calibrations, in reference-host seconds."""
    return seconds * 2 * NOMINAL_S / (before + after)
