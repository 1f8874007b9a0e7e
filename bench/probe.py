"""Host-speed probe: a fixed piece of stdlib-only work, timed in-process.

The benchmark runs the probe before and after every timed repetition and
divides each repetition's wall time by the mean of its two probe times.  On a
shared host the speed of one core changes from second to second; the ratio
cancels most of that change, because the probe does the same kind of work as
the program (big-rational arithmetic, dict and tuple traffic, small calls).

The probe must not import the package under test: a change to the program
may never move the yardstick it is measured with.
"""

from __future__ import annotations

import time
from fractions import Fraction


ROUNDS = 10


def _work() -> int:
    bits = 0
    for _ in range(ROUNDS):
        acc: dict[tuple[int, int], Fraction] = {}
        x = Fraction(1)
        for i in range(1, 321):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, 0) + x
        total = sum(acc.values(), Fraction(0))
        bits += total.numerator.bit_length() + total.denominator.bit_length()
    return bits


def probe() -> float:
    """Seconds taken by one run of the fixed work on this host, now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
