"""A fixed reference computation that samples how fast the machine runs now.

On a shared host the same pass can take 30% longer from one minute to the
next.  The reference repeats a small sparse product of rational-coefficient
polynomials, written here in plain Python like the program's own kernel, so
it slows down with the host the way the workloads do.  It is benchmark code:
no change to the program can make it faster or slower.  The cyclic garbage
collector is off while it runs, so the program's heap does not change its
cost.

Times are reported at nominal speed: a measured time is multiplied by
NOMINAL_S over the reference time measured around it.  Raw times are
reported too.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

REF_EVERY_S = 0.5  # at most this long between two samples during a pass
ROUNDS = 10
NOMINAL_S = 0.020  # a reference sample's time on the nominal machine

_A = {
    (i % 3, i % 5, i % 2, i % 4, 0, 0, 0, 0, 0): Fraction(i % 7 - 3, i % 6 + 1)
    for i in range(30)
    if i % 7 != 3
}
_B = {
    (i % 4, i % 2, i % 3, 0, i % 5, 0, 0, 0, 0): Fraction(i % 5 - 2, i % 4 + 1)
    for i in range(24)
    if i % 5 != 2
}


def reference_sample() -> float:
    """Seconds taken by ROUNDS fixed sparse products."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            out: dict = {}
            for m1, c1 in _A.items():
                for m2, c2 in _B.items():
                    mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    s = out.get(mono)
                    out[mono] = c1 * c2 if s is None else s + c1 * c2
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_nominal_speed(op_start, op_s, ref_at, ref_s) -> list[float]:
    """Each op's time scaled by the two reference samples that bracket it.

    op_start and ref_at are offsets from the start of the pass; a sample
    precedes the first op and another follows the last.
    """
    out = []
    for start, duration in zip(op_start, op_s):
        before = ref_s[bisect.bisect_right(ref_at, start) - 1]
        after = ref_s[bisect.bisect_left(ref_at, start + duration)]
        out.append(duration * NOMINAL_S * 2.0 / (before + after))
    return out
