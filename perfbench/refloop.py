"""The reference loop: fixed exact-rational work that never calls forminv.

It mirrors the shape of the library's product kernel (dict-of-exponent-
tuple series with ``fractions.Fraction`` coefficients, accumulate and drop
zeros), so machine slowdowns hit it and the jobs alike.  Timing it between
jobs gives a yardstick against which job times are normalized.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

_DEGREE = 7


def _operand(shift: int) -> dict:
    terms = {}
    for k, e in enumerate(
        e for e in itertools.product(range(4), repeat=3) if 1 <= sum(e) <= 4
    ):
        terms[e] = Fraction((k * 7 + shift) % 11 - 5, k % 5 + 1)
    return {e: c for e, c in terms.items() if c}


_A = _operand(1)
_B = _operand(4)


def reference_work() -> int:
    """One truncated product of two fixed 3-variable operands; returns the
    number of result terms so the work cannot be skipped."""
    out = {}
    for ea, ca in _A.items():
        da = sum(ea)
        for eb, cb in _B.items():
            if da + sum(eb) > _DEGREE:
                continue
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            s = out.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return len(out)


def time_reference(repeats: int = 1) -> float:
    """Mean seconds per reference product, over ``repeats`` products run
    back to back.  A mean, not a median: the jobs feel every slowdown of
    the machine, short ones included, and so must the yardstick."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - start) / repeats
