"""Packed rows: the stored form of computed series.

A packed view holds the terms of a series as rows (z-degree, key, num):
the coefficient is num / den over one common denominator den, and the key
packs every exponent position, z and parameters alike, into one integer:
bits [width*i, width*(i+1)) hold exponent i plus the bias 2^(width-1).
The sum of two keys less the key of exponent 0 (``zero``) is then the key
of the sum of their exponents, as long as no field carries, that is while
every |exponent| stays below 2^(width-1).  Rows are sorted by z-degree,
stably, so a product stops at the first row of too high a degree
(``mac``).  This is the layout of Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors" (CASC 2007),
with integer numerators over one denominator.

A view is normalized: den and the numerators have no common factor (so
den is the lcm of the reduced denominators), and the width is ``WIDTH``
unless an exponent needs more.  A view read off an accumulator
(``summed``) or formed by a unary op (``normalized``) is thus the one
``pack`` builds from the same terms in the same order.  span bounds the
largest |exponent|, exactly only in a view that ``pack`` built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import chain
from operator import itemgetter, lshift

WIDTH = 16  # default bits per packed exponent field
View = namedtuple("View", "width zero rows degs den span")


def zero_key(width, size):
    """The key of exponent 0: `size` fields, each holding the bias."""
    return ((1 << width * size) - 1) // ((1 << width) - 1) << (width - 1)


def pack(exps, nums, den, n, nparams, width=None) -> View:
    """The view of the terms nums[r] / den z^exps[r], at `width` or at the
    least width that holds them, and no less than ``WIDTH``."""
    span = max(map(abs, chain.from_iterable(exps)), default=0)
    if width is None:
        width = max(WIDTH, span.bit_length() + 1)
    size = n + nparams
    shifts = range(0, width * size, width)
    zero = zero_key(width, size)
    degs = map(sum, exps) if not nparams else [sum(e[:n]) for e in exps]
    keys = [sum(map(lshift, e, shifts), zero) for e in exps]
    rows = sorted(zip(degs, keys, nums), key=itemgetter(0))
    return View(width, zero, rows, [row[0] for row in rows], den, span)


def decode(keys, size, width) -> list:
    """The exponent tuples packed in `keys` at `width`."""
    bias, mask = 1 << (width - 1), (1 << width) - 1
    if size == 1:
        return [(k - bias,) for k in keys]
    shifts = range(0, width * size, width)
    return [tuple([(k >> i & mask) - bias for i in shifts]) for k in keys]


def repack(rows, den, n, nparams, width, new_width=None) -> View:
    """The view of `rows`, packed at `width`, packed anew at `new_width`
    (by default the width ``pack`` picks)."""
    exps = decode([r[1] for r in rows], n + nparams, width)
    return pack(exps, [r[2] for r in rows], den, n, nparams, new_width)


def fits(n, width, span) -> bool:
    """Whether rows at `width` with no |exponent| above `span` are kept:
    the default width, which ``pack`` also picks, and every z-degree
    within +-(2^(width-1) - 1), which ``summed`` reads exactly."""
    return width == WIDTH and n * span < 1 << (width - 1)


def normalized(n, nparams, width, rows, den, span) -> View:
    """The view of the rows (z-degree, key, num) at `width`, sorted by
    degree, with coefficients num / den and no |exponent| above `span`:
    den and the numerators divided by their gcd, taken with den's sign
    (skipped when den is 1), and packed anew unless they ``fits``."""
    g = 1 if den == 1 else math.gcd(den, *[r[2] for r in rows]) * (-1 if den < 0 else 1)
    if g != 1:
        den //= g
        rows = [(d, k, a // g) for d, k, a in rows]
    if not fits(n, width, span):
        return repack(rows, den, n, nparams, width)
    return View(width, zero_key(width, n + nparams), rows, [r[0] for r in rows], den, span)


def summed(n, nparams, width, acc: dict, den, span) -> View:
    """The view of the nonzero sums acc[key] / den.  A key's z-degree is
    the sum of its z-fields less n biases, and 2^width = 1 modulo
    2^width - 1, so the z-fields of the key modulo 2^width - 1 give it,
    read in +-(2^(width-1) - 1); the rows are sorted by it stably, in
    accumulation order.  Where that read may fail, ``normalized`` decodes
    the keys instead."""
    if not fits(n, width, span):
        return normalized(n, nparams, width, [(0, k, v) for k, v in acc.items() if v], den, span)
    mod = (1 << width) - 1
    half, zmask = mod >> 1, (1 << width * n) - 1
    lift = half - (n << (width - 1))
    rows = [(((k & zmask) + lift) % mod - half, k, v) for k, v in acc.items() if v]
    rows.sort(key=itemgetter(0))
    return normalized(n, nparams, width, rows, den, span)


def mac(acc: dict, outer, shift, scale, inner: View, cap):
    """The loop of every product: for each row (da, ka, na) of `outer`
    and each row (db, kb, nb) of the view `inner` with da + db <= cap,
    add scale * na * nb to acc[ka + kb + shift].  The inner loop stops at
    the first row of too high a degree."""
    rows, degs = inner.rows, inner.degs
    get = acc.get
    for da, ka, na in outer:
        ka += shift
        na *= scale
        for _, kb, nb in rows[: bisect_right(degs, cap - da)]:
            k = ka + kb
            acc[k] = get(k, 0) + na * nb
