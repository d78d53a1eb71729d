"""Independent output checks, modulo a prime along a random line.

A truncated identity P(z) = Q(z) through degree D holds exactly when each
homogeneous part of P - Q vanishes.  Substituting z = lam * a for a point a
modulo a large prime p turns every series into a polynomial in lam of
length D+1, and a nonzero homogeneous part of degree k vanishes at a random
a with probability at most k/p (Schwartz-Zippel).  The checks here use only
``fractions`` and integers, never forminv, so a wrong result cannot pass by
sharing a bug with the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

P = (1 << 61) - 1  # a Mersenne prime


def _mod(c: Fraction) -> int:
    return c.numerator % P * pow(c.denominator, -1, P) % P


def _mul(a: list, b: list, length: int) -> list:
    out = [0] * length
    for i, x in enumerate(a):
        if x:
            for j in range(length - i):
                out[i + j] += x * b[j]
    return [v % P for v in out]


class Line:
    """Series restricted to z = lam * a, truncated after lam^degree."""

    def __init__(self, n: int, degree: int, rng: random.Random):
        self.n = n
        self.length = degree + 1
        self.point = [rng.randrange(1, P) for _ in range(n)]

    def restrict(self, comp: dict) -> list:
        out = [0] * self.length
        for e, c in comp.items():
            k = sum(e)
            if k < self.length:
                v = _mod(c)
                for a, x in zip(self.point, e):
                    v = v * pow(a, x, P) % P
                out[k] = (out[k] + v) % P
        return out

    def identity(self) -> list:
        return [[0, a] + [0] * (self.length - 2) for a in self.point]

    def apply(self, h: list[dict], args: list[list]) -> list[list]:
        """H evaluated at the restricted series ``args``."""
        powers: dict = {}

        def power(j, k):
            if (j, k) not in powers:
                powers[j, k] = (
                    [1] + [0] * (self.length - 1)
                    if k == 0
                    else _mul(power(j, k - 1), args[j], self.length)
                )
            return powers[j, k]

        out = []
        for comp in h:
            acc = [0] * self.length
            for e, c in comp.items():
                term = [_mod(c)] + [0] * (self.length - 1)
                for j, k in enumerate(e):
                    if k:
                        term = _mul(term, power(j, k), self.length)
                acc = [(x + y) % P for x, y in zip(acc, term)]
            out.append(acc)
        return out


def components(doc_text: str) -> list[dict]:
    """The components of a serialized map as {exponent: Fraction} dicts."""
    raw = json.loads(doc_text)
    return [
        {tuple(t["exp"]): Fraction(t["c"]) for t in comp} for comp in raw["components"]
    ]


def is_inverse(h: list[dict], g_text: str, degree: int, rng: random.Random) -> bool:
    """G = z + H(G) through ``degree``, i.e. G inverts F = z - H."""
    line = Line(len(h), degree, rng)
    g = [line.restrict(c) for c in components(g_text)]
    hg = line.apply(h, g)
    return all(
        (gi[k] - zi[k] - hi[k]) % P == 0
        for gi, zi, hi in zip(g, line.identity(), hg)
        for k in range(line.length)
    )


def is_square(h: list[dict], p_text: str, degree: int, rng: random.Random) -> bool:
    """P = F(F(z)) through ``degree`` for F = z - H."""
    line = Line(len(h), degree, rng)
    ident = line.identity()
    f1 = [[(x - y) % P for x, y in zip(zi, hi)] for zi, hi in zip(ident, line.apply(h, ident))]
    f2 = [[(x - y) % P for x, y in zip(fi, hi)] for fi, hi in zip(f1, line.apply(h, f1))]
    p = [line.restrict(c) for c in components(p_text)]
    return p == f2
