"""Minimal Laurent-expression support for residue extraction.

Only what the residue coefficient formula needs: expansions of inverse
powers of canonical components F_i = z_i - H_i, products with one ordinary
series, and extraction of the coefficient of (z_1 ... z_n)^{-1}.  This is
not a general Laurent ring; exponents may go negative but every expression
holds finitely many terms within any total-degree window.

A ``LaurentExpr`` with window W stores exactly the terms of total degree
<= W; terms above W are dropped and unknown.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DimensionMismatch, TruncationError
from .rat import ONE, Rat, ZERO
from .series import INF, MapF, MSeries, _collect, _product


class LaurentExpr:
    __slots__ = ("n", "window", "terms")

    def __init__(self, n: int, window: int, terms: dict):
        self.n = n
        self.window = window
        self.terms = terms

    @classmethod
    def const(cls, n, value, window):
        value = Rat(value)
        return cls(n, window, {(0,) * n: value} if value else {})

    def __repr__(self):
        body = " + ".join(
            f"{c}*z^{e}" for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        )
        return f"LaurentExpr(window<={self.window}: {body or '0'})"

    def coefficient(self, exp) -> Rat:
        exp = tuple(exp)
        if sum(exp) > self.window:
            raise TruncationError(
                f"exponent {exp} of degree {sum(exp)} outside computed window "
                f"{self.window}"
            )
        return self.terms.get(exp, ZERO)

    def mul(self, other: "LaurentExpr", window=None) -> "LaurentExpr":
        if self.n != other.n:
            raise DimensionMismatch("Laurent operand dimension mismatch")
        w = min(self.window + other._low(), other.window + self._low())
        if window is not None:
            w = min(w, window)
        return LaurentExpr(self.n, w, _product(self.terms, other.terms, self.n, w))

    def mul_series(self, s: MSeries, window=None) -> "LaurentExpr":
        """Product with an ordinary (non-negative exponent) series."""
        if s.nparams:
            raise DimensionMismatch("parameter-carrying series not supported here")
        if s.n != self.n:
            raise DimensionMismatch("Laurent/series dimension mismatch")
        s_min = min((sum(e) for e in s.terms), default=0)
        w = self.window + s_min
        if s.trunc != INF:
            w = min(w, s.trunc + self._low())
        if window is not None:
            w = min(w, window)
        return LaurentExpr(self.n, w, _product(self.terms, s.terms, self.n, w))

    def _low(self):
        return min((sum(e) for e in self.terms), default=0)

    def shift(self, exp) -> "LaurentExpr":
        """Multiply by the monomial z^exp (entries may be negative)."""
        exp = tuple(exp)
        return LaurentExpr(
            self.n,
            self.window + sum(exp),
            {tuple(x + y for x, y in zip(e, exp)): c for e, c in self.terms.items()},
        )


def laurent_inv_power(f: MapF, k: Sequence[int], window: int) -> LaurentExpr:
    """Expansion of prod_i F_i^{-k_i - 1} for F = z - H, exact for all total
    degrees <= window.

    Each factor is z_i^{-k_i-1} (1 - H_i/z_i)^{-k_i-1}; since H_i has order
    >= 2, the m-th power of H_i/z_i has total degree >= m and the binomial
    series truncates under any total-degree window.
    """
    k = tuple(k)
    if len(k) != f.n or any(x < 0 for x in k):
        raise DimensionMismatch(f"bad exponent {k} for n={f.n}")
    n = f.n
    inner_window = window + sum(k) + n
    if inner_window < 0:
        inner_window = 0
    acc = LaurentExpr.const(n, ONE, inner_window)
    for i in range(n):
        h = f.h.components[i]
        if h.trunc != INF and h.trunc - 1 < inner_window:
            raise TruncationError(
                f"window {window} needs H_{i+1} through degree "
                f"{inner_window + 1}, certified {h.trunc}"
            )
        # X = H_i / z_i as Laurent terms (total degree >= 1 each)
        x_terms = {}
        for e, c in h.terms.items():
            e2 = list(e)
            e2[i] -= 1
            x_terms[tuple(e2)] = c
        x = LaurentExpr(n, inner_window, x_terms)
        factor = LaurentExpr.const(n, ONE, inner_window)
        power = LaurentExpr.const(n, ONE, inner_window)
        for m in range(1, inner_window + 1):
            power = power.mul(x, window=inner_window)
            if not power.terms:
                break
            factor = _laurent_add(factor, power, math.comb(k[i] + m, m))
        acc = acc.mul(factor, window=inner_window)
    shift = tuple(-(x + 1) for x in k)
    shifted = acc.shift(shift)
    w = min(shifted.window, window)
    return LaurentExpr(
        n, w, {e: c for e, c in shifted.terms.items() if sum(e) <= w}
    )


def _laurent_add(a: LaurentExpr, b: LaurentExpr, scale) -> LaurentExpr:
    scale = Rat(scale)
    out = _collect(((e, c * scale) for e, c in b.terms.items()), dict(a.terms))
    return LaurentExpr(a.n, min(a.window, b.window), out)


def residue(e: LaurentExpr) -> Rat:
    """Coefficient of z_1^{-1} ... z_n^{-1}."""
    return e.coefficient((-1,) * e.n)
