"""Laurent expansions for residue extraction.

Only what the residue coefficient formula needs: expansions of inverse
powers of canonical components F_i = z_i - H_i and extraction of the
coefficient of (z_1 ... z_n)^{-1}.  A Laurent expansion is an ordinary
``MSeries`` whose exponents may be negative; its ``trunc`` W certifies the
stored terms of total degree <= W exactly, and each expansion holds
finitely many terms below W.  Products with ordinary series use
``MSeries.mul`` and its certified truncation unchanged.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DimensionMismatch, TruncationError
from .rat import ONE, Rat, ZERO
from .series import INF, MapF, MSeries, series_sum


def laurent_inv_power(f: MapF, k: Sequence[int], window: int) -> MSeries:
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
    inner_window = max(window + sum(k) + n, 0)
    acc = MSeries.const(n, ONE, inner_window)
    for i in range(n):
        h = f.h.components[i]
        if h.trunc != INF and h.trunc - 1 < inner_window:
            raise TruncationError(
                f"window {window} needs H_{i+1} through degree "
                f"{inner_window + 1}, certified {h.trunc}"
            )
        # X = H_i / z_i (total degree >= 1 each term)
        x = h.mul_monomial(tuple(-1 if j == i else 0 for j in range(n)))
        x = x.truncate(inner_window)
        power = MSeries.const(n, ONE, inner_window)
        parts = [power]
        for m in range(1, inner_window + 1):
            power = power.mul(x, cap=inner_window)
            if power.is_zero():
                break
            parts.append(power.scale(math.comb(k[i] + m, m)))
        acc = acc.mul(series_sum(parts), cap=inner_window)
    return acc.mul_monomial(tuple(-(x + 1) for x in k)).truncate(window)


def residue(e: MSeries) -> Rat:
    """Coefficient of z_1^{-1} ... z_n^{-1}."""
    e._require_precision(-e.n)
    return e.terms.get((-1,) * e.n, ZERO)
