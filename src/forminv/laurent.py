"""The factors S_j(a) = (1 - H_j/z_j)^{-a} of both coefficient formulas of
``inversion``, and the Laurent expansion z^{-k-1} prod_j S_j(k_j + 1) of
prod_j F_j^{-k_j-1} that the residue formula reads.

H_j/z_j may have negative exponents, so a factor may be a Laurent
expansion: an ``MSeries`` whose ``trunc`` W certifies the stored terms of
total degree <= W exactly, with finitely many terms below W.  The factors
are the binomial series of ``series.inverse_powers``, and products use
``MSeries.mul`` and its certified truncation unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .rat import ONE, Rat
from .series import MapF, MSeries, PolyMap, inverse_powers


def inverse_power_factors(h: PolyMap, exps: Sequence[Iterable[int]], through) -> list:
    """For each variable j, {a: S_j(a) for a in exps[j]} certified through
    `through`: ``inverse_powers`` of X = H_j/z_j, which has order >= 1."""
    return [
        inverse_powers(comp.mul_monomial(tuple(-(i == j) for i in range(h.n))), wanted, through)
        for j, (comp, wanted) in enumerate(zip(h.components, exps))
    ]


def laurent_inv_power(f: MapF, k: Sequence[int], window: int) -> MSeries:
    """Expansion of prod_i F_i^{-k_i - 1} for F = z - H, exact for all total
    degrees <= window."""
    k = tuple(k)
    if len(k) != f.n or any(x < 0 for x in k):
        raise DimensionMismatch(f"bad exponent {k} for n={f.n}")
    inner_window = max(window + sum(k) + f.n, 0)
    acc = MSeries.const(f.n, ONE, inner_window)
    for factor in inverse_power_factors(f.h, [[a + 1] for a in k], inner_window):
        (s,) = factor.values()
        acc = acc.mul(s, cap=inner_window)
    out = acc.mul_monomial(tuple(-(x + 1) for x in k))
    out._require_precision(window)  # TruncationError when H is cut too low
    return out.truncate(window)


def residue(e: MSeries) -> Rat:
    """Coefficient of z_1^{-1} ... z_n^{-1}, by ``MSeries.coefficient``."""
    e._require_precision(-e.n)
    return e.coefficient((-1,) * e.n)
