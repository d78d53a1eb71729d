"""The factors S_j(a) = (1 - H_j/z_j)^{-a} of both coefficient formulas of
``inversion``, and the Laurent expansion z^{-k-1} prod_j S_j(k_j + 1) of
prod_j F_j^{-k_j-1} that the residue formula reads.

H_j/z_j may have negative exponents, so a factor may be a Laurent
expansion: an ``MSeries`` whose ``trunc`` W certifies the stored terms of
total degree <= W exactly, with finitely many terms below W.  Products
use ``MSeries.mul`` and its certified truncation unchanged.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .rat import ONE, Rat, ZERO
from .series import MapF, MSeries, PolyMap, series_sum


def inverse_power_factors(h: PolyMap, exps: Sequence[Iterable[int]], through) -> list:
    """For each variable j, {a: S_j(a) for a in exps[j]} certified through
    `through`, as the binomial series sum_m C(a-1+m, m) X^m, X = H_j/z_j.

    X has order >= 1, so X^m has order >= m: the powers, taken once per
    variable, stop at m = through or at the first one with no terms, which
    stays in the sum for its truncation.  S_j(0) = 1 exactly."""
    out = []
    for j, (comp, wanted) in enumerate(zip(h.components, exps)):
        x = comp.mul_monomial(tuple(-(i == j) for i in range(h.n))).truncate(through)
        powers = [x]
        while len(powers) < through and powers[-1].terms:
            powers.append(powers[-1].mul(x, cap=through))
        one = MSeries.const(h.n, ONE, through)
        out.append({
            a: series_sum([one] + [p.scale(math.comb(a - 1 + m, m)) for m, p in enumerate(powers, 1)])
            if a else MSeries.const(h.n, ONE)
            for a in wanted
        })
    return out


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
    """Coefficient of z_1^{-1} ... z_n^{-1}."""
    e._require_precision(-e.n)
    return e.terms.get((-1,) * e.n, ZERO)
