"""The residue route of the Jacobi coefficient formula, kept as the
reference: the Laurent expansion z^{-k-1} prod_j S_j(k_j + 1) of
prod_j F_j^{-k_j-1}, and the formal residue of j(F) F^{-k-1} z_i, which is
[z^k] G_i.  ``inversion`` reads that coefficient off one product and never
forms the residue; the tests hold the two routes equal.  A factor
S_j(a) = (1 - H_j/z_j)^{-a} (``inversion.inverse_power_factors``) may be a
Laurent expansion, whose ``trunc`` W certifies the stored terms of total
degree <= W exactly; products use ``MSeries.mul`` unchanged.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch
from .inversion import inverse_power_factors
from .rat import ONE, Rat
from .series import MapF, MSeries


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
