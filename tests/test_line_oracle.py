"""F(G) = z for every method, checked outside ``MSeries`` on a random line.

Each method's inverse G of a map F = z - H (the acceptance corpus, and
seeded homogeneous maps with n = 2, 3) is read through ``.terms`` only.
On a line z = c*x with rational c, every component of G and of H becomes
a polynomial in the one variable x, held here as a list of
``fractions.Fraction`` coefficients, and F(G(c*x)) = G(c*x) - H(G(c*x))
must equal c*x through x^D.  A nonzero homogeneous part of F(G) - z of
degree k vanishes at a random c only if c lies on a degree-k hypersurface,
so one line per map is a strong check; it runs no series operation of the
library, so a wrong G cannot pass by sharing a fault with the check.
"""

import math
import random
from fractions import Fraction

import pytest

from forminv.inversion import METHODS, applicable_methods
from forminv.randmaps import acceptance_corpus, random_h
from forminv.series import MapF

D = 5
# every homogeneous corpus map has n = 1; these run `homog` on n = 2, 3
_RNG = random.Random("line-oracle-homogeneous")
MAPS = acceptance_corpus(50) + [
    MapF(random_h(_RNG, n, homogeneous_degree=d)) for n in (2, 3) for d in (2, 3)
]


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (D + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(D + 1 - i):
                out[i + j] += x * b[j]
    return out


def _on_line(terms: dict, point: list) -> list:
    """A series restricted to z = point * x, through x^D."""
    out = [Fraction(0)] * (D + 1)
    for e, c in terms.items():
        if sum(e) <= D:
            out[sum(e)] += _fraction(c) * math.prod(p**k for p, k in zip(point, e))
    return out


def _substitute(terms: dict, args: list) -> list:
    """A polynomial evaluated at univariate series without constant term."""
    out = [Fraction(0)] * (D + 1)
    for e, c in terms.items():
        value = [_fraction(c)] + [Fraction(0)] * D
        for arg, k in zip(args, e):
            for _ in range(k):
                value = _mul(value, arg)
        out = [x + y for x, y in zip(out, value)]
    return out


@pytest.mark.parametrize("method", list(METHODS))
def test_inverse_on_a_random_line(method):
    rng = random.Random(f"line-oracle-{method}")
    checked = 0
    for index, f in enumerate(MAPS):
        if method not in applicable_methods(f, [method]):
            continue
        if method == "jacobi" and f.n > 2:
            continue
        g = METHODS[method](f, D)
        point = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000), rng.randint(1, 1000))
            for _ in range(f.n)
        ]
        g_line = [_on_line(comp.terms, point) for comp in g.components]
        for i, (gi, hi) in enumerate(zip(g_line, f.h.components)):
            fg = [x - y for x, y in zip(gi, _substitute(hi.terms, g_line))]
            line = [Fraction(0), point[i]] + [Fraction(0)] * (D - 1)
            assert fg == line, f"map {index}, component {i + 1}: F(G) != z on the line"
        checked += 1
    assert checked
