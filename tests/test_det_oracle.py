"""`series_det` against sympy's determinant of the same polynomial matrix.

Matrices are 1x1 to 4x4 with small exact polynomial entries in one or two
variables.  Three shapes: unit constants on the diagonal only (the
Jacobian shape I - (positive order)), no constant term anywhere (no unit
pivot exists), and constants anywhere.  The claim under test is the
certified truncation: every term the result claims through its `trunc`
must match the exact determinant, including when the entries are
themselves truncated.
"""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv.rat import Rat
from forminv.series import INF, MSeries, series_det

SETTINGS = settings(max_examples=25, deadline=None)

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-3), Rat(1, 2), Rat(-2, 3)])
SHAPES = ("unit_diagonal", "no_constant", "any")


@st.composite
def matrices(draw, shape):
    n = draw(st.integers(1, 2))
    size = draw(st.integers(1, 4))
    lowest = 0 if shape == "any" else 1
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) >= lowest)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            terms = draw(st.dictionaries(exps, COEFFS, max_size=3))
            if shape == "unit_diagonal" and i == j:
                terms[(0,) * n] = Rat(1)
            row.append(MSeries(n, INF, terms))
        rows.append(row)
    return rows


def sympy_det(rows):
    n = rows[0][0].n
    zs = sympy.symbols(f"z0:{n}")

    def poly(s):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[z**k for z, k in zip(zs, e)])
                for e, c in s.terms.items()
            ),
            sympy.Integer(0),
        )

    matrix = sympy.Matrix([[poly(s) for s in row] for row in rows])
    det = matrix.det(method="domain-ge").expand()
    return {
        e: Rat(int(c.p), int(c.q))
        for e, c in sympy.Poly(det, *zs).terms()
        if c
    }


def assert_matches_through(det, exact, trunc):
    mine = {e: c for e, c in det.terms.items() if sum(e) <= trunc}
    want = {e: c for e, c in exact.items() if sum(e) <= trunc}
    assert mine == want


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data(), cap=st.integers(0, 6))
def test_det_matches_sympy(shape, data, cap):
    rows = data.draw(matrices(shape))
    exact = sympy_det(rows)
    full = series_det(rows)
    assert full.trunc == INF
    assert full.terms == exact
    capped = series_det(rows, cap=cap)
    assert capped.trunc >= cap
    assert_matches_through(capped, exact, capped.trunc)


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data(), cap=st.one_of(st.none(), st.integers(0, 6)))
def test_truncated_entries_claim_nothing_unknown(shape, data, cap):
    rows = data.draw(matrices(shape))
    size = len(rows)
    truncs = data.draw(st.lists(st.integers(0, 4), min_size=size * size, max_size=size * size))
    cut = [
        [rows[i][j].truncate(truncs[i * size + j]) for j in range(size)]
        for i in range(size)
    ]
    det = series_det(cut, cap=cap)
    assert det.trunc < INF
    assert_matches_through(det, sympy_det(rows), det.trunc)
