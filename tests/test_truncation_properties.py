"""Truncate-then-compare properties of the certified-truncation contract.

Each test starts from a random exact operand, truncates it to a degree D,
applies one operation, and checks that the result agrees with the same
operation on the exact operand through the truncation the result claims.
A claim beyond what is exact would show as a mismatch.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from forminv.errors import TruncationError
from forminv.laurent import laurent_inv_power
from forminv.rat import Rat
from forminv.series import INF, MapF, MSeries, PolyMap

SETTINGS = settings(max_examples=60, deadline=None)

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])


def graded_exponents(n, lo, hi):
    """Exponent tuples of n non-negative entries with total in [lo, hi]."""
    return st.tuples(*[st.integers(0, hi)] * n).filter(lambda e: lo <= sum(e) <= hi)


def through(terms, degree, n):
    return {e: c for e, c in terms.items() if sum(e[:n]) <= degree}


@st.composite
def exact_maps(draw):
    """An exact canonical map F = z - H, n <= 2, H of degree 2..4."""
    n = draw(st.integers(1, 2))
    top = draw(st.integers(2, 4))
    comps = [
        MSeries(n, INF, draw(st.dictionaries(graded_exponents(n, 2, top), COEFFS, max_size=3)))
        for _ in range(n)
    ]
    return MapF(PolyMap(comps))


@SETTINGS
@given(
    exact_maps(),
    st.integers(2, 9),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.integers(-3, 2),
)
def test_laurent_inv_power_truncated_h(f, degree, k, window):
    n = f.n
    k = tuple(k[:n])
    window = max(window, -n - 1)
    exact = laurent_inv_power(f, k, window)
    assert exact.trunc == window
    try:
        got = laurent_inv_power(MapF(f.h.truncate(degree)), k, window)
    except TruncationError:
        event("raised")
        return
    event("compared")
    assert got.trunc <= window
    assert got.terms == through(exact.terms, got.trunc, n)


@st.composite
def exact_series(draw):
    n = draw(st.integers(1, 2))
    p = draw(st.integers(0, 1))
    exps = st.builds(
        lambda z, t: z + t,
        graded_exponents(n, 0, 5),
        st.tuples(*[st.integers(0, 2)] * p),
    )
    return MSeries(n, INF, draw(st.dictionaries(exps, COEFFS, max_size=6)), p)


@SETTINGS
@given(exact_series(), st.integers(2, 9), st.integers(0, 1))
def test_diff_truncated_operand(s, degree, i):
    i = min(i, s.n - 1)
    got = s.truncate(degree).diff(i)
    assert got.trunc == degree - 1
    assert got.terms == through(s.diff(i).terms, degree - 1, s.n)
