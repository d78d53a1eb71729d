"""Truncate-then-compare properties of the certified-truncation contract.

Each test starts from a random exact operand, truncates it to a degree D,
applies one operation, and checks that the result agrees with the same
operation on the exact operand through the truncation the result claims.
A claim beyond what is exact would show as a mismatch.
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from forminv.errors import SubstitutionError, TruncationError
from forminv.flow import formal_flow, symmetry_detector
from forminv.inversion import METHODS, applicable_methods, invert_bcw, invert_fixed_point
from forminv.laurent import laurent_inv_power
from forminv.rat import Rat
from forminv.series import INF, MapF, MSeries, PolyMap, compose, unit_inverse
from forminv.trees import tree_sums

SETTINGS = settings(max_examples=60, deadline=None)

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])


def graded_exponents(n, lo, hi):
    """Exponent tuples of n non-negative entries with total in [lo, hi],
    drawn as lists of variable indices, so no example is filtered out."""
    idx = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)
    return idx.map(lambda ks: tuple(ks.count(k) for k in range(n)))


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


def series_in(n, p, lo=0, hi=5, max_size=6):
    """An exact series in n variables and p parameters, z-degrees lo..hi."""
    exps = st.builds(
        lambda z, t: z + t,
        graded_exponents(n, lo, hi),
        st.tuples(*[st.integers(0, 2)] * p),
    )
    return st.dictionaries(exps, COEFFS, max_size=max_size).map(
        lambda terms: MSeries(n, INF, terms, p)
    )


@st.composite
def exact_series(draw):
    return draw(series_in(draw(st.integers(1, 2)), draw(st.integers(0, 1))))


@st.composite
def exact_series_pairs(draw):
    n = draw(st.integers(1, 2))
    p = draw(st.integers(0, 1))
    return draw(series_in(n, p)), draw(series_in(n, p))


@SETTINGS
@given(exact_series(), st.integers(2, 9), st.integers(0, 1))
def test_diff_truncated_operand(s, degree, i):
    i = min(i, s.n - 1)
    got = s.truncate(degree).diff(i)
    assert got.trunc == degree - 1
    assert got.terms == through(s.diff(i).terms, degree - 1, s.n)


@SETTINGS
@given(exact_series_pairs(), st.integers(0, 6), st.integers(0, 6))
def test_mul_truncated_operands(pair, da, db):
    a, b = pair
    got = a.truncate(da).mul(b.truncate(db))
    assert got.terms == through(a.mul(b).terms, got.trunc, a.n)


@SETTINGS
@given(exact_series_pairs(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 10))
def test_mul_truncated_operands_with_cap(pair, da, db, cap):
    a, b = pair
    got = a.truncate(da).mul(b.truncate(db), cap=cap)
    assert got.trunc <= cap
    assert got.terms == through(a.mul(b).terms, got.trunc, a.n)


@st.composite
def exact_compositions(draw):
    """An exact series f and an exact map g without constant term, n <= 2."""
    n = draw(st.integers(1, 2))
    f = draw(series_in(n, 0, lo=1, hi=3, max_size=4))
    g = PolyMap([draw(series_in(n, 0, lo=1, hi=3, max_size=3)) for _ in range(n)])
    return f, g


@SETTINGS
@given(exact_compositions(), st.integers(1, 6), st.integers(1, 6))
def test_compose_truncated_operands(fg, df, dg):
    f, g = fg
    got = compose(f.truncate(df), g.truncate(dg))
    assert got.terms == through(compose(f, g).terms, got.trunc, f.n)


@SETTINGS
@given(exact_series(), st.integers(0, 6), st.integers(0, 8))
def test_unit_inverse_truncated_operand(s, degree, want):
    const = (0,) * (s.n + s.nparams)
    s = s + 1 if not s.terms.get(const) else s
    if any(e != const and sum(e[: s.n]) == 0 for e in s.terms):
        # 1 + t has no reciprocal polynomial in t
        event("parameter in the constant part")
        with pytest.raises(SubstitutionError):
            unit_inverse(s.truncate(degree), want)
        return
    try:
        got = unit_inverse(s.truncate(degree), want)
    except TruncationError:
        event("raised")
        assert want > degree
        return
    event("compared")
    assert got.trunc == want
    # s * got = 1 through the claimed degree, with s exact
    assert s.mul(got).terms == {const: 1}


@SETTINGS
@given(exact_maps(), st.lists(st.integers(1, 5), min_size=2, max_size=2), st.integers(2, 6))
def test_tree_sums_truncated_h(f, cuts, degree):
    """Each component of H truncated at its own degree."""
    cut = PolyMap([c.truncate(d) for c, d in zip(f.h.components, cuts)])
    for (tree, got), (_, exact) in zip(tree_sums(cut, degree), tree_sums(f.h, degree)):
        for g, e in zip(got, exact):
            assert g.trunc <= degree
            assert g.terms == through(e.terms, g.trunc, f.n), tree.key


@SETTINGS
@given(exact_maps(), st.integers(1, 4), st.integers(2, 6))
def test_tree_expansions_truncated_h(f, cut, degree):
    """``invert_bcw`` and ``formal_flow`` on H truncated at one degree
    claim no more than the fixed-point oracle does."""
    g = MapF(f.h.truncate(cut))
    fixed = invert_fixed_point(g, degree).trunc
    bcw, exact = invert_bcw(g, degree), invert_bcw(f, degree)
    flow, exact_flow = formal_flow(g, degree), formal_flow(f, degree)
    assert bcw.trunc <= fixed
    assert flow.map.trunc <= fixed
    for got, want in [*zip(bcw, exact), *zip(flow.map, exact_flow.map)]:
        assert got.terms == through(want.terms, got.trunc, f.n)


@SETTINGS
@given(
    exact_maps(),
    st.lists(st.one_of(st.none(), st.integers(2, 5)), min_size=2, max_size=2),
    st.integers(2, 6),
)
@example(MapF(PolyMap.zero(2)), [0, 0], 3)
def test_every_method_truncated_h(f, cuts, degree):
    """Every applicable method on H with each component exact or cut at
    its own degree returns, as the fixed-point oracle does, claims no more
    than the oracle, and equals the exact-H inverse through what it
    claims.  H cut at degree 0 leaves h_i = H_i / z_i certified through
    -1 only, which the product form must survive."""
    cut = [c if d is None else c.truncate(d) for c, d in zip(f.h.components, cuts)]
    g = MapF(PolyMap(cut))
    fixed = invert_fixed_point(g, degree).trunc
    exact = invert_fixed_point(f, degree)
    for name in applicable_methods(g, list(METHODS)):
        inverse = METHODS[name](g, degree)
        assert inverse.trunc <= fixed, name
        for got, want in zip(inverse, exact):
            assert got.terms == through(want.terms, got.trunc, f.n), name


def test_zero_h_known_through_two():
    """H = 0 known only through degree 2: G = z is certified through 2, by
    the tree expansions as by the fixed-point oracle."""
    f = MapF(PolyMap([MSeries(1, 2, {})]))
    assert invert_fixed_point(f, 4).trunc == 2
    assert invert_bcw(f, 4).trunc == 2
    assert formal_flow(f, 4).map.trunc == 2


def test_homog_on_a_component_cut_below_its_degree():
    """H = (-2 z1^3 z2, 0 known through degree 0): H_2 is unknown from
    degree 1 on, which reaches the first component, through G_2 in
    -2 G_1^3 G_2, from degree 4 on.  ``homog`` claims what ``recurrent``
    and ``bcw`` claim, z1 through 3, not z1 - 2 z1^3 z2 through 4."""
    f = MapF(PolyMap([MSeries(2, INF, {(3, 1): -2}), MSeries(2, 0, {})]))
    for name in ("homog", "recurrent", "bcw"):
        first = METHODS[name](f, 4)[0]
        assert (first.terms, first.trunc) == ({(1, 0): 1}, 3), name


def test_symmetry_on_a_component_cut_below_its_degree():
    """The same H: its Jacobian's stored entries (0, 1) and (1, 0) differ,
    -2 z1^3 against a zero known through no degree, and JH is reported
    not symmetric; the unknown terms are not taken to match."""
    h = PolyMap([MSeries(2, INF, {(3, 1): -2}), MSeries(2, 0, {})])
    assert symmetry_detector(h) == (False, "JH is not symmetric: entries (0, 1) differ")


def plain_pass_fixed_point(f, degree):
    """The oracle for ``invert_fixed_point``: graded passes G <- z + H(G),
    capped at `degree`, from G = z through o(H) - 1, each certifying
    o(H) - 1 more degrees by the ops alone, until a pass certifies no new
    degree."""
    ident = PolyMap.identity(f.n, trunc=INF)
    order = min(c.known_order for c in f.h.components)
    g = PolyMap.identity(f.n, trunc=min(order - 1, degree))
    while True:
        nxt = ident + f.h.compose(g, cap=degree)
        if nxt.trunc <= g.trunc:
            return g
        g = nxt


@st.composite
def cut_maps(draw):
    """F = z - H, n <= 3, each component of H of degree 2..5 with at most
    two terms (none allowed), exact or cut at 2..5."""
    n = draw(st.integers(1, 3))
    comps = []
    for _ in range(n):
        terms = draw(st.dictionaries(graded_exponents(n, 2, 5), COEFFS, max_size=2))
        cut = draw(st.one_of(st.none(), st.integers(2, 5)))
        s = MSeries(n, INF, terms)
        comps.append(s if cut is None else s.truncate(cut))
    return MapF(PolyMap(comps))


@st.composite
def inverse_candidates(draw):
    """A cut map, D = 0..8, and `fixed`'s inverse through D, either as it
    is or with one coefficient of z-degree 1..max(D, 1) changed."""
    f = draw(cut_maps())
    degree = draw(st.integers(0, 8))
    g = invert_fixed_point(f, degree)
    if draw(st.booleans()):
        i = draw(st.integers(0, f.n - 1))
        bump = MSeries(f.n, INF, {draw(graded_exponents(f.n, 1, max(degree, 1))): draw(COEFFS)})
        g = PolyMap([c + bump if j == i else c for j, c in enumerate(g)])
    return f, degree, g


@SETTINGS
@given(inverse_candidates())
def test_right_inverse_is_left_inverse(case):
    """The lemma ``cross_check`` relies on to skip G(F): for G without
    constant term, F(G) = z through a degree exactly when G(F) = z through
    it (either one makes G the true inverse there).  Both compositions are
    compared through the least degree they certify."""
    f, degree, g = case
    fg, gf = f.map.compose(g, cap=degree), g.compose(f.map, cap=degree)
    through = min(c.trunc for c in (*fg, *gf))
    z = PolyMap.identity(f.n)
    right = fg.eq_through(z, through)
    event(f"F(G) = z: {right}")
    assert gf.eq_through(z, through) == right


@settings(max_examples=200, deadline=None)
@given(cut_maps(), st.integers(0, 12))
@example(MapF(PolyMap.zero(2)), 5)
@example(MapF(PolyMap.zero(2, trunc=3)), 7)
@example(MapF(PolyMap([MSeries(1, INF, {(5,): Rat(1)})])), 2)
@example(MapF(PolyMap([MSeries(2, INF, {(0, 4): Rat(1)}), MSeries(2, 3, {})])), 0)
def test_fixed_point_matches_plain_passes(f, degree):
    """The Newton candidate and its certifying pass return the plain-pass
    loop's terms and per-component truncations."""
    order = min(c.known_order for c in f.h.components)
    event("H = 0" if all(c.is_zero() for c in f.h) else f"o(H) = {order}")
    event(f"n = {f.n}, D < o(H) - 1" if degree < order - 1 else f"n = {f.n}")
    got, want = invert_fixed_point(f, degree), plain_pass_fixed_point(f, degree)
    assert [c.trunc for c in got] == [c.trunc for c in want]
    assert [c.terms for c in got] == [c.terms for c in want]
