"""Property tests of the sparse kernels against naive double loops.

Operands are small random sparse series (optionally carrying parameter
positions) and Laurent expressions with negative exponents.  The
reference implementations below multiply every term pair without any
truncation logic, then keep the degrees the result claims to certify.
Products, sums of products (``dot``) and compositions run on packed
integer views of their operands, so their operands also draw coprime and
100+-bit denominators, and exponents of 2^19 and 2^40 that do not fit
the default field width.

The determinant, the labeled tree sums and the parts of ``ag`` each sum
their products in one ``dot`` (or read the parts off the packed rows of
the products, ``taylor_sums``).  Their references below are the folds
they replaced: each product taken by ``mul`` and the products summed by
``series_sum``, or the chain of unary ops, compared in both terms and
truncation.  As ``mul`` is itself a ``dot``, the truncation of ``dot``
is also pinned to its formula, computed from the operands' term dicts.

A series is stored as its packed view only, and decodes its terms on
every read.  Every view an op stores must be the one ``_pack`` builds
from those terms, with each row's degree (read off its key) the z-degree
of its exponent; each unary op must give the same series on an operand
stored as ``_pack``'s view as on one built from terms by the
constructor, and leave both unchanged; and ``coefficient`` must read
what ``terms`` holds, at stored and absent exponents alike.
The parameter ops, ``series_sum`` and ``first_mismatch`` run on the rows
too; their references below are the formulas on dicts of ``Rat``s that
they replaced.
"""

import math
from contextlib import contextmanager
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv import packed, series
from forminv.errors import DimensionMismatch, SubstitutionError
from forminv.flow import deformation_inverse
from forminv.inversion import jacobi_coefficient
from forminv.laurent import laurent_inv_power
from forminv.rat import ONE, Rat
from forminv.series import (
    INF,
    MapF,
    MSeries,
    PolyMap,
    compose,
    dot,
    first_asymmetry,
    first_mismatch,
    inverse_powers,
    series_det,
    series_from_terms,
    series_sum,
    taylor_sums,
    unit_inverse,
)
from forminv.trees import tree_sums

SETTINGS = settings(max_examples=30, deadline=None)

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])
# the packed kernel's common denominators: coprime ones, and 100+-bit values
KERNEL_COEFFS = st.one_of(
    COEFFS,
    st.sampled_from([Rat(1, 3), Rat(-2, 7), Rat(5, 6), Rat(2**101 + 1, 3**64)]),
)


def exponents(n, nparams, lo=0, hi=3):
    z = st.tuples(*[st.integers(lo, hi)] * n)
    p = st.tuples(*[st.integers(min(lo, 0), 2)] * nparams)
    return st.builds(lambda a, b: a + b, z, p)


def term_dicts(n, nparams=0, lo=0, hi=3, max_size=6, coeffs=COEFFS):
    return st.dictionaries(exponents(n, nparams, lo, hi), coeffs, max_size=max_size)


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, 2))
    a = MSeries(n, INF, draw(term_dicts(n, p, coeffs=KERNEL_COEFFS)), p)
    b = MSeries(n, INF, draw(term_dicts(n, p, coeffs=KERNEL_COEFFS)), p)
    return a, b


def zdeg(e, n):
    return sum(e[:n])


def naive_product(a_terms, b_terms, keep):
    out = {}
    for ea, ca in a_terms.items():
        for eb, cb in b_terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c and keep(e)}


def no_zero_coefficient(terms):
    return all(c for c in terms.values())


@SETTINGS
@given(series_pairs(), st.integers(0, 8))
def test_mul_matches_naive(pair, cap):
    a, b = pair
    r = a.mul(b, cap=cap)
    assert r.trunc == cap
    assert r.terms == naive_product(a.terms, b.terms, lambda e: zdeg(e, a.n) <= cap)
    assert no_zero_coefficient(r.terms)


@st.composite
def summands(draw):
    """1-4 parts of one layout, each certified through its own truncation
    (INF or -2..6) and holding no term above it, with or without a
    parameter and negative exponents; sometimes one part is added again,
    as the same object or negated so that its terms cancel."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, 1))
    lo = draw(st.sampled_from([0, -2]))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        trunc = draw(st.one_of(st.just(INF), st.integers(-2, 6)))
        terms = draw(term_dicts(n, p, lo=lo))
        terms = {e: c for e, c in terms.items() if zdeg(e, n) <= trunc}
        parts.append(MSeries(n, trunc, terms, p))
    again = parts[draw(st.integers(0, len(parts) - 1))]
    parts += draw(st.sampled_from([[], [again], [-again]]))
    return draw(st.permutations(parts))


@SETTINGS
@given(summands())
def test_series_sum_matches_fold_and_naive(parts):
    r = series_sum(parts)
    folded = reduce(add, parts)
    assert (r.terms, r.trunc) == (folded.terms, folded.trunc)
    trunc = min(s.trunc for s in parts)
    want = {}
    for s in parts:
        for e, c in s.terms.items():
            want[e] = want.get(e, 0) + c
    assert r.trunc == trunc
    assert r.terms == {e: c for e, c in want.items() if c and zdeg(e, r.n) <= trunc}
    assert (r.n, r.nparams) == (parts[0].n, parts[0].nparams)
    if len(parts) == 1:
        assert r is parts[0]


@pytest.mark.parametrize(
    "layouts", [[(1, 0), (2, 0)], [(2, 0), (2, 1)], [(2, 1), (2, 1), (1, 1)]]
)
def test_series_sum_rejects_mixed_layouts(layouts):
    parts = [MSeries.variable(n, 0, nparams=p) for n, p in layouts]
    with pytest.raises(DimensionMismatch):
        series_sum(parts)


@SETTINGS
@given(series_pairs())
def test_add_matches_naive(pair):
    a, b = pair
    want = dict(a.terms)
    for e, c in b.terms.items():
        want[e] = want.get(e, 0) + c
    r = a + b
    assert r.terms == {e: c for e, c in want.items() if c}
    assert no_zero_coefficient(r.terms)
    assert (a + (-a)).is_zero()
    assert (r - b).terms == a.terms


@SETTINGS
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), term_dicts(n, hi=3), COEFFS)
    ),
    st.integers(0, 7),
)
def test_unit_inverse_matches_naive(data, degree):
    n, terms, c0 = data
    terms[(0,) * n] = c0
    s = MSeries(n, INF, terms)
    inv = unit_inverse(s, degree)
    assert inv.trunc == degree
    assert no_zero_coefficient(inv.terms)
    assert all(sum(e) <= degree for e in inv.terms)
    one = naive_product(s.terms, inv.terms, lambda e: sum(e) <= degree)
    assert one == {(0,) * n: Rat(1)}


@st.composite
def reciprocal_operands(draw):
    """x of z-order >= 1, Laurent or not, exact or cut, with a parameter
    in some cases; an exponent a in 0..4 and a degree D in -1..8."""
    n = draw(st.integers(1, 3))
    nparams = draw(st.integers(0, 1))
    trunc = draw(st.sampled_from([INF, 0, 1, 2, 3, 5]))
    lo = draw(st.sampled_from([0, -1]))
    terms = draw(term_dicts(n, nparams, lo=lo, hi=3))
    terms = {e: c for e, c in terms.items() if 1 <= zdeg(e, n) <= trunc}
    x = MSeries(n, trunc, terms, nparams)
    return x, draw(st.integers(0, 4)), draw(st.integers(-1, 8))


@SETTINGS
@given(reciprocal_operands())
def test_inverse_powers_times_power_is_one(data):
    x, a, degree = data
    (s,) = inverse_powers(x, [a], degree).values()
    assert s.trunc == (INF if a == 0 else min(degree, x.trunc))
    assert no_zero_coefficient(s.terms)
    assert all(zdeg(e, x.n) <= s.trunc for e in s.terms)
    one = MSeries.const(x.n, ONE, nparams=x.nparams)
    power = reduce(lambda p, _: naive_product(p, (one - x).terms, lambda e: True), range(a), one.terms)
    through = naive_product(s.terms, power, lambda e: zdeg(e, x.n) <= s.trunc)
    assert through == ({} if s.trunc < 0 else one.terms)


@st.composite
def laurent_pairs(draw):
    n = draw(st.integers(1, 3))
    a = draw(term_dicts(n, lo=-2, hi=3))
    b = draw(term_dicts(n, lo=-2, hi=3))
    wa = draw(st.integers(-2, 6))
    wb = draw(st.integers(-2, 6))
    a = {e: c for e, c in a.items() if sum(e) <= wa}
    b = {e: c for e, c in b.items() if sum(e) <= wb}
    return MSeries(n, wa, a), MSeries(n, wb, b), draw(st.integers(-3, 8))


@SETTINGS
@given(laurent_pairs())
def test_laurent_mul_matches_naive(data):
    a, b, window = data
    r = a.mul(b, cap=window)
    assert r.trunc <= window
    assert r.terms == naive_product(a.terms, b.terms, lambda e: sum(e) <= r.trunc)
    assert no_zero_coefficient(r.terms)


@SETTINGS
@given(laurent_pairs(), COEFFS)
def test_laurent_add_drops_cancelled_terms(data, scale):
    a, b, _ = data
    r = a + b.scale(scale)
    assert no_zero_coefficient(r.terms)
    want = dict(a.terms)
    for e, c in b.terms.items():
        want[e] = want.get(e, 0) + c * scale
    assert r.terms == {e: c for e, c in want.items() if c and sum(e) <= r.trunc}
    assert not (a + a.scale(-1)).terms


@st.composite
def compositions(draw):
    n = draw(st.integers(1, 2))
    p = draw(st.integers(0, 2))
    f = MSeries(n, INF, draw(term_dicts(n, p, hi=2, max_size=4, coeffs=KERNEL_COEFFS)), p)
    comps = []
    for _ in range(n):
        terms = draw(term_dicts(n, p, hi=2, max_size=3, coeffs=KERNEL_COEFFS))
        comps.append(MSeries(n, INF, {e: c for e, c in terms.items() if zdeg(e, n)}, p))
    return f, PolyMap(comps), draw(st.integers(1, 6))


def naive_compose(f, g):
    """sum_e c_e * prod_i g_i^{e_i} * (parameter monomial of e), untruncated."""
    n = f.n
    out = {}
    for e, c in f.terms.items():
        acc = {(0,) * n + e[n:]: c}
        for i in range(n):
            for _ in range(e[i]):
                acc = naive_product(acc, g.components[i].terms, lambda _: True)
        for k, v in acc.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


@SETTINGS
@given(compositions())
def test_compose_matches_naive(data):
    f, g, cap = data
    r = compose(f, g, cap=cap)
    assert r.trunc == cap
    want = naive_compose(f, g)
    assert r.terms == {e: c for e, c in want.items() if zdeg(e, f.n) <= cap}
    assert no_zero_coefficient(r.terms)


# exponents beyond the default packed field width, whose sums need wider ones
HUGE = [2**19, -(2**19), 2**19 - 1, 2**40, -(2**40)]


@st.composite
def huge_pairs(draw):
    n = draw(st.integers(1, 2))
    p = draw(st.integers(0, 2))
    entry = st.one_of(st.integers(-2, 3), st.sampled_from(HUGE))
    exps = st.tuples(*[entry] * (n + p))
    a, b = (
        MSeries(n, INF, draw(st.dictionaries(exps, KERNEL_COEFFS, max_size=4)), p)
        for _ in range(2)
    )
    return a, b, draw(st.sampled_from([None, 0, 2**19, 2**40]))


@SETTINGS
@given(huge_pairs())
def test_mul_matches_naive_on_huge_exponents(data):
    a, b, cap = data
    r = a.mul(b, cap=cap)
    keep = (lambda e: True) if cap is None else (lambda e: zdeg(e, a.n) <= cap)
    assert r.terms == naive_product(a.terms, b.terms, keep)
    assert no_zero_coefficient(r.terms)


@pytest.mark.parametrize("big", [2**19, 2**40])
def test_mul_and_compose_match_naive_beyond_the_field_width(big):
    """Sums of two exponents of `big`, and of a parameter exponent of f with
    one of a power of g, overflow the field width of either operand."""
    a = MSeries(2, INF, {(big, -big): Rat(1, 3), (1, 0): Rat(-2, 7), (-big, 0): 1})
    b = MSeries(2, INF, {(big, -big): Rat(5, 6), (0, -big): Rat(2**101 + 1, 3**64)})
    assert a.mul(b).terms == naive_product(a.terms, b.terms, lambda e: True)
    assert a.mul(a).terms == naive_product(a.terms, a.terms, lambda e: True)
    g = PolyMap([
        MSeries(2, INF, {(1, 0, big): Rat(1, 3), (big + 1, -big, 0): Rat(-2, 7)}, 1),
        MSeries(2, INF, {(0, 1, -big): Rat(5, 6), (1, 1, 1): 1}, 1),
    ])
    f = MSeries(2, INF, {(2, 0, big): Rat(1, 2), (1, 1, -big): Rat(-1, 3), (0, 1, 0): 1}, 1)
    assert compose(f, g).terms == naive_compose(f, g)


@st.composite
def dot_pairs(draw):
    """1-4 pairs of operands of one layout with up to two parameters, each
    exact or truncated (terms above the truncation removed), some zero;
    coprime and 100+-bit denominators, sometimes exponents beyond the
    default field width; and a cap of None or 0-8."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, 2))
    entry = st.integers(0, 3)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.sampled_from(HUGE))
    exps = st.tuples(*[entry] * (n + p))

    def operand():
        trunc = draw(st.one_of(st.just(INF), st.integers(0, 6)))
        terms = draw(st.dictionaries(exps, KERNEL_COEFFS, max_size=5))
        return MSeries(n, trunc, {e: c for e, c in terms.items() if zdeg(e, n) <= trunc}, p)

    pairs = [(operand(), operand()) for _ in range(draw(st.integers(1, 4)))]
    return pairs, draw(st.one_of(st.none(), st.integers(0, 8)))


def naive_dot(pairs, trunc):
    """The terms of the sum of the pairs' products through `trunc`."""
    naive = {}
    for a, b in pairs:
        for e, c in naive_product(a.terms, b.terms, lambda e: True).items():
            naive[e] = naive.get(e, 0) + c
    return {e: c for e, c in naive.items() if c and zdeg(e, a.n) <= trunc}


def formula_trunc(pairs, cap):
    """The truncation a dot of `pairs` certifies, from the operands' own
    term dicts: the least of `cap` and, per pair, Da + ko(b), Db + ko(a)
    and Da + Db + 1, where ko is the least z-degree of a term, or D + 1
    when there is none."""
    def ko(s):
        return min((zdeg(e, s.n) for e in s.terms), default=s.trunc + 1)

    bounds = [min(a.trunc + ko(b), b.trunc + ko(a), a.trunc + b.trunc + 1) for a, b in pairs]
    return min(bounds + ([] if cap is None else [cap]))


@settings(max_examples=60, deadline=None)
@given(dot_pairs())
def test_dot_matches_sum_of_capped_products(data):
    pairs, cap = data
    before = [(dict(a.terms), dict(b.terms)) for a, b in pairs]
    r = dot(pairs, cap=cap)
    want = series_sum([a.mul(b, cap=cap) for a, b in pairs])
    assert (r.terms, r.trunc) == (want.terms, want.trunc)
    assert r.trunc == formula_trunc(pairs, cap)
    assert (r.n, r.nparams) == (pairs[0][0].n, pairs[0][0].nparams)
    assert r.terms == naive_dot(pairs, r.trunc)
    assert [(a.terms, b.terms) for a, b in pairs] == before


def _one(trunc, terms):
    return MSeries(1, trunc, {(e,): Rat(c) for e, c in terms.items()})


LOW, SQUARE = _one(2, {1: 1, 2: Rat(1, 3)}), _one(INF, {2: Rat(-2, 7)})


@pytest.mark.parametrize("pairs, cap", [
    # each of the first two bounds binds, on either side of the pair
    ([(LOW, SQUARE)], None),
    ([(SQUARE, LOW)], None),
    ([(LOW, _one(INF, {3: 1, 4: 2, 5: 1}))], None),
    ([(_one(INF, {3: 1, 4: 2, 5: 1}), LOW)], 9),
    # truncated zeros: Da + Db + 1 binds when both factors are zero
    ([(_one(2, {}), _one(3, {}))], None),
    ([(_one(2, {}), _one(3, {})), (LOW, SQUARE)], None),
    ([(_one(1, {}), LOW)], None),
    ([(SQUARE, _one(4, {}))], 5),
    # an exact zero leaves the sum exact
    ([(_one(INF, {}), SQUARE)], None),
    ([(_one(INF, {}), _one(INF, {}))], None),
    ([(_one(INF, {}), SQUARE), (SQUARE, SQUARE)], None),
    # one pair whose operands sit at different widths (2^19 needs 21 bits)
    ([(_one(INF, {2**19: Rat(1, 2), 1: 1}), LOW)], None),
    ([(LOW, _one(INF, {2**19: Rat(1, 2), 1: 1}))], 2**20),
    # products whose top terms land exactly on the truncation
    ([(LOW, LOW)], None),
    ([(SQUARE, SQUARE)], 4),
])
def test_dot_truncation_on_edge_cases(pairs, cap):
    r = dot(pairs, cap=cap)
    assert r.trunc == formula_trunc(pairs, cap)
    assert r.terms == naive_dot(pairs, r.trunc)


@pytest.mark.parametrize("layouts", [[(1, 0), (2, 0)], [(2, 0), (2, 1)]])
def test_dot_rejects_mixed_layouts(layouts):
    (n, p), (m, q) = layouts
    x, y = MSeries.variable(n, 0, nparams=p), MSeries.variable(m, 0, nparams=q)
    with pytest.raises(DimensionMismatch):
        dot([(x, y)])
    with pytest.raises(DimensionMismatch):
        dot([(x, x), (y, y)])


def fold_det(matrix, cap=None):
    """Reference determinant: the cofactor expansion over column subsets
    with one capped ``mul`` per (state, entry) and ``series_sum`` per
    subset, skipping an entry only when it vanishes through the cap."""
    first = matrix[0][0]
    limit = INF if cap is None else cap
    states = {(): MSeries.const(first.n, ONE, INF, first.nparams)}
    for row in matrix:
        new = {}
        for cols, val in states.items():
            for j, entry in enumerate(row):
                if j in cols or (entry.is_zero() and entry.trunc >= limit):
                    continue
                term = val.mul(entry, cap=cap)
                if sum(1 for c in cols if c > j) % 2:
                    term = -term
                new.setdefault(tuple(sorted(cols + (j,))), []).append(term)
        states = {cols: series_sum(terms) for cols, terms in new.items()}
        if not states:
            break
    full = tuple(range(len(matrix)))
    return states.get(full, MSeries.zero(first.n, limit, first.nparams))


@st.composite
def det_matrices(draw):
    """1x1 to 4x4 matrices of one layout (up to one parameter), each entry
    exact or truncated at 0-5 (terms above it removed), some zero, some
    with a constant term; and a cap of None or 0-6."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(0, 1))
    size = draw(st.integers(1, 4))

    def entry():
        trunc = draw(st.one_of(st.just(INF), st.integers(0, 5)))
        terms = draw(term_dicts(n, p, hi=2, max_size=3, coeffs=KERNEL_COEFFS))
        return MSeries(n, trunc, {e: c for e, c in terms.items() if zdeg(e, n) <= trunc}, p)

    rows = [[entry() for _ in range(size)] for _ in range(size)]
    return rows, draw(st.one_of(st.none(), st.integers(0, 6)))


@settings(max_examples=80, deadline=None)
@given(det_matrices())
def test_series_det_matches_cofactor_fold(data):
    matrix, cap = data
    r = series_det(matrix, cap=cap)
    want = fold_det(matrix, cap=cap)
    assert (r.terms, r.trunc) == (want.terms, want.trunc)
    assert (r.n, r.nparams) == (want.n, want.nparams)
    assert no_zero_coefficient(r.terms)


def fold_tree_sums(h, degree):
    """Reference for ``tree_sums``: the labeled tree sums folded child by
    child with one capped ``mul`` per product and ``series_sum`` per label
    multiset.  A factor or a product is skipped only when it is zero
    through the cap: a zero certified less far bounds the sum it feeds."""
    n, cap = h.n, degree

    def vanishes(s):
        return not s.terms and s.trunc >= cap
    memo_q, memo_states = {}, {(): {(): MSeries.const(n, ONE)}}

    def deriv(i, alpha):
        s = h.components[i]
        for axis in alpha:
            s = s.diff(axis)
        return s

    def states(children):
        key = tuple(c.key for c in children)
        if key not in memo_states:
            new = {}
            for alpha, partial in states(children[:-1]).items():
                for k in range(n):
                    q = root_sum(children[-1], k)
                    if vanishes(q):
                        continue
                    prod = partial.mul(q, cap=cap)
                    if not vanishes(prod):
                        new.setdefault(tuple(sorted(alpha + (k,))), []).append(prod)
            sums = {a: series_sum(ps) for a, ps in new.items()}
            memo_states[key] = {a: s for a, s in sums.items() if not vanishes(s)}
        return memo_states[key]

    def root_sum(tree, i):
        if (tree.key, i) not in memo_q:
            parts = [MSeries.zero(n, cap)]
            for alpha, weight in states(tree.children).items():
                d = deriv(i, alpha)
                if not vanishes(d):
                    parts.append(weight.mul(d, cap=cap))
            memo_q[tree.key, i] = series_sum(parts)
        return memo_q[tree.key, i]

    return root_sum


@st.composite
def tree_maps(draw):
    """H of order >= 2 in 1-3 variables, 0-3 terms of degree 2-3 per
    component (some components zero), each component exact or truncated
    at 1-5 (terms above it removed); and a degree of 2-6, so the sums
    cover every tree with up to 5 vertices."""
    n = draw(st.integers(1, 3))
    exps = exponents(n, 0, hi=3).filter(lambda e: 2 <= sum(e) <= 3)
    comps = []
    for _ in range(n):
        trunc = draw(st.one_of(st.just(INF), st.integers(1, 5)))
        terms = draw(st.dictionaries(exps, KERNEL_COEFFS, max_size=3))
        comps.append(MSeries(n, trunc, {e: c for e, c in terms.items() if sum(e) <= trunc}))
    return PolyMap(comps), draw(st.integers(2, 6))


@settings(max_examples=40, deadline=None)
@given(tree_maps())
def test_tree_sums_match_fold_of_capped_products(data):
    h, degree = data
    root_sum = fold_tree_sums(h, degree)
    for tree, sums in tree_sums(h, degree):
        for i, got in enumerate(sums):
            want = root_sum(tree, i)
            assert (got.terms, got.trunc) == (want.terms, want.trunc), (tree.key, i)
            assert no_zero_coefficient(got.terms)


def chain_ag_part(q, m, i, degree):
    """Reference for one part of ``taylor_sums``: z_i q by ``mul_monomial``, then |m|
    calls of ``diff``, ``scale`` by 1/m! and ``truncate``."""
    term = q.mul_monomial(tuple(1 if j == i else 0 for j in range(q.n)))
    for axis, reps in enumerate(m):
        for _ in range(reps):
            term = term.diff(axis)
    return term.scale(Rat(1, math.prod(map(math.factorial, m)))).truncate(degree)


@st.composite
def ag_parts(draw):
    """1-3 parts (q, m) of one n in 1-3 variables: q exact or truncated at
    0-7 (terms above it removed), a multi-index m with |m| <= 4; and a
    degree of 0-8."""
    n = draw(st.integers(1, 3))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        trunc = draw(st.one_of(st.just(INF), st.integers(0, 7)))
        terms = draw(term_dicts(n, hi=4, max_size=8, coeffs=KERNEL_COEFFS))
        q = MSeries(n, trunc, {e: c for e, c in terms.items() if sum(e) <= trunc})
        m = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: sum(m) <= 4))
        parts.append((q, m))
    return n, parts, draw(st.integers(0, 8))


@settings(max_examples=80, deadline=None)
@given(ag_parts())
def test_ag_part_matches_chain_of_unary_ops(data):
    n, parts, degree = data
    for i, r in enumerate(taylor_sums(n, parts, degree)):
        chains = [chain_ag_part(q, m, i, degree) for q, m in parts]
        want = series_sum([MSeries.zero(n, degree)] + chains)
        assert (r.terms, r.trunc) == (want.terms, want.trunc)
        assert no_zero_coefficient(r.terms)


@st.composite
def param_series(draw):
    """A series in 1-2 variables with 1-2 parameters, Laurent in some
    cases, its parameters then to powers from -2."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(1, 2))
    lo = draw(st.sampled_from([0, -2]))
    return MSeries(n, INF, draw(term_dicts(n, p, lo=lo, max_size=8)), p)


# -- the packed view as the stored form ----------------------------------------


@contextmanager
def stored_views():
    """Collects every series that the block stores as a packed view only."""
    stored, original = [], series._stored

    def record(*args):
        s = original(*args)
        stored.append(s)
        return s

    series._stored = record
    try:
        yield stored
    finally:
        series._stored = original


def assert_view_is_packed_terms(s):
    """The stored view equals ``_pack`` of the series' terms field for
    field, and each row's degree is the z-degree of its exponent."""
    view = s._view
    want = series._pack(s.terms, s.n, s.nparams)
    assert (view.den, view.rows, view.degs, view.width) == (
        want.den, want.rows, want.degs, want.width
    )
    assert view.degs == [s.zdeg(e) for e in s.terms]
    assert all(abs(x) <= view.span for e in s.terms for x in e)


@settings(max_examples=60, deadline=None)
@given(
    dot_pairs(),
    compositions(),
    ag_parts(),
    summands(),
    param_series(),
    st.sampled_from([Rat(2), Rat(-1, 2), Rat(3, 5)]),
)
def test_every_stored_view_is_the_packed_terms(dots, comps, ag, parts, s, value):
    # an exponent of 2^15 needs a field wider than the default
    wide = MSeries(s.n, INF, {(2**15,) + (0,) * (s.n + s.nparams - 1): Rat(1, 3)}, s.nparams)
    with stored_views() as stored:
        dot(*dots)
        f, g, cap = comps
        compose(f, g, cap=cap)
        taylor_sums(*ag)
        series_sum(parts)
        for x in (s, s + wide):
            y = x.with_params(1)
            y.eval_param(0, value)
            if all(e[x.n] >= 0 for e in x.terms):
                y.subst_param_sum(0, y.nparams - 1)
            x.as_exact()
    assert stored
    for s in stored:
        assert_view_is_packed_terms(s)


def _catalan2():
    """F = z - H in two variables, H quadratic and cubic."""
    h = PolyMap([
        MSeries(2, INF, {(2, 0): Rat(1), (1, 1): Rat(-1, 2)}),
        MSeries(2, INF, {(0, 2): Rat(1, 3), (2, 1): Rat(2)}),
    ])
    return MapF(h)


def _t_and_s_compose():
    """V = F_t o G_{t+s} of Prop. 3.10, composed in the parameters t, s."""
    f = _catalan2()
    n_t = deformation_inverse(f, 4).n_t.with_params(1)
    n_ts = PolyMap(c.subst_param_sum(0, 1) for c in n_t)  # N_{t+s}
    ident = PolyMap.identity(f.n, nparams=2)
    f_t = ident - f.h.with_params(2).shift_param(0)
    return f_t.compose(ident + n_ts.shift_param(0) + n_ts.shift_param(1), cap=4)


@pytest.mark.parametrize("run", [
    # Laurent expansions: negative exponents and negative degrees
    lambda: laurent_inv_power(_catalan2(), (2, 1), 3),
    lambda: jacobi_coefficient(_catalan2(), 1, (2, 2)),
    # one- and two-parameter series of the t and s family
    _t_and_s_compose,
], ids=["laurent_inv_power", "jacobi_coefficient", "prop310"])
def test_degrees_read_off_keys_are_the_exponents(run):
    with stored_views() as stored:
        run()
    assert stored
    for s in stored:
        assert_view_is_packed_terms(s)


def test_degree_read_guards_the_widths():
    """Both sides of the guard: a span that forces a width above the
    default, and 16-bit keys whose degrees n * span exceed what their
    fields tell, so the degrees come from the decoded exponents."""
    with stored_views() as stored:
        wide = MSeries(2, INF, {(2**19, -3): Rat(1, 3)}).mul(MSeries(2, INF, {(1, 0): 1}))
        s = MSeries(3, INF, {(12000,) * 3: Rat(1, 3)})
        deep = s.mul(MSeries(3, INF, {(0, 0, 0): 1, (0, 1, 0): 1}))
    assert (wide._view.width > packed.WIDTH, wide._view.degs) == (True, [2**19 - 2])
    assert (deep._view.width, deep._view.degs) == (packed.WIDTH, [36000, 36001])
    assert deep.terms == {(12000,) * 3: Rat(1, 3), (12000, 12001, 12000): Rat(1, 3)}
    for s in stored:
        assert_view_is_packed_terms(s)


def view_only(s):
    """A series equal to `s`, stored as the view ``_pack`` builds."""
    return series._stored(s.n, s.trunc, s.nparams, series._pack(s.terms, s.n, s.nparams))


def terms_only(s):
    """A series equal to `s`, built by the constructor from its terms."""
    return MSeries(s.n, s.trunc, dict(s.terms), s.nparams)


@st.composite
def unary_operands(draw):
    """A series in 1-3 variables with 0-2 parameters, exact or truncated
    at -2..6, Laurent in some cases, sometimes with exponents beyond the
    default field width; coprime and 100+-bit denominators."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    entry = st.integers(draw(st.sampled_from([0, -2])), 3)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.sampled_from(HUGE))
    exps = st.tuples(*[entry] * (n + p))
    trunc = draw(st.one_of(st.just(INF), st.integers(-2, 6)))
    terms = draw(st.dictionaries(exps, KERNEL_COEFFS, max_size=6))
    return MSeries(n, trunc, {e: c for e, c in terms.items() if zdeg(e, n) <= trunc}, p)


def unit(size, i, k=1):
    return tuple(k if j == i else 0 for j in range(size))


@st.composite
def unary_ops(draw, s):
    """(name, op, reference): an op of ``MSeries`` that runs on the packed
    rows, and what it gives as (terms, trunc) on the terms with ``Rat``s."""
    n, p, size = s.n, s.nparams, s.n + s.nparams

    def moved(terms, exp, weight=lambda e: 1):
        return {tuple(x + y for x, y in zip(e, exp)): c * weight(e) for e, c in terms.items() if weight(e)}

    c = draw(st.one_of(KERNEL_COEFFS, st.sampled_from([1, -1, 3, -4])))  # int factors too
    exp = draw(st.tuples(*[st.integers(-3, 3)] * size))
    degree = draw(st.integers(-3, 7))
    i = draw(st.integers(0, n - 1))
    shift = lambda t, d: t if t == INF else t + d
    ops = [
        ("neg", lambda s: -s, lambda t: ({e: -v for e, v in t.items()}, s.trunc)),
        ("scale", lambda s: s.scale(c), lambda t: ({e: v * c for e, v in t.items()}, s.trunc)),
        ("mul_monomial", lambda s: s.mul_monomial(exp),
         lambda t: (moved(t, exp), shift(s.trunc, sum(exp[:n])))),
        ("truncate", lambda s: s.truncate(degree),
         lambda t: ({e: v for e, v in t.items() if zdeg(e, n) <= degree}, min(degree, s.trunc))),
        ("diff", lambda s: s.diff(i),
         lambda t: (moved(t, unit(size, i, -1), lambda e: e[i]), shift(s.trunc, -1))),
    ]
    if p:
        j, k = draw(st.integers(0, p - 1)), draw(st.integers(-2, 3))
        ops += [
            ("pdiff", lambda s: s.pdiff(j),
             lambda t: (moved(t, unit(size, n + j, -1), lambda e: e[n + j]), s.trunc)),
            ("shift_param", lambda s: s.shift_param(j, k),
             lambda t: (moved(t, unit(size, n + j, k)), s.trunc)),
        ]
    return draw(st.sampled_from(ops))


def assert_coefficients_are_the_terms(s):
    """``coefficient`` reads what ``terms`` holds: at every stored exponent,
    at every exponent one unit moved from it between two z or two
    parameter positions (the same z-degree), and at one whose key, packed
    at the view's width, would carry onto a stored key."""
    terms, n, size, w = s.terms, s.n, s.n + s.nparams, s._view.width
    near = {
        tuple(x + (k == i) - (k == j) for k, x in enumerate(e))
        for e in terms
        for i in range(size)
        for j in range(size)
        if (i < n) == (j < n)
    }
    if size >= 3:  # (2^w, -1 - 2^w, 1) packs to the key of 0
        near |= {(e[0] + 2**w, e[1] - 1 - 2**w, e[2] + 1) + e[3:] for e in terms}
    for e in near:
        assert s.coefficient(e) == terms.get(e, 0), e


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unary_ops_agree_in_either_form(data):
    s = data.draw(unary_operands())
    name, op, reference = data.draw(unary_ops(s))
    want_terms, want_trunc = reference(s.terms)
    assert_coefficients_are_the_terms(s)
    as_view, as_terms = view_only(s), terms_only(s)
    before = (list(as_view._view.rows), dict(as_terms.terms))
    with stored_views() as stored:
        results = [op(as_view), op(as_terms)]
    for r in results:
        assert (r.terms, r.trunc, r.n, r.nparams) == (want_terms, want_trunc, s.n, s.nparams), name
        assert no_zero_coefficient(r.terms)
    assert (as_view._view.rows, as_view.terms, as_terms.terms) == (before[0], s.terms, before[1])
    for r in stored:
        assert_view_is_packed_terms(r)


@SETTINGS
@given(series_pairs(), st.booleans(), st.integers(0, 8))
def test_comparisons_agree_in_either_form(pair, same, degree):
    a, b = pair
    if same:
        b = terms_only(a)
    forms = (view_only, terms_only)
    answers = {
        (x == y, first_mismatch([(x, y)], degree), first_asymmetry([[x, y], [x, x]]))
        for fa in forms
        for fb in forms
        for x, y in [(fa(a), fb(b))]
    }
    assert len(answers) == 1
    assert (a == b) == (a.terms == b.terms)
    assert (first_asymmetry([[a, b], [a, a]]) is None) == (a.terms == b.terms)


def naive_first_mismatch(pairs, through):
    """``first_mismatch`` on dicts of ``Rat``s."""
    for i, (a, b) in enumerate(pairs):
        degree = min(a.trunc, b.trunc) if through is None else through
        da, db = ({e: c for e, c in s.terms.items() if zdeg(e, s.n) <= degree} for s in (a, b))
        differ = [e for e in da.keys() | db.keys() if da.get(e, 0) != db.get(e, 0)]
        if differ:
            e = min(differ, key=lambda e: (zdeg(e, a.n), e))
            return i, f"exponent {e}: {da.get(e, Rat(0))} vs {db.get(e, Rat(0))}"
    return None


@st.composite
def comparison_pairs(draw):
    """1-3 exact pairs (a, b) of one layout, and a degree of -2..6 or None
    (each pair's lesser truncation).  b is a with one coefficient changed
    or a term added, or both or neither; an added term above the degree
    still changes b's denominator, and one with an exponent beyond the
    default field width its width."""
    n, p = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    exps = st.tuples(*[st.one_of(st.integers(-1, 3), st.sampled_from(HUGE))] * (n + p))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exps, KERNEL_COEFFS, max_size=5))
        other = dict(terms)
        if terms and draw(st.booleans()):
            other[draw(st.sampled_from(sorted(terms)))] = draw(KERNEL_COEFFS)
        if draw(st.booleans()):
            other[draw(exps)] = draw(KERNEL_COEFFS)
        pairs.append((MSeries(n, INF, terms, p), MSeries(n, INF, other, p)))
    return pairs, draw(st.one_of(st.none(), st.integers(-2, 6)))


@settings(max_examples=100, deadline=None)
@given(comparison_pairs())
def test_first_mismatch_matches_rat_dicts(data):
    pairs, through = data
    assert first_mismatch(pairs, through) == naive_first_mismatch(pairs, through)


@SETTINGS
@given(series_pairs(), compositions())
def test_kernel_leaves_its_operands_unchanged(pair, data):
    a, b = pair
    f, g, cap = data
    before = [dict(s.terms) for s in (a, b, f, *g.components)]
    product, composed = a.mul(b), compose(f, g, cap=cap)
    dotted = dot([(a, b), (b, a), (a, a)], cap=cap)
    assert [s.terms for s in (a, b, f, *g.components)] == before
    assert a.mul(b) == product
    assert compose(f, g, cap=cap) == composed
    assert dot([(a, b), (b, a), (a, a)], cap=cap) == dotted


@SETTINGS
@given(param_series(), st.sampled_from([Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-1, 2)]))
def test_eval_param_matches_naive(s, value):
    """Exact on negative parameter exponents too, where the value 0 raises
    as it does with ``Rat``s."""
    pos = s.n
    want = {}
    try:
        for e, c in s.terms.items():
            e2 = e[:pos] + e[pos + 1 :]
            want[e2] = want.get(e2, 0) + c * value ** e[pos]
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            s.eval_param(0, value)
        return
    r = s.eval_param(0, value)
    assert no_zero_coefficient(r.terms)
    assert all(isinstance(c, Rat) for c in r.terms.values())
    assert r.terms == {e: c for e, c in want.items() if c}


@SETTINGS
@given(param_series())
def test_subst_param_sum_matches_naive(s):
    """A negative exponent of the parameter substituted has no polynomial
    expansion, and raises."""
    if s.nparams < 2:
        s = s.with_params(1)
    pj, pk = s.n, s.n + 1
    if any(e[pj] < 0 for e in s.terms):
        with pytest.raises(SubstitutionError):
            s.subst_param_sum(0, 1)
        return
    r = s.subst_param_sum(0, 1)
    assert no_zero_coefficient(r.terms)
    want = {}
    for e, c in s.terms.items():
        a = e[pj]
        for k in range(a + 1):
            e2 = list(e)
            e2[pj], e2[pk] = a - k, e[pk] + k
            want[tuple(e2)] = want.get(tuple(e2), 0) + c * math.comb(a, k)
    assert r.terms == {e: c for e, c in want.items() if c}


@SETTINGS
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(exponents(n, 0), st.sampled_from([0, 1, -1, 2, "1/2", "-1/2"])),
                max_size=10,
            ),
        )
    )
)
def test_series_from_terms_sums_duplicates(data):
    n, items = data
    s = series_from_terms(n, INF, items)
    assert no_zero_coefficient(s.terms)
    want = {}
    for e, c in items:
        want[e] = want.get(e, 0) + Rat(c)
    assert s.terms == {e: c for e, c in want.items() if c}
    cancelled = series_from_terms(n, INF, items + [(e, -c) for e, c in want.items()])
    assert cancelled.is_zero()
