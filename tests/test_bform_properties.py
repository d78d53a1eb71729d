"""Property tests of the symmetric multilinear form against polarization.

The oracle is the inclusion-exclusion identity
d! B(U^1, ..., U^d) = sum over nonempty S of (-1)^{d-|S|} H(sum_{j in S} U^j),
written here from ``compose``, ``+`` and ``scale`` only.  ``BForm``
evaluates B from H's mixed partials instead, so the two share no code beyond
the series kernel.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from forminv.inversion import BForm
from forminv.rat import Rat
from forminv.series import INF, MSeries, PolyMap

SETTINGS = settings(max_examples=60, deadline=None)

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])


def monomials(n, lo, hi):
    """Exponents of z-degree lo..hi, drawn as lists of variable indices."""
    idx = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)
    return idx.map(lambda ks: tuple(ks.count(k) for k in range(n)))


def polys(n, lo, hi, min_size=0):
    """An exact polynomial with up to 3 terms of degree lo..hi."""
    pairs = st.lists(st.tuples(monomials(n, lo, hi), COEFFS), min_size=min_size, max_size=3)
    return pairs.map(lambda ps: MSeries(n, INF, dict(ps)))


@st.composite
def forms_and_args(draw):
    """A random homogeneous H (n in 1..3, degree d in 2..4) and d exact
    polynomial arguments without constant term."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 4))
    h = PolyMap([draw(polys(n, d, d, min_size=1 if i == 0 else 0)) for i in range(n)])
    args = [PolyMap([draw(polys(n, 1, 3)) for _ in range(n)]) for _ in range(d)]
    return h, args


def polarized(h, args, cap=None):
    d = len(args)
    total = None
    for mask in range(1, 1 << d):
        u = None
        for j in range(d):
            if mask >> j & 1:
                u = args[j] if u is None else u + args[j]
        val = h.compose(u, cap=cap)
        if (d - bin(mask).count("1")) % 2:
            val = val.scale(-1)
        total = val if total is None else total + val
    return total.scale(Rat(1, math.factorial(d)))


def through(terms, degree, n):
    return {e: c for e, c in terms.items() if sum(e[:n]) <= degree}


@SETTINGS
@given(forms_and_args(), st.one_of(st.none(), st.integers(0, 9)))
def test_apply_matches_polarization_on_exact_arguments(case, cap):
    h, args = case
    got = BForm(h).apply(args, cap=cap)
    want = polarized(h, args, cap)
    for g, w in zip(got.components, want.components):
        assert g.terms == w.terms
        assert g.trunc == w.trunc == (INF if cap is None else cap)


@SETTINGS
@given(
    forms_and_args(),
    st.lists(st.integers(1, 5), min_size=4, max_size=4),
    st.one_of(st.none(), st.integers(0, 9)),
)
def test_truncated_arguments_claim_nothing_unknown(case, degrees, cap):
    h, args = case
    cut = [u.truncate(deg) for u, deg in zip(args, degrees)]
    got = BForm(h).apply(cut, cap=cap)
    exact = polarized(h, args)
    old_rule = polarized(h, cut, cap)
    for g, e, old in zip(got.components, exact.components, old_rule.components):
        if cap is not None:
            assert g.trunc <= cap
        assert g.terms == through(e.terms, g.trunc, h.n)
        assert g.trunc >= old.trunc


@st.composite
def truncated_forms(draw):
    """A homogeneous H of degree d (n in 1..3, d in 2..4), each component
    exact or truncated at some T >= d."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 4))
    comps = []
    for i in range(n):
        comp = draw(polys(n, d, d, min_size=1 if i == 0 else 0))
        trunc = draw(st.one_of(st.just(INF), st.integers(d, d + 3)))
        comps.append(MSeries(n, trunc, comp.terms))
    return PolyMap(comps)


@SETTINGS
@given(truncated_forms())
@example(PolyMap([MSeries(1, 3, {(2,): Rat(1)})]))  # z^2 known through 3
def test_diagonal_is_h_with_its_truncation(h):
    # B(z, ..., z) = H: the d-th partials of H certify H's own truncation
    got = BForm(h).apply([PolyMap.identity(h.n)] * h.homogeneous_degree())
    for g, comp in zip(got.components, h.components):
        assert g.terms == comp.terms
        assert g.trunc == comp.trunc
