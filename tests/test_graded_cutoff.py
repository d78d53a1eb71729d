"""The graded cutoff: through degree D every graded loop stops at the
largest m with (o - 1)m + 1 <= D, o = o(H).

Everything past the cutoff is built here with the full loop, to degree
D - 1 as for o = 2, and must come out zero through D, certified so by the
ops; and the methods must return, in terms and truncation, what the full
loops return.  H is exact or has components cut at degrees 0..8,
including cuts that leave o(H) <= 1 certified.
"""

from contextlib import ExitStack
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from forminv import flow, inversion, trees
from forminv.errors import ForminvError
from forminv.inversion import (
    METHODS,
    _graded_exponents,
    invert_abhyankar_gurjar,
    invert_bcw,
    invert_recurrent,
    recurrent_layers,
)
from forminv.rat import ONE, Rat
from forminv.series import INF, MapF, MSeries, PolyMap
from forminv.trees import TreePolyCache, enumerate_trees, graded_cutoff

COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])


@st.composite
def graded_maps(draw):
    """(H, D): n <= 3, terms of degree o..o+2 for an o in 2..4, each
    component exact or cut at a degree 0..8, and D <= 8."""
    n = draw(st.integers(1, 3))
    o = draw(st.integers(2, 4))
    comps = []
    for _ in range(n):
        idx = st.lists(st.integers(0, n - 1), min_size=o, max_size=o + 2)
        exps = idx.map(lambda ks: tuple(ks.count(k) for k in range(n)))
        comp = MSeries(n, INF, draw(st.dictionaries(exps, COEFFS, max_size=3)))
        cut = draw(st.none() | st.integers(0, 8))
        comps.append(comp if cut is None else comp.truncate(cut))
    return PolyMap(comps), draw(st.integers(1, 8))


def full_loops():
    """Every graded loop run to degree - 1, the cutoff for o(H) = 2."""
    stack = ExitStack()
    for module in (trees, inversion):
        stack.enter_context(
            mock.patch.object(module, "graded_cutoff", lambda h, degree: max(degree - 1, 0))
        )
    return stack


def outcome(fn, *args):
    """The JSON report of fn(*args), or the error it raises."""
    try:
        return fn(*args).to_json()
    except ForminvError as exc:
        return type(exc).__name__, str(exc)


def same(a: PolyMap, b: PolyMap):
    assert [(c.trunc, c.terms) for c in a] == [(c.trunc, c.terms) for c in b]


CUBIC = PolyMap([MSeries(2, INF, {(2, 1): Rat(1)}), MSeries(2, INF, {(0, 3): Rat(-2)})])
CUT_LOW = PolyMap([MSeries(2, INF, {(3, 1): Rat(-2)}), MSeries(2, 0, {})])


@settings(max_examples=100, deadline=None)
@given(graded_maps())
@example((CUBIC, 7))
@example((CUT_LOW, 4))
@example((PolyMap([MSeries(1, INF, {})]), 5))
def test_skipped_grades_are_zero_and_change_nothing(case):
    h, degree = case
    n, top = h.n, graded_cutoff(h, degree)
    assert 0 <= top <= max(degree - 1, 0)

    # tree sums above the size bound
    cache = TreePolyCache(h, cap=degree)
    if degree >= 2:
        by_size = enumerate_trees(degree - 1)
        for size in range(top + 1, degree):
            for tree in by_size[size]:
                for i in range(n):
                    assert cache.labeled_root_sum(tree, i).known_zero(degree), tree

    # graded layers past the cutoff
    for layer in recurrent_layers(h, degree - 1, cap=degree)[top:]:
        assert all(c.known_zero(degree) for c in layer)

    # ag's powers H^m past the cutoff, built as ag builds them
    powers = {(0,) * n: MSeries.const(n, ONE)}
    for m in _graded_exponents(n, max(degree - 1, 0))[1:]:
        cap = degree + sum(m) - 1
        i = next(j for j, k in enumerate(m) if k)
        powers[m] = powers[m[:i] + (m[i] - 1,) + m[i + 1 :]].mul(h.components[i], cap=cap)
        if sum(m) > top:
            assert powers[m].known_zero(cap), m

    # the methods return what the full loops return
    runs = {
        "bcw": lambda: invert_bcw(MapF(PolyMap(h)), degree),
        "recurrent": lambda: METHODS["recurrent"](MapF(PolyMap(h)), degree),
        "deformation": lambda: invert_recurrent(MapF(PolyMap(h)), degree).n_t,
        "ag": lambda: invert_abhyankar_gurjar(MapF(PolyMap(h)), degree),
        "flow": lambda: flow.formal_flow(MapF(PolyMap(h)), degree).map,
    }
    cut = {name: run() for name, run in runs.items()}
    with full_loops():
        full = {name: run() for name, run in runs.items()}
    for name in runs:
        same(cut[name], full[name])
    if (h.homogeneous_degree() or 0) >= 2:
        euler = lambda: outcome(flow.check_euler_identities, PolyMap(h), degree)
        cut = euler()
        with full_loops():
            assert euler() == cut


def test_cutoff_follows_the_order():
    """(o - 1)m + 1 <= D for o = o(H), at most D - 1; o = INF gives 0 and
    o <= 1 counts as 2."""
    quad = PolyMap([MSeries(1, INF, {(2,): ONE})])
    quartic = PolyMap([MSeries(1, INF, {(4,): ONE})])
    assert [graded_cutoff(quad, d) for d in range(1, 9)] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert [graded_cutoff(CUBIC, d) for d in range(1, 9)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [graded_cutoff(quartic, d) for d in range(1, 9)] == [0, 0, 0, 1, 1, 1, 2, 2]
    assert graded_cutoff(PolyMap([MSeries(2, INF, {}), MSeries(2, INF, {})]), 8) == 0
    assert graded_cutoff(CUT_LOW, 6) == graded_cutoff(quad, 6) == 5
    # a zero component cut at 2 certifies o >= 3 only
    assert graded_cutoff(PolyMap([MSeries(1, 2, {})]), 7) == 3
