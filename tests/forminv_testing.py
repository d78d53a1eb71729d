"""Plain helpers shared by the test files: series built from monomials or
term dicts, terms through a degree, random series and a tree's parent
list.  The fixtures stay in ``conftest.py``; this module has its own name
so that no other ``conftest`` module on the path can shadow it."""

from forminv import MSeries
from forminv.rat import Rat


def mono(n, exp, c=1, trunc=None):
    import math

    return MSeries.monomial(n, exp, c, math.inf if trunc is None else trunc)


def series(n, terms, trunc=None):
    """terms: {exp: coeff}"""
    import math

    t = math.inf if trunc is None else trunc
    out = MSeries.zero(n, t)
    for e, c in terms.items():
        out = out + MSeries.monomial(n, e, c, t)
    return out


def terms_through(s, degree):
    """The terms of `s` of z-degree at most `degree`."""
    return {e: c for e, c in s.terms.items() if s.zdeg(e) <= degree}


def parent_list(tree):
    """The parent of each vertex of a ``RootedTree`` in preorder: the root
    is vertex 0, with parent -1."""
    parents = [-1]

    def walk(t, index):
        for c in t.children:
            parents.append(index)
            walk(c, len(parents) - 1)

    walk(tree, 0)
    return parents


def random_series(rng, n, max_deg=3, max_terms=4, min_deg=0, trunc=None):
    import math

    pool = [Rat(-2), Rat(-1), Rat(1), Rat(2), Rat(1, 2), Rat(-1, 2), Rat(3)]
    t = math.inf if trunc is None else trunc
    out = MSeries.zero(n, t)
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(min_deg, max_deg)
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        out = out + MSeries.monomial(n, tuple(exp), rng.choice(pool), t)
    return out
