"""Plain helpers shared by the test files: series built from monomials or
term dicts, terms through a degree, random series, a tree's parent list,
every label multiset, and seeded pseudo-random canonical maps.  The
fixtures stay in ``conftest.py``; this module has its own name so that no
other ``conftest`` module on the path can shadow it."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from forminv.rat import Rat
from forminv.series import INF, MapF, MSeries, PolyMap


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


def every_multiset(cache, size):
    """Every sorted label tuple of length `size` over the cache's variables:
    patched in for ``TreePolyCache.live``, it gives the unrestricted fold
    that the live multisets must reproduce."""
    return set(combinations_with_replacement(range(cache.n), size))


# -- seeded pseudo-random canonical maps ----------------------------------------
# Coefficients come from a small exact pool; terms have total degree between
# 2 and a bound, so every generated H satisfies o(H) >= 2 and the map z - H
# is canonical by construction.


DEFAULT_POOL = (
    Rat(-2), Rat(-1), Rat(1), Rat(2), Rat(1, 2), Rat(-1, 2),
)

CORPUS_SEED = 20260809


def _random_exponent(rng: random.Random, n: int, degree: int) -> tuple:
    cuts = sorted(rng.randrange(n) for _ in range(degree))
    exp = [0] * n
    for c in cuts:
        exp[c] += 1
    return tuple(exp)


def random_h(
    rng: random.Random,
    n: int,
    max_deg: int = 4,
    max_terms: int = 4,
    pool: Sequence = DEFAULT_POOL,
    homogeneous_degree: Optional[int] = None,
) -> PolyMap:
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            deg = (
                homogeneous_degree
                if homogeneous_degree is not None
                else rng.randint(2, max_deg)
            )
            exp = _random_exponent(rng, n, deg)
            terms[exp] = rng.choice(pool)
        comps.append(MSeries(n, INF, {e: c for e, c in terms.items() if c}))
    return PolyMap(comps)


def random_map(rng: random.Random, n: int, max_deg: int = 4, **kw) -> MapF:
    return MapF(random_h(rng, n, max_deg, **kw))


def random_divisible_map(rng: random.Random, n: int, max_deg: int = 4) -> MapF:
    """Maps with z_i | H_i for every i (the product-form formula's case):
    H_i = z_i * h_i with h_i of order >= 1."""
    comps = []
    for i in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, max_deg - 1)
            exp = list(_random_exponent(rng, n, deg))
            exp[i] += 1
            terms[tuple(exp)] = rng.choice(DEFAULT_POOL)
        comps.append(MSeries(n, INF, {e: c for e, c in terms.items() if c}))
    return MapF(PolyMap(comps))


def acceptance_corpus(count: int = 50, seed: int = CORPUS_SEED) -> list[MapF]:
    """The fixed seeded corpus used across the acceptance suite:
    n in {1,2,3}, deg H <= 4, o(H) >= 2, coefficients in
    {-2..2} u {1/2, -1/2}."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((1, 2, 3))
        out.append(random_map(rng, n))
    return out
