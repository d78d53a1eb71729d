"""Seeded map generators for the benchmark workloads.

They live here, not in ``forminv.randmaps``, so that edits to the library's
own generators cannot change what the benchmark measures.  Each generator
returns map documents as canonical JSON text built with nothing but
``fractions`` and ``json``: the program under test receives only these
documents.  The same seed always yields the same documents.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

POOL = tuple(
    Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "-1/3", "-2/3")
)


def monomials(n: int, d: int) -> list[tuple]:
    """All exponent vectors of total degree d in n variables, graded-lex."""
    return sorted(
        e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d
    )


def document(h: list[dict], degree: int) -> str:
    """The document of F = z - H in the wire format of ``forminv.mapdoc``.

    ``h`` holds one {exponent: Fraction} dict per component of H."""
    n = len(h)
    components = []
    for i, comp in enumerate(h):
        f = {e: -c for e, c in comp.items()}
        f[tuple(int(j == i) for j in range(n))] = Fraction(1)
        components.append(f)
    names = ["z"] if n == 1 else [f"z{i + 1}" for i in range(n)]
    payload = {
        "n": n,
        "vars": names,
        "D": degree,
        "components": [
            [
                {"exp": list(e), "c": str(c)}
                for e, c in sorted(comp.items(), key=lambda t: (sum(t[0]), t[0]))
            ]
            for comp in components
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def _component(rng: random.Random, support: list[tuple], count: int) -> dict:
    return {e: rng.choice(POOL) for e in rng.sample(support, count)}


# Job i's shape and monomial counts follow a fixed cycle in i; the seed
# draws the monomials and coefficients.  Every run then holds the same mix
# of shapes and sizes, which keeps cost differences between seeds small.


def wide_map(rng: random.Random, index: int) -> list[dict]:
    """n=3 homogeneous cubic, 2-4 of the 10 cubic monomials per component
    (component j of job i has 2 + (i + j) % 3)."""
    cubic = monomials(3, 3)
    return [_component(rng, cubic, 2 + (index + j) % 3) for j in range(3)]


DEEP_DEGREES = tuple(
    s for k in (2, 3) for s in itertools.combinations(range(2, 6), k)
)


def deep_map(rng: random.Random, index: int) -> list[dict]:
    """n=1, 2-3 monomials of distinct degrees among 2..5; job i uses the
    degree set DEEP_DEGREES[i % 10]."""
    return [{(d,): rng.choice(POOL) for d in DEEP_DEGREES[index % len(DEEP_DEGREES)]}]


IDENTITY_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (n, d)


def identities_map(rng: random.Random, index: int) -> list[dict]:
    """Homogeneous H of degree d in n variables, (n, d) = IDENTITY_SHAPES[i % 4],
    with 1-3 monomials per component (component j: 1 + (i // 4 + j) % 3)."""
    n, d = IDENTITY_SHAPES[index % len(IDENTITY_SHAPES)]
    support = monomials(n, d)
    return [_component(rng, support, 1 + (index // 4 + j) % 3) for j in range(n)]


def jacobi_probes(rng: random.Random, n: int, degree: int) -> list[tuple]:
    """Three (component, exponent) pairs whose inverse coefficient is also
    computed by the residue formula; one each at total degree 2, 4 and 6."""
    probes = []
    for total in (2, 4, degree):
        probes.append((rng.randrange(n), rng.choice(monomials(n, total))))
    return probes
