"""Formal inversion of canonical maps F = z - H, o(H) >= 2.

Five independent algorithms compute the inverse G (F(G) = G(F) = z):

* ``fixed``     - graded fixed-point passes G <- z + H(G), each certifying
                  o(H) - 1 more degrees, and a final pass at the working
                  degree that must reproduce G; the reference oracle,
                  needing nothing but composition.
* ``recurrent`` - graded layers N_[1] = H,
                  N_[m] = 1/(m-1) * sum_{k+l=m} JN_[k] . N_[l],
                  G = z + sum_m N_[m].
* ``homog``     - differential-free recurrence through the symmetric
                  d-linear form B with B(z,...,z) = H; homogeneous H only.
* ``ag``        - the residue-free derivative expansion
                  G_i = sum_m (D^m / m!) (z_i j(F) H^m).
* ``bcw``       - the rooted-tree expansion G = z + sum_T P_T.

plus two coefficient-at-a-time formulas (``jacobi`` via formal residues,
``lagrange`` via the product form, applicable when z_i | H_i).

Truncation cutoffs are finite consequences of the order estimates
o(N_[m]) >= m+1, o(P_T) >= |T|+1 and o(H^m) >= 2|m|; each method states its
cutoff next to the loop that applies it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DivisibilityError,
    HomogeneityError,
    MethodDisagreement,
    TruncationError,
)
from .laurent import laurent_inv_power, residue
from .rat import ONE, Rat, ZERO
from .series import (
    INF,
    MapF,
    MSeries,
    PolyMap,
    first_mismatch,
    jacobian_det,
    mat_vec,
    series_det,
    series_sum,
    unit_inverse,
)
from .trees import tree_sums


# -- fixed-point oracle --------------------------------------------------------


def invert_fixed_point(f: MapF, degree: int) -> PolyMap:
    """Inverse through `degree` by iterating G <- z + H(G) in graded passes.

    With o = o(H) >= 2, G = z + H(G) agrees with z through degree o - 1,
    and o(H(G + delta) - H(G)) >= o(delta) + o - 1: a pass fed G exact
    through degree t returns it exact through t + o - 1.  Composition
    certifies just that, so each pass caps its power table at the degree
    it can prove, and the precision grows by the certified operations
    alone.  The loop ends at the first pass that certifies no new degree:
    a pass at `degree`, or at H's own truncation when that is lower.  That
    pass must reproduce G term for term, so the oracle still checks its
    own fixed point.

    This replaced running every pass at the full cap `degree`; the number
    of passes is the same.  Median of five interleaved runs, 2-vCPU Xeon,
    `fractions` backend: 40 maps z - H, n=1, H of 2-3 monomials of degrees
    2..5, at D=30, 6.31 s before, 2.68 s after; 40 maps with n=3 cubic H
    of 6-12 monomials, at D=7, 0.43 s before, 0.36 s after.
    """
    ident = PolyMap.identity(f.n, trunc=INF)
    order = min(c.known_order for c in f.h.components)
    g = PolyMap.identity(f.n, trunc=min(order - 1, degree))
    while True:
        nxt = ident + f.h.compose(g, cap=degree)
        if nxt.trunc <= g.trunc:
            break
        g = nxt
    diff = first_mismatch(zip(g.components, nxt.components))
    if diff is not None:
        i, exp, va, vb = diff
        raise MethodDisagreement(
            f"fixed-point pass at degree {nxt.trunc} changed component "
            f"{i + 1}, exponent {exp}: {va} -> {vb}"
        )
    return g


# -- graded layers -------------------------------------------------------------


@dataclass(frozen=True)
class GradedInverse:
    """Layers N_[1], ..., N_[M] with o(N_[m]) >= m+1 and, for polynomial H,
    deg N_[m] <= (deg H - 1)m + 1.  Summing the layers on top of z gives the
    inverse.

    The same layers, t-graded, give the inverse family of the deformation
    F_t = z - tH: G_t = z + t N_t with N_t = sum_m t^{m-1} N_[m], carried
    as one series with the parameter t in its exponents (`n_t`, built on
    first use)."""

    h: PolyMap
    layers: tuple
    trunc: float

    def layer(self, m: int) -> PolyMap:
        """1-based layer access; layers beyond the computed range are zero
        through the certified truncation."""
        if m < 1:
            raise IndexError("layers are indexed from 1")
        if m <= len(self.layers):
            return self.layers[m - 1]
        return PolyMap.zero(self.h.n, self.trunc)

    def inverse_map(self) -> PolyMap:
        ident = PolyMap.identity(self.h.n, trunc=self.trunc)
        return PolyMap(map(series_sum, zip(ident, *self.layers))).truncate(self.trunc)

    @cached_property
    def n_t(self) -> PolyMap:
        """sum_m t^{m-1} N_[m], with one parameter (t)."""
        trunc = min((layer.trunc for layer in self.layers), default=self.trunc)
        zero = PolyMap.zero(self.h.n, trunc, nparams=1)
        graded = [u.with_params(1).shift_param(0, m) for m, u in enumerate(self.layers)]
        return PolyMap(map(series_sum, zip(zero, *graded)))

    def f_t(self) -> PolyMap:
        """z - t H."""
        ident = PolyMap.identity(self.h.n, trunc=self.h.trunc, nparams=1)
        return ident - self.h.with_params(1).shift_param(0)

    def g_t(self) -> PolyMap:
        """z + t N_t."""
        ident = PolyMap.identity(self.h.n, trunc=self.trunc, nparams=1)
        return ident + self.n_t.shift_param(0)

    def at(self, t_value) -> PolyMap:
        """G_t for a concrete rational t."""
        return self.g_t().eval_param(0, t_value)


def recurrent_layers(h: PolyMap, count: int, cap=None) -> list[PolyMap]:
    """N_[1] = H; N_[m] = 1/(m-1) sum_{k+l=m, k,l>=1} JN_[k] . N_[l].

    With cap=None and polynomial H the layers are exact polynomials."""
    if count < 1:
        return []
    layers = [h if cap is None else h.truncate(cap)]
    jacs = []
    for m in range(2, count + 1):
        jacs.append(layers[-1].jacobian())
        terms = (mat_vec(jacs[k - 1], layers[m - k - 1], cap=cap) for k in range(1, m))
        layers.append(PolyMap(map(series_sum, zip(*terms))).scale(Rat(1, m - 1)))
    return layers


def invert_recurrent(f: MapF, degree: int) -> GradedInverse:
    """Layers m <= degree-1 suffice: o(N_[m]) >= m+1, so later layers sit
    entirely above the working degree."""
    layers = recurrent_layers(f.h, degree - 1, cap=degree)
    return GradedInverse(f.h, tuple(layers), degree)


# -- homogeneous recurrence via the symmetric multilinear form ------------------


def _arrangements(alpha):
    """The distinct orderings of the variable multiset of z^alpha, as
    tuples of variable indices; there are |alpha|! / alpha! of them."""
    if not any(alpha):
        yield ()
        return
    for k, a in enumerate(alpha):
        if a:
            rest = alpha[:k] + (a - 1,) + alpha[k + 1 :]
            for tail in _arrangements(rest):
                yield (k,) + tail


class BForm:
    """The symmetric d-linear form of a homogeneous degree-d map H,
    normalized so that B(z, ..., z) = H(z).

    Evaluation is a sum over slot assignments.  Writing
    H_i = sum_a h_{i,a} z_{a_1} ... z_{a_d} over ordered index tuples a,
    with h_{i,a} = c_alpha alpha! / d! for the monomial c_alpha z^alpha
    that a orders,

        B(U^1, ..., U^d)_i = sum_a h_{i,a} U^1_{a_1} ... U^d_{a_d}.

    The tuples are kept as a prefix tree, so a product U^1_{a_1} ... U^k_{a_k}
    is formed once for every tuple that extends it: at most
    n^2 + ... + n^d series products per call (36 for a cubic in 3
    variables), and no composition.  Each full product, times h_{i,a}, is
    a part of one `series_sum` per output component i it feeds.

    Because B is multilinear, the sum is finite for any arguments;
    arguments with a constant term are accepted.  Each output component
    claims the least certified truncation among its products (`cap` when
    the arguments are exact, INF with no cap).

    This replaced polarization, which ran the 2^d - 1 compositions
    H(sum_{j in S} U^j) and cancelled them by inclusion-exclusion.
    `invert_homogeneous` on the dense cubic of acceptance test A10 (n=3),
    median of three interleaved runs, 2-vCPU Xeon, `fractions` backend:
    D=8 849 ms before, 37 ms after; D=10 3186 ms before, 153 ms after.
    """

    def __init__(self, h: PolyMap):
        d = h.homogeneous_degree()
        if d is None or d < 2:
            raise HomogeneityError(
                "the multilinear form needs a homogeneous map of degree >= 2"
            )
        if h.nparams:
            raise DimensionMismatch("the multilinear form takes H without parameters")
        self.h = h
        self.d = d
        self.n = h.n
        # prefix tree over a_1, ..., a_d; a leaf lists (i, h_{i,a})
        self._tree: dict = {}
        dfact = math.factorial(d)
        for i, comp in enumerate(h.components):
            for alpha, c in comp.terms.items():
                weight = c * Rat(math.prod(map(math.factorial, alpha)), dfact)
                for a in _arrangements(alpha):
                    node = self._tree
                    for k in a[:-1]:
                        node = node.setdefault(k, {})
                    node.setdefault(a[-1], []).append((i, weight))

    def apply(self, args: Sequence[PolyMap], cap=None) -> PolyMap:
        if len(args) != self.d:
            raise DimensionMismatch(
                f"form of arity {self.d} applied to {len(args)} arguments"
            )
        args = [u if isinstance(u, PolyMap) else PolyMap(u) for u in args]
        for u in args:
            if u.n != self.n or u.nparams:
                raise DimensionMismatch(
                    f"form on n={self.n} applied to a map with n={u.n}, "
                    f"{u.nparams} parameters"
                )
        limit = INF if cap is None else cap
        parts = [[MSeries.zero(self.n, limit)] for _ in range(self.n)]

        def walk(node, slot, prefix):
            for k, child in node.items():
                comp = args[slot].components[k]
                p = comp if prefix is None else prefix.mul(comp, cap=cap)
                if slot + 1 < self.d:
                    walk(child, slot + 1, p)
                    continue
                for i, w in child:
                    parts[i].append(p.scale(w))

        walk(self._tree, 0, None)
        return PolyMap(map(series_sum, parts))


def b_form_apply(form: BForm, args: Sequence[PolyMap], cap=None) -> PolyMap:
    return form.apply(args, cap=cap)


def invert_homogeneous(f: MapF, degree: int) -> GradedInverse:
    """Differential-free recurrence for homogeneous H of degree d >= 2:
    N_[0] = z, N_[1] = H,
    N_[m+1] = sum over d-tuples k_1 + ... + k_d = m of B(N_[k_1], ..., N_[k_d]).

    Layer m is homogeneous of degree (d-1)m + 1, so for a working degree D
    only layers with (d-1)m + 1 <= D are needed.  Tuples are grouped by
    sorted multiset (the form is symmetric) with multinomial multiplicity.
    """
    form = BForm(f.h)
    d = form.d
    by_index = [PolyMap.identity(f.n, trunc=INF), f.h]  # N_[0], N_[1]
    for m in range(1, max((degree - 1) // (d - 1), 1)):
        vals = []
        for multiset in combinations_with_replacement(range(m + 1), d):
            if sum(multiset) != m:
                continue
            runs = Counter(multiset).values()
            mult = math.factorial(d) // math.prod(map(math.factorial, runs))
            vals.append(form.apply([by_index[k] for k in multiset]).scale(mult))
        by_index.append(PolyMap(map(series_sum, zip(*vals))))
    return GradedInverse(f.h, tuple(by_index[1:]), degree)


# -- derivative expansion --------------------------------------------------------


def _graded_exponents(n, max_total):
    def of_degree(vars_left, total):
        if vars_left == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in of_degree(vars_left - 1, total - first):
                yield (first,) + rest

    for total in range(max_total + 1):
        yield from of_degree(n, total)


def invert_abhyankar_gurjar(f: MapF, degree: int) -> PolyMap:
    """G_i = sum over multi-indices m of (D^m / m!) (z_i j(F) H^m).

    Multiplying by z_i and taking |m| derivatives lowers degree by |m| - 1,
    so only degrees <= degree + |m| - 1 of j(F) H^m reach the working
    degree; H^m and j(F) H^m are capped there, built incrementally in
    graded order.  Since o(H^m) >= 2|m|, indices with |m| >= degree
    contribute nothing and the sum stops at |m| = degree - 1.
    """
    n = f.n
    jf = jacobian_det(f.map)
    parts = [[MSeries.zero(n, degree)] for _ in range(n)]
    powers = {(0,) * n: MSeries.const(n, ONE)}
    for m in _graded_exponents(n, degree - 1):
        total = sum(m)
        cap = degree + total - 1
        if total:
            i = next(j for j, k in enumerate(m) if k)
            prev = m[:i] + (m[i] - 1,) + m[i + 1 :]
            base = powers[prev]
            powers[m] = (
                MSeries.zero(n, cap)
                if base.is_zero()
                else base.mul(f.h.components[i], cap=cap)
            )
        hpow = powers[m]
        if hpow.is_zero():
            continue
        q = jf.mul(hpow, cap=cap)
        if q.is_zero():
            continue
        inv_mfact = Rat(1, math.prod(math.factorial(k) for k in m))
        for i in range(n):
            term = q.mul_monomial(_unit_exp(n, i))
            for axis, reps in enumerate(m):
                for _ in range(reps):
                    term = term.diff(axis)
            parts[i].append(term.scale(inv_mfact).truncate(degree))
    return PolyMap(map(series_sum, parts)).truncate(degree)


def _unit_exp(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# -- rooted-tree expansion ---------------------------------------------------------


def invert_bcw(f: MapF, degree: int) -> PolyMap:
    """G = z + sum over trees of P_T; since o(P_T) >= |T| + 1, only trees
    with at most degree-1 vertices contribute.  Isomorphic subtrees share
    their labeled sums through a common cache."""
    parts = [[z_i] for z_i in PolyMap.identity(f.n, trunc=degree)]
    for tree, sums in tree_sums(f.h, degree):
        w = Rat(1, tree.aut)
        for i, q in enumerate(sums):
            if not q.is_zero():
                parts[i].append(q.scale(w))
    return PolyMap(map(series_sum, parts)).truncate(degree)


# -- coefficient formulas -----------------------------------------------------------


def jacobi_coefficient(f: MapF, i: int, k: Sequence[int]) -> Rat:
    """[z^k] G_i as the formal residue of j(F) F^{-k-1} z_i."""
    n = f.n
    k = tuple(k)
    if len(k) != n or any(x < 0 for x in k):
        raise DimensionMismatch(f"bad coefficient index {k} for n={n}")
    if not 0 <= i < n:
        raise DimensionMismatch(f"component {i} out of range")
    weight = jacobian_det(f.map).mul_monomial(_unit_exp(n, i))
    total = sum(k)
    if weight.trunc < total:
        raise TruncationError(
            f"need j(F) z_i through degree {total}, certified {weight.trunc}"
        )
    expansion = laurent_inv_power(f, k, window=-n - 1)
    return residue(expansion.mul(weight, cap=-n))


def _quotient_by_variable(h: MSeries, i: int) -> MSeries:
    for e in h.terms:
        if e[i] < 1:
            raise DivisibilityError(
                f"H_{i+1} has a term {e} not divisible by z_{i+1}; "
                "the product-form coefficient formula does not apply "
                "(use jacobi_coefficient)"
            )
    return h.mul_monomial(tuple(-1 if j == i else 0 for j in range(h.n)))


def lagrange_coefficient(f: MapF, i: int, k: Sequence[int]) -> Rat:
    """[z^k] G_i by the product-form coefficient formula, for maps whose
    components satisfy z_i | H_i.  With h_i = H_i / z_i and
    f_i = 1/(1 - h_i):

        [z^k] G_i = [w^k] det(delta_ij - w_i f_i dh_i/dw_j) w_i f^k
    """
    n = f.n
    k = tuple(k)
    if len(k) != n or any(x < 0 for x in k):
        raise DimensionMismatch(f"bad coefficient index {k} for n={n}")
    if not 0 <= i < n:
        raise DimensionMismatch(f"component {i} out of range")
    work = sum(k)
    hs = [_quotient_by_variable(f.h.components[j], j) for j in range(n)]
    one = MSeries.const(n, ONE)
    fs = [unit_inverse((one - h).truncate(max(work, 0)), work) for h in hs]
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            entry = MSeries.const(n, ONE if r == c else ZERO)
            corr = fs[r].mul(hs[r].diff(c), cap=work).mul_monomial(_unit_exp(n, r))
            row.append(entry - corr.truncate(work))
        rows.append(row)
    det = series_det(rows, cap=work)
    expr = det.mul_monomial(_unit_exp(n, i))
    for j in range(n):
        for _ in range(k[j]):
            expr = expr.mul(fs[j], cap=work)
    return expr.terms.get(k, ZERO)


# -- registry and cross-checking -----------------------------------------------------


def _assemble_from_coefficients(f: MapF, degree: int, coeff: Callable) -> PolyMap:
    n = f.n
    comps = []
    for i in range(n):
        terms = {}
        for k in _graded_exponents(n, degree):
            c = coeff(f, i, k)
            if c:
                terms[k] = c
        comps.append(MSeries(n, degree, terms))
    return PolyMap(comps)


METHODS: dict[str, Callable[[MapF, int], PolyMap]] = {
    "fixed": invert_fixed_point,
    "recurrent": lambda f, d: invert_recurrent(f, d).inverse_map(),
    "homog": lambda f, d: invert_homogeneous(f, degree=d).inverse_map(),
    "ag": invert_abhyankar_gurjar,
    "bcw": invert_bcw,
    "jacobi": lambda f, d: _assemble_from_coefficients(f, d, jacobi_coefficient),
    "lagrange": lambda f, d: _assemble_from_coefficients(f, d, lagrange_coefficient),
}

# methods that return the whole inverse map at comparable cost; the
# coefficient formulas are opt-in since they recompute per coefficient
MAP_METHODS = ("fixed", "recurrent", "homog", "ag", "bcw")


def applicable_methods(f: MapF, names: Optional[Sequence[str]] = None) -> list[str]:
    """Filter a requested method list down to those whose preconditions the
    map satisfies (homogeneity for `homog`, divisibility for `lagrange`)."""
    names = list(names) if names is not None else list(MAP_METHODS)
    out = []
    d = f.h.homogeneous_degree()
    for name in names:
        if name not in METHODS:
            raise KeyError(f"unknown method {name!r}")
        if name == "homog" and (d is None or d < 2):
            continue
        if name == "lagrange" and not _lagrange_applicable(f):
            continue
        out.append(name)
    return out


def _lagrange_applicable(f: MapF) -> bool:
    return all(
        e[j] >= 1
        for j, comp in enumerate(f.h.components)
        for e in comp.terms
    )


@dataclass
class MethodRun:
    name: str
    millis: float
    terms: int


@dataclass
class CrossCheckReport:
    degree: int
    runs: list[MethodRun] = field(default_factory=list)
    inverse: Optional[PolyMap] = None

    def method_names(self):
        return [r.name for r in self.runs]

    def to_text(self) -> str:
        lines = [f"cross-check through degree {self.degree}:"]
        for r in self.runs:
            lines.append(f"  {r.name:10s} {r.millis:10.2f} ms  {r.terms} terms")
        lines.append(f"  methods agree: {', '.join(self.method_names())}")
        return "\n".join(lines)


def cross_check(
    f: MapF, degree: int, methods: Optional[Sequence[str]] = None
) -> CrossCheckReport:
    """Run the selected methods (default: every applicable whole-map
    method), require bit-identical inverses through `degree`, and verify
    F(G) = G(F) = z.  Raises MethodDisagreement naming the first differing
    coefficient otherwise."""
    names = applicable_methods(f, methods)
    if not names:
        raise ValueError("no applicable methods selected")
    report = CrossCheckReport(degree=degree)
    results: list[PolyMap] = []
    for name in names:
        start = time.perf_counter()
        g = METHODS[name](f, degree).truncate(degree)
        elapsed = (time.perf_counter() - start) * 1000.0
        report.runs.append(
            MethodRun(name, elapsed, sum(len(c.terms) for c in g.components))
        )
        results.append(g)
    base = results[0]
    for name, g in zip(names[1:], results[1:]):
        _require_equal(base, g, degree, names[0], name)
    fg = f.map.compose(base, cap=degree)
    if not fg.is_identity_through(degree):
        raise MethodDisagreement(
            f"F(G) differs from the identity through degree {degree}"
        )
    gf = base.compose(f.map, cap=degree)
    if not gf.is_identity_through(degree):
        raise MethodDisagreement(
            f"G(F) differs from the identity through degree {degree}"
        )
    report.inverse = base
    return report


def _require_equal(a: PolyMap, b: PolyMap, degree, name_a, name_b):
    diff = first_mismatch(zip(a.components, b.components), through=degree)
    if diff is not None:
        i, exp, va, vb = diff
        raise MethodDisagreement(
            f"methods {name_a!r} and {name_b!r} disagree at component "
            f"{i + 1}, exponent {exp}: {va} vs {vb}"
        )
