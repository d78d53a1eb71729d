"""Formal inversion of canonical maps F = z - H, o(H) >= 2.

Seven methods compute the two-sided inverse G (F(G) = G(F) = z):

* ``fixed``     - the fixed point G = z + H(G): Newton steps double the
                  exact degree of a polynomial candidate, and one plain
                  pass z + H(G), certified by composition alone, must
                  reproduce it; the reference oracle.
* ``recurrent`` - graded layers N_[1] = H,
                  N_[m] = 1/(m-1) * sum_{k+l=m} JN_[k] . N_[l],
                  G = z + sum_m N_[m]; for exact H with symmetric JH
                  (a gradient, H = grad P) the layers are N_[m] = grad Q_[m]
                  of one scalar potential, by the Burgers recurrence
                  (m-1) Q_[m] = 1/2 sum_{k+l=m} N_[k] . N_[l].
* ``homog``     - differential-free recurrence through the symmetric
                  d-linear form B with B(z,...,z) = H; homogeneous H only.
* ``ag``        - the residue-free derivative expansion
                  G_i = sum_m (D^m / m!) (z_i j(F) H^m).
* ``bcw``       - the rooted-tree expansion G = z + sum_T P_T.
* ``jacobi``, ``lagrange`` - the formal-residue and product-form
                  coefficient formulas (``_formula_map``), one product per
                  exponent; ``lagrange`` needs z_i | H_i.

Truncation cutoffs are finite consequences of the order estimates
o(N_[m]) >= (o-1)m + 1, o(P_T) >= (o-1)|T| + 1 and o(H^m) >= o|m|, where
o = o(H) >= 2: through degree D each graded loop stops at the largest m
with (o-1)m + 1 <= D (``trees.graded_cutoff``), where everything past it
is zero through D.  For quadratic H that is m = D - 1; for cubic H about
half of it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DivisibilityError,
    ForminvError,
    HomogeneityError,
    MethodDisagreement,
)
from .rat import ONE, Rat
from .series import (
    INF,
    MapF,
    MSeries,
    PolyMap,
    compose_map_components,
    dot,
    first_asymmetry,
    first_mismatch,
    inverse_powers,
    jacobian_det,
    mat_mul,
    mat_vec,
    series_det,
    series_sum,
    taylor_sums,
    unit_inverse,
)
from .trees import TreePolyCache, graded_cutoff, tree_expansion, tree_sums


# -- fixed-point oracle --------------------------------------------------------


def newton_inverse(a, m, cap):
    """One Newton step M + M(I - A M) toward the inverse of the square
    matrix `a` of series, capped at `cap`, as exact polynomials.  If M is
    A^{-1} through p, the step squares the error I - A M, so the result is
    A^{-1} through min(2p + 1, cap): a lemma the ops cannot certify, so
    ``invert_fixed_point`` certifies what it builds from M by one plain
    pass."""
    am = mat_mul(a, m, cap)
    e = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(am)]
    return [
        [(x + y).as_exact() for x, y in zip(row, fix)]
        for row, fix in zip(m, mat_mul(m, e, cap))
    ]


def invert_fixed_point(f: MapF, degree: int) -> PolyMap:
    """Inverse through `degree` as the fixed point G = z + H(G): Newton
    steps build a polynomial candidate G^, and one plain pass certifies it.

    With o = o(H) >= 2, G^ = z equals G through t = o - 1.  A step sets
    G^ <- G^ + M r, capped at s = min(2t + o - 1, top), with
    r = z + H(G^) - G^ and M = (I - JH(G^))^{-1} through s - t - 1.  M is
    kept across steps and refreshed when short by one matrix Newton step
    (``newton_inverse``) on I - JH(G^), composed at cap s - t - 1: from
    M = I, exact through o - 2, that doubles it as far as the next step
    needs.  With t the candidate's exact degree after the last step, the
    pass P = z + H(G^ cut at t), capped at `degree`, is certified by the
    ops through min(t + o - 1, degree, what a truncated H allows), so the
    steps stop at top = min(degree, H.trunc) - o + 1.  P must equal G^
    through min(t, P.trunc), and P is returned.  G^ and M are exact
    polynomials only as a computing device; two lemmas, which the ops
    cannot certify, make them exact:

    * Doubling: if G^ = G through t, the step leaves G^ = G through
      2t + o - 1, as H(G) - H(G^) - JH(G^)(G - G^) has order
      >= 2(t + 1) + o(H'') and o(H'') >= o - 2.
    * Contraction: if P = G^ through k = min(t, P.trunc), then G = G^
      through k (at the first degree m <= k where they differ,
      G - P = H(G) - H(G^) has order >= m + o - 1 > m), so G = P through
      P.trunc.
    """
    n, h = f.n, f.h
    order = min(c.known_order for c in h.components)
    top = min(degree, h.trunc) - order + 1
    ident = PolyMap.identity(n, trunc=INF)
    jac = [x for row in h.jacobian() for x in row]
    g, t = ident, order - 1
    m = [[MSeries.const(n, int(i == j)) for j in range(n)] for i in range(n)]
    p = order - 2
    while t < top:
        s = min(2 * t + order - 1, top)
        if p < s - t - 1:
            p = s - t - 1
            jg = iter(compose_map_components(jac, g, cap=p))
            a = [[int(i == j) - next(jg) for j in range(n)] for i in range(n)]
            m = newton_inverse(a, m, p)
        r = ident + h.compose(g, cap=s) - g
        g = PolyMap(x.as_exact() for x in g + PolyMap(mat_vec(m, r, s)))
        t = s
    out = ident + h.compose(g.truncate(t), cap=degree)
    what = "fixed-point candidate differs from its pass at"
    _require_equal(g, out, min(t, out.trunc), what)
    return out


# -- graded layers -------------------------------------------------------------


@dataclass(frozen=True)
class GradedInverse:
    """Layers N_[1], ..., N_[M] with o(N_[m]) >= (o(H) - 1)m + 1 and, for
    polynomial H, deg N_[m] <= (deg H - 1)m + 1.  Summing the layers on top
    of z gives the inverse.

    The same layers, t-graded, give the inverse family of the deformation
    F_t = z - tH: G_t = z + t N_t with N_t = sum_m t^{m-1} N_[m], carried
    as one series with the parameter t in its exponents (`n_t`), dN_t/dt
    (`dn_t`), JN_t, its Jacobian in z (`jn_t`), and JN_t . N_t
    (`jn_n_t`), each built on first use.

    It holds the dimension `n`, not H: ``invert_recurrent`` keeps its
    result on H, and a reference back to H would make a cycle that only
    the cyclic garbage collector frees."""

    n: int
    layers: tuple
    trunc: float

    def layer(self, m: int) -> PolyMap:
        """1-based layer access; layers beyond the computed range are zero
        through the certified truncation."""
        if m < 1:
            raise IndexError("layers are indexed from 1")
        if m <= len(self.layers):
            return self.layers[m - 1]
        return PolyMap.zero(self.n, self.trunc)

    def inverse_map(self) -> PolyMap:
        ident = PolyMap.identity(self.n, trunc=self.trunc)
        return PolyMap(map(series_sum, zip(ident, *self.layers))).truncate(self.trunc)

    @cached_property
    def n_t(self) -> PolyMap:
        """sum_m t^{m-1} N_[m], with one parameter (t)."""
        trunc = min((layer.trunc for layer in self.layers), default=self.trunc)
        zero = PolyMap.zero(self.n, trunc, nparams=1)
        graded = [u.with_params(1).shift_param(0, m) for m, u in enumerate(self.layers)]
        return PolyMap(map(series_sum, zip(zero, *graded)))

    @cached_property
    def dn_t(self) -> PolyMap:
        """dN_t/dt, the left side of the transport equation."""
        return PolyMap(tuple(c.pdiff(0) for c in self.n_t.components))

    @cached_property
    def jn_t(self) -> tuple:
        """JN_t, the Jacobian of `n_t` in z, as rows of entries: a tuple of
        tuples, since every suite on the map reads this one matrix."""
        return tuple(map(tuple, self.n_t.jacobian()))

    @cached_property
    def jn_n_t(self) -> PolyMap:
        """JN_t . N_t, the right side of the transport equation, capped at
        the working degree: formed once for every suite on the map."""
        return PolyMap(mat_vec(self.jn_t, self.n_t.components, cap=self.trunc))

    def g_t(self) -> PolyMap:
        """z + t N_t."""
        ident = PolyMap.identity(self.n, trunc=self.trunc, nparams=1)
        return ident + self.n_t.shift_param(0)


def recurrent_layers(h: PolyMap, count: int, cap=None) -> list[PolyMap]:
    """N_[1] = H; N_[m] = 1/(m-1) sum_{k+l=m, k,l>=1} JN_[k] . N_[l], one
    ``dot`` per component.  With cap=None and polynomial H the layers are
    exact polynomials.

    When H is exact and JH symmetric, H is a gradient and the layers come
    from one scalar potential instead (``_potential_layers``).  The route
    is read off the Jacobian the first layer needs anyway.  A truncated H
    stays on the Jacobian route: with unequal component truncations the
    potential certifies other truncations."""
    if count < 1:
        return []
    layers = [h if cap is None else h.truncate(cap)]
    jacs = []
    for m in range(2, count + 1):
        jacs.append(layers[-1].jacobian())
        if m == 2 and h.trunc == INF and first_asymmetry(jacs[0]) is None:
            return _potential_layers(layers[0], count, cap)
        pairs = list(zip(jacs, reversed(layers)))  # (JN_[k], N_[m-k]), k = 1..m-1
        comps = [
            dot([p for j, u in pairs for p in zip(j[i], u)], cap) for i in range(h.n)
        ]
        layers.append(PolyMap(comps).scale(Rat(1, m - 1)))
    return layers


def _potential_layers(h: PolyMap, count: int, cap) -> list[PolyMap]:
    """The layers of a gradient H = grad P (Zhao, JPAA 2005): N_t = grad Q_t
    with dQ_t/dt = 1/2 <grad Q_t, grad Q_t>, the inviscid Burgers
    equation.  By powers of t, N_[m] = grad Q_[m] with

        (m-1) Q_[m] = sum_{k<l, k+l=m} N_[k] . N_[l] + 1/2 N_[m/2] . N_[m/2],

    one ``dot`` at cap + 1 over n ceil((m-1)/2) products, the 1/2 on one
    operand of the middle pair.  N_[1] = H is already grad P, so P itself
    is never formed.  Each N_[k] is exact through the cap, of order >= 2,
    so Q_[m] is exact through cap + 1 and grad Q_[m] through the cap: the
    layers and truncations of the Jacobian route."""
    layers = [h]
    qcap = None if cap is None else cap + 1
    for m in range(2, count + 1):
        pairs = [p for k in range(1, (m + 1) // 2) for p in zip(layers[k - 1], layers[m - k - 1])]
        if m % 2 == 0:
            mid = layers[m // 2 - 1]
            pairs += zip(mid.scale(Rat(1, 2)), mid)
        q = dot(pairs, qcap).scale(Rat(1, m - 1))
        layers.append(PolyMap([q.diff(i) for i in range(h.n)]))
    return layers


def invert_recurrent(f: MapF, degree: int) -> GradedInverse:
    """Layers m <= ``graded_cutoff(H, degree)`` suffice: o(N_[m]) >=
    (o-1)m + 1 with o = o(H), so later layers sit entirely above the
    working degree, and the deformation G_t, N_t and JN_t carries only
    the layers that reach it.

    Built once per H object and degree, and shared by every caller: the
    result is kept on H itself, keyed by object identity and never by
    content, so the suites on one map read one G_t, N_t and JN_t, while
    two parses of one document still compute twice."""
    h = f.h
    memo = getattr(h, "_graded", None)
    if memo is None:
        memo = h._graded = {}
    if degree not in memo:
        layers = recurrent_layers(h, graded_cutoff(h, degree), cap=degree)
        memo[degree] = GradedInverse(h.n, tuple(layers), degree)
    return memo[degree]


# -- homogeneous recurrence via the symmetric multilinear form ------------------


class BForm:
    """The symmetric d-linear form of a homogeneous degree-d map H: its
    d-th derivative tensor over d!, so that B(z, ..., z) = H(z).

    B is the labeled root sum of a root whose d children carry the
    arguments, divided by d!:

        B(U^1, ..., U^d)_i = sum_alpha S(alpha) d^alpha H_i,

    where alpha runs over sorted tuples of d variable indices and S(alpha)
    is 1/d! times the sum of U^1_{a_1} ... U^d_{a_d} over the orderings a
    of alpha.  ``TreePolyCache.fold`` builds S from {(): 1/d!} one argument
    at a time, only into the multisets of ``TreePolyCache.live`` (those
    with a partial of H that is not exactly zero), and
    ``TreePolyCache.contract`` pairs S with the partials of H in one
    ``dot`` per component: the fold and contraction of the tree sums, with
    no composition.

    Because B is multilinear, the sum is finite for any arguments;
    arguments with a constant term are accepted.  Each output component
    claims the truncation ``dot`` certifies for its sums of products: for
    exact H and arguments, `cap` (INF with no cap); for a truncated H, no
    more than its partials certify.
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
        self.partials = TreePolyCache(h)

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
        states = {(): MSeries.const(self.n, Rat(1, math.factorial(self.d)))}
        for size, u in enumerate(args, 1):
            states = self.partials.fold(states, u.components, size, cap)
        return PolyMap([self.partials.contract(states, i, cap) for i in range(self.n)])


def b_form_apply(form: BForm, args: Sequence[PolyMap], cap=None) -> PolyMap:
    return form.apply(args, cap=cap)


def invert_homogeneous(f: MapF, degree: int) -> GradedInverse:
    """Differential-free recurrence for homogeneous H of degree d >= 2:
    N_[0] = z, N_[1] = H,
    N_[m+1] = sum over d-tuples k_1 + ... + k_d = m of B(N_[k_1], ..., N_[k_d]).

    Layer m has order >= (o-1)m + 1, o = d for an exact H, so the layers
    stop at ``graded_cutoff(H, D)`` as every graded loop does.  Tuples are
    grouped by sorted multiset (the form is symmetric) with multinomial
    multiplicity.
    """
    form = BForm(f.h)
    d = form.d
    by_index = [PolyMap.identity(f.n, trunc=INF), f.h]  # N_[0], N_[1]
    for m in range(1, max(graded_cutoff(f.h, degree), 1)):
        vals = []
        for multiset in combinations_with_replacement(range(m + 1), d):
            if sum(multiset) != m:
                continue
            runs = Counter(multiset).values()
            mult = math.factorial(d) // math.prod(map(math.factorial, runs))
            vals.append(form.apply([by_index[k] for k in multiset]).scale(mult))
        by_index.append(PolyMap(map(series_sum, zip(*vals))))
    return GradedInverse(f.n, tuple(by_index[1:]), degree)


# -- derivative expansion --------------------------------------------------------


def _graded_exponents(n, max_total):
    """The exponents of n variables of total degree <= max_total, by total
    and then lexicographically."""
    return [
        tuple(map(c.count, range(n)))
        for t in range(max_total + 1)
        for c in reversed(list(combinations_with_replacement(range(n), t)))
    ]


def invert_abhyankar_gurjar(f: MapF, degree: int) -> PolyMap:
    """G_i = sum over multi-indices m of (D^m / m!) (z_i j(F) H^m).

    Multiplying by z_i and taking |m| derivatives lowers degree by |m| - 1,
    so only degrees <= degree + |m| - 1 of j(F) H^m reach the working
    degree; H^m and j(F) H^m are capped there, built incrementally in
    graded order.  Since o(H^m) >= o|m| with o = o(H), a part has order
    >= (o-1)|m| + 1, so the sum stops at |m| = ``graded_cutoff(H,
    degree)``, and j(F) is needed only through degree - 1.

    Every part (D^m / m!) (z_i q), q = j(F) H^m, is read off q's packed
    rows, and each component sums its parts in one integer accumulator
    (``taylor_sums``), with no chain of derivatives.  A power or a q is
    left out only when ``known_zero`` through its cap.
    """
    n = f.n
    jf = jacobian_det(f.map, cap=degree - 1)
    parts = []
    powers = {(0,) * n: MSeries.const(n, ONE)}
    for m in _graded_exponents(n, graded_cutoff(f.h, degree)):
        total = sum(m)
        cap = degree + total - 1
        if total:
            i = next(j for j, k in enumerate(m) if k)
            prev = m[:i] + (m[i] - 1,) + m[i + 1 :]
            powers[m] = powers[prev].mul(f.h.components[i], cap=cap)
        hpow = powers[m]
        if hpow.known_zero(cap):
            continue
        q = jf.mul(hpow, cap=cap)
        if not q.known_zero(cap):
            parts.append((q, m))
    return PolyMap(taylor_sums(n, parts, degree))


def _unit_exp(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# -- rooted-tree expansion ---------------------------------------------------------


def invert_bcw(f: MapF, degree: int) -> PolyMap:
    """G = z + sum over trees of P_T = q_T / aut(T); since o(P_T) >=
    (o-1)|T| + 1 with o = o(H), only trees with at most
    ``graded_cutoff(H, degree)`` vertices contribute.  Isomorphic subtrees
    share their labeled sums through a common cache."""
    sums = tree_sums(f.h, degree)
    return tree_expansion(sums, f.n, degree, lambda tree: MSeries.const(f.n, Rat(1, tree.aut)))


# -- coefficient formulas -----------------------------------------------------------


def _checked_index(f: MapF, i: int, k: Sequence[int]) -> tuple:
    k = tuple(k)
    if len(k) != f.n or any(x < 0 for x in k):
        raise DimensionMismatch(f"bad coefficient index {k} for n={f.n}")
    if not 0 <= i < f.n:
        raise DimensionMismatch(f"component {i} out of range")
    return k


def inverse_power_factors(h: PolyMap, exps: Sequence[Iterable[int]], through) -> list:
    """For each variable j, {a: S_j(a) for a in exps[j]} certified through
    `through`, S_j(a) = (1 - H_j/z_j)^{-a}: ``inverse_powers`` of
    X = H_j/z_j, which has order >= 1 and may be a Laurent series."""
    return [
        inverse_powers(comp.mul_monomial(tuple(-(i == j) for i in range(h.n))), wanted, through)
        for j, (comp, wanted) in enumerate(zip(h.components, exps))
    ]


def _formula_map(f: MapF, c: int, exps, degree: int) -> PolyMap:
    """[z^k] G_i for each k of the graded `exps` by one Lagrange-Good
    expansion: with S_j(a) = (1 - H_j/z_j)^{-a} (``inverse_power_factors``),

        [z^k] G_i = [z^(k - e_i)] w * prod_j S_j(k_j + c),

    w = j(F), c = 1 for the residue formula (``jacobi``), and
    w = det(delta_ij - z_i f_i dh_i/dz_j), c = 0 for the product form
    (``lagrange``; h_i = H_i / z_i, f_i = 1/(1 - h_i)), w built here
    through degree - 1.  One product per k, capped at |k| - 1, serves
    every i; the factors are built only for the a = k_j + c that `exps`
    use.  Certified through `degree`, or through the last |k| before the
    first k whose product is not.  Both methods and both coefficient
    functions read it."""
    n = f.n
    weight = jacobian_det(f.map, cap=degree - 1) if c else _lagrange_weight(f, degree - 1)
    factors = inverse_power_factors(f.h, [{k[j] + c for k in exps} for j in range(n)], degree - 1)
    terms = [{} for _ in range(n)]
    for k in exps:
        product = weight
        for s, a in zip(factors, k):
            product = product.mul(s[a + c], cap=sum(k) - 1)
        if product.trunc < sum(k) - 1:
            degree = sum(k) - 1
            break
        for i, out in enumerate(terms):
            value = product.coefficient(tuple(x - y for x, y in zip(k, _unit_exp(n, i))))
            if value:
                out[k] = value
    return PolyMap(MSeries(n, INF, t) for t in terms).truncate(degree)


def _lagrange_weight(f: MapF, through) -> MSeries:
    """det(delta_ij - z_i f_i dh_i/dz_j) through `through`, each f_i
    capped at the degree h_i certifies."""
    if not _lagrange_applicable(f):
        raise DivisibilityError(
            "some H_i has a term not divisible by z_i; the product-form "
            "coefficient formula does not apply (use jacobi_coefficient)"
        )
    rows = []
    for r, comp in enumerate(f.h.components):
        h = comp.mul_monomial(tuple(-x for x in _unit_exp(f.n, r)))
        cut = min(through, h.trunc)
        # 1 - h keeps its constant term only when h is certified through 0
        recip = unit_inverse(1 - h, cut) if cut >= 0 else MSeries.zero(f.n, cut)
        zf = recip.mul_monomial(_unit_exp(f.n, r))
        rows.append([int(r == c) - zf.mul(h.diff(c), cap=through) for c in range(f.n)])
    return series_det(rows, cap=through)


def _coefficient(f: MapF, i: int, k: Sequence[int], c: int) -> Rat:
    """[z^k] G_i off ``_formula_map`` for the one exponent k."""
    k = _checked_index(f, i, k)
    component = _formula_map(f, c, [k], sum(k))[i]
    component._require_precision(sum(k))  # TruncationError when H is cut too low
    return component.coefficient(k)


def jacobi_coefficient(f: MapF, i: int, k: Sequence[int]) -> Rat:
    """[z^k] G_i by the residue formula: the formal residue of
    j(F) F^{-k-1} z_i, which reads j(F) only through |k| - 1.
    ``laurent`` keeps the residue itself as the reference."""
    return _coefficient(f, i, k, 1)


def lagrange_coefficient(f: MapF, i: int, k: Sequence[int]) -> Rat:
    """[z^k] G_i by the product form, for maps with z_i | H_i."""
    return _coefficient(f, i, k, 0)


# -- registry and cross-checking -----------------------------------------------------


METHODS: dict[str, Callable[[MapF, int], PolyMap]] = {
    "fixed": invert_fixed_point,
    "recurrent": lambda f, d: invert_recurrent(f, d).inverse_map(),
    "homog": lambda f, d: invert_homogeneous(f, degree=d).inverse_map(),
    "ag": invert_abhyankar_gurjar,
    "bcw": invert_bcw,
    "jacobi": lambda f, d: _formula_map(f, 1, _graded_exponents(f.n, d), d),
    "lagrange": lambda f, d: _formula_map(f, 0, _graded_exponents(f.n, d), d),
}

# cross_check's default, which the `wide` benchmark runs; the coefficient
# formulas are opt-in for cost alone (A1 at D=8: 4.1 s with, 1.7 s without)
MAP_METHODS = ("fixed", "recurrent", "homog", "ag", "bcw")


def applicable_methods(f: MapF, names: Optional[Sequence[str]] = None) -> list[str]:
    """Filter a requested method list down to those whose preconditions the
    map satisfies (homogeneity for `homog`, divisibility for `lagrange`).
    A name that is not in METHODS is a ForminvError."""
    names = list(names) if names is not None else list(MAP_METHODS)
    out = []
    d = f.h.homogeneous_degree()
    for name in names:
        if name not in METHODS:
            raise ForminvError(f"unknown method {name!r}")
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


def run_methods(f: MapF, degree: int, names: Sequence[str], runs: int = 1):
    """The one loop that runs and compares the inversion methods.

    Runs each named method `runs` times, in `names` order, timing each run
    of ``METHODS[name](f, degree).truncate(degree)`` in milliseconds, and
    checks each inverse against the first method's as soon as it exists:
    the first disagreement raises MethodDisagreement naming both methods
    and the first differing coefficient, before any later method runs.
    Each run gets a new H object holding the same series, so no run reads
    a deformation that ``invert_recurrent`` kept on H: every timing covers
    the whole computation, and every method computes its own inverse.  The
    copy is made inside the timed call, so what a method keeps on it is
    freed as soon as the call returns.
    Returns one (name, inverse, times_ms) per method, in `names` order."""
    out = []
    for name in names:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            g = METHODS[name](MapF(PolyMap(f.h)), degree).truncate(degree)
            times.append((time.perf_counter() - start) * 1000.0)
        if out:
            what = f"methods {out[0][0]!r} and {name!r} disagree at"
            _require_equal(out[0][1], g, degree, what)
        out.append((name, g, times))
    return out


def cross_check(
    f: MapF, degree: int, methods: Optional[Sequence[str]] = None
) -> CrossCheckReport:
    """Run the selected methods (default: every applicable whole-map
    method), require bit-identical inverses through `degree`, and verify
    F(G) = z.  Raises MethodDisagreement naming the component and the
    first differing coefficient otherwise.

    G(F) = z through `degree` follows: composition refuses a G with a
    constant term, so for the true inverse G*, G = G*(F(G)) = G* through
    `degree` and G(F) = G*(F) = z through `degree`."""
    names = applicable_methods(f, methods)
    if not names:
        raise ForminvError("no applicable methods selected")
    report = CrossCheckReport(degree=degree)
    results = run_methods(f, degree, names)
    for name, g, (millis,) in results:
        terms = sum(len(c._view.rows) for c in g.components)
        report.runs.append(MethodRun(name, millis, terms))
    base = results[0][1]
    z = PolyMap.identity(f.n)
    _require_equal(f.map.compose(base, cap=degree), z, degree, "F(G) differs from z at")
    report.inverse = base
    return report


def _require_equal(a: PolyMap, b: PolyMap, degree, what):
    """Raise MethodDisagreement, worded `what` followed by the component
    and the first differing coefficient, unless a = b through `degree`
    (None: through their lesser truncation, component by component)."""
    diff = first_mismatch(zip(a.components, b.components), through=degree)
    if diff is not None:
        raise MethodDisagreement(f"{what} component {diff[0] + 1}, {diff[1]}")
