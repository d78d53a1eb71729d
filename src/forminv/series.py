"""Sparse multivariate truncated power series over exact rationals.

A series in ``n`` variables with truncation ``trunc = D`` stores *exactly*
the terms of total degree <= D; terms beyond D are unknown rather than
zero.  ``trunc`` may be ``math.inf`` for series known exactly (polynomials
such as the input map H).  Every operation returns the largest truncation
it can certify, using order information: for a product, unknown terms of
one factor only pollute degrees >= (trunc+1) + order(other factor), so
certified precision often *exceeds* the naive min of the operand
truncations.  This is what keeps layered recurrences exact through the
working degree without inflating the working precision.

A series may carry trailing *parameter* variables (deformation parameters
such as t and s).  Parameters live in extra exponent positions that do not
count toward the truncation degree; coefficients stay plain rationals, so
identities that are polynomial in the parameters are checked exactly.
Derivatives with respect to a parameter do not lose precision in z.

Exponents may be negative: a Laurent expansion (see ``laurent``) is an
``MSeries`` whose terms reach below degree 0, and the truncation rules
above apply to it unchanged.  Only ``series_from_terms``, which validates
outside input, rejects negative exponents.

``_product`` is the one truncated product loop and ``_collect`` the one
accumulate-and-cancel step: every operation that sums coefficients by
exponent goes through them, and ``_collect`` is private to this module.
``series_sum`` is the one way series are summed, ``+`` included, so no
other module accumulates terms or restates the truncation rule of a sum.
No stored coefficient is ever zero, which ``is_zero`` and ``order`` rely
on.

All values are immutable after construction and all operations are pure,
so the whole module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, islice
from operator import add, itemgetter
from typing import Iterable, Sequence

from .errors import (
    CanonicalFormError,
    DimensionMismatch,
    SubstitutionError,
    TruncationError,
)
from .rat import ONE, Rat, ZERO, rat_to_str

INF = math.inf

Exponent = tuple  # tuple[int, ...] of length n + nparams


def _collect(pairs, out=None) -> dict:
    """Sum the (exponent, coefficient) pairs by exponent into `out` (a
    fresh dict by default), then drop the exponents whose sum is zero."""
    out = {} if out is None else out
    zeros = []
    for e, c in pairs:
        s = out.get(e)
        s = c if s is None else s + c
        out[e] = s
        if not s:
            zeros.append(e)
    for e in zeros:
        if e in out and not out[e]:
            del out[e]
    return out


def _product(a_terms: dict, b_terms: dict, n: int, cap) -> dict:
    """Truncated sparse product: the terms of degree <= cap, where the
    degree of an exponent is the sum of its first n entries.  The shorter
    operand drives the outer loop; the inner one stops at the first term of
    too high a degree."""
    a = sorted(((sum(e[:n]), e, c) for e, c in a_terms.items()), key=itemgetter(0))
    b = sorted(((sum(e[:n]), e, c) for e, c in b_terms.items()), key=itemgetter(0))
    if len(a) > len(b):
        a, b = b, a
    degs = [d for d, _, _ in b]
    return _collect(
        (tuple(map(add, ea, eb)), ca * cb)
        for da, ea, ca in a
        for _, eb, cb in islice(b, bisect_right(degs, cap - da))
    )


def _grlex_key(n):
    def key(exp):
        return (sum(exp[:n]), exp)

    return key


class MSeries:
    """One truncated power series, or a Laurent expansion when some
    exponents are negative.  Use the factory helpers or
    :func:`series_from_terms`; the raw constructor trusts its input."""

    __slots__ = ("n", "nparams", "trunc", "terms", "_order")

    def __init__(self, n, trunc, terms, nparams=0):
        self.n = n
        self.nparams = nparams
        self.trunc = trunc
        self.terms = terms
        self._order = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, n, trunc=INF, nparams=0):
        return cls(n, trunc, {}, nparams)

    @classmethod
    def const(cls, n, value, trunc=INF, nparams=0):
        value = Rat(value)
        terms = {} if not value else {(0,) * (n + nparams): value}
        return cls(n, trunc, terms, nparams)

    @classmethod
    def variable(cls, n, i, trunc=INF, nparams=0):
        if not 0 <= i < n:
            raise DimensionMismatch(f"variable index {i} out of range for n={n}")
        exp = tuple(1 if j == i else 0 for j in range(n + nparams))
        return cls(n, trunc, {exp: ONE} if trunc >= 1 else {}, nparams)

    @classmethod
    def monomial(cls, n, exp, value, trunc=INF, nparams=0):
        value = Rat(value)
        exp = tuple(exp)
        return cls(n, trunc, {exp: value} if value else {}, nparams)

    # -- bookkeeping ---------------------------------------------------------

    def zdeg(self, exp) -> int:
        return sum(exp[: self.n]) if self.nparams else sum(exp)

    @property
    def order(self):
        """Minimal total z-degree of a stored term; inf for the zero series."""
        if self._order is None:
            n = self.n
            if self.nparams:
                self._order = min((sum(e[:n]) for e in self.terms), default=INF)
            else:
                self._order = min((sum(e) for e in self.terms), default=INF)
        return self._order

    @property
    def known_order(self):
        """Lower bound on the order of the true series this value represents
        (accounts for unknown terms beyond trunc)."""
        return min(self.order, self.trunc + 1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_zero_through(self, degree) -> bool:
        self._require_precision(degree)
        return all(self.zdeg(e) > degree for e in self.terms)

    def eq_through(self, other: "MSeries", degree) -> bool:
        self._check_compat(other)
        self._require_precision(degree)
        other._require_precision(degree)
        return self._dict_through(degree) == other._dict_through(degree)

    def _dict_through(self, degree):
        return {e: c for e, c in self.terms.items() if self.zdeg(e) <= degree}

    def _require_precision(self, degree):
        if self.trunc < degree:
            raise TruncationError(
                f"series certified only through degree {self.trunc}, "
                f"needed {degree}"
            )

    def _check_compat(self, other: "MSeries"):
        if self.n != other.n or self.nparams != other.nparams:
            raise DimensionMismatch(
                f"incompatible series: ({self.n},{self.nparams} params) vs "
                f"({other.n},{other.nparams} params)"
            )

    def __eq__(self, other):
        return (
            isinstance(other, MSeries)
            and self.n == other.n
            and self.nparams == other.nparams
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MSeries):
            other = MSeries.const(self.n, other, nparams=self.nparams)
        return series_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return MSeries(
            self.n, self.trunc, {e: -c for e, c in self.terms.items()}, self.nparams
        )

    def __sub__(self, other):
        if not isinstance(other, MSeries):
            other = MSeries.const(self.n, other, nparams=self.nparams)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MSeries):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def scale(self, c) -> "MSeries":
        c = Rat(c)
        if not c:
            return MSeries.zero(self.n, INF, self.nparams)
        return MSeries(
            self.n, self.trunc, {e: v * c for e, v in self.terms.items()}, self.nparams
        )

    def mul_monomial(self, exp, coeff=ONE) -> "MSeries":
        """Multiply by coeff * z^exp; exponents may be negative.  The
        certified degree shifts by the monomial's z-degree."""
        exp = tuple(exp)
        if len(exp) != self.n + self.nparams:
            raise DimensionMismatch(
                f"monomial exponent length {len(exp)}, expected "
                f"{self.n + self.nparams}"
            )
        coeff = Rat(coeff)
        if not coeff:
            return MSeries.zero(self.n, INF, self.nparams)
        deg = sum(exp[: self.n])
        trunc = self.trunc if self.trunc == INF else self.trunc + deg
        return MSeries(
            self.n,
            trunc,
            {
                tuple(x + y for x, y in zip(e, exp)): c * coeff
                for e, c in self.terms.items()
            },
            self.nparams,
        )

    def mul(self, other: "MSeries", cap=None) -> "MSeries":
        """Product, exact through the largest certifiable degree
        min(Da + o(b), Db + o(a), Da + Db + 1), optionally capped."""
        self._check_compat(other)
        trunc = min(
            self.trunc + other.known_order,
            other.trunc + self.known_order,
            self.trunc + other.trunc + 1,
        )
        if cap is not None:
            trunc = min(trunc, cap)
        if not self.terms or not other.terms:
            return MSeries.zero(self.n, trunc, self.nparams)
        if self.order + other.order > trunc:
            return MSeries.zero(self.n, trunc, self.nparams)
        out = _product(self.terms, other.terms, self.n, trunc)
        return MSeries(self.n, trunc, out, self.nparams)

    def truncate(self, degree) -> "MSeries":
        if degree >= self.trunc:
            return self
        return MSeries(
            self.n,
            degree,
            {e: c for e, c in self.terms.items() if self.zdeg(e) <= degree},
            self.nparams,
        )

    # -- differentiation ------------------------------------------------------

    def diff(self, i: int) -> "MSeries":
        """Partial derivative in the i-th geometric variable (0-based);
        certified degree drops by one."""
        if not 0 <= i < self.n:
            raise DimensionMismatch(f"variable index {i} out of range for n={self.n}")
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1 :]
                out[e2] = c * k
        trunc = self.trunc if self.trunc == INF else self.trunc - 1
        return MSeries(self.n, trunc, out, self.nparams)

    def pdiff(self, j: int) -> "MSeries":
        """Derivative in the j-th parameter; z-precision is unchanged."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        pos = self.n + j
        out = {}
        for e, c in self.terms.items():
            k = e[pos]
            if k:
                e2 = e[:pos] + (k - 1,) + e[pos + 1 :]
                out[e2] = c * k
        return MSeries(self.n, self.trunc, out, self.nparams)

    # -- parameter handling ---------------------------------------------------

    def with_params(self, extra: int) -> "MSeries":
        """Append `extra` parameter positions (exponent 0 everywhere)."""
        if extra == 0:
            return self
        pad = (0,) * extra
        return MSeries(
            self.n,
            self.trunc,
            {e + pad: c for e, c in self.terms.items()},
            self.nparams + extra,
        )

    def shift_param(self, j: int, k: int = 1) -> "MSeries":
        """Multiply by the j-th parameter raised to the k-th power."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        pos = self.n + j
        out = {
            e[:pos] + (e[pos] + k,) + e[pos + 1 :]: c for e, c in self.terms.items()
        }
        return MSeries(self.n, self.trunc, out, self.nparams)

    def eval_param(self, j: int, value) -> "MSeries":
        """Substitute an exact rational for the j-th parameter (removed from
        the exponent layout)."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        value = Rat(value)
        pos = self.n + j
        out = _collect(
            (e[:pos] + e[pos + 1 :], c * value ** e[pos] if e[pos] else c)
            for e, c in self.terms.items()
        )
        return MSeries(self.n, self.trunc, out, self.nparams - 1)

    def subst_param_sum(self, j: int, k: int) -> "MSeries":
        """Substitute parameter j := parameter j + parameter k (binomial
        expansion); used for reindexing deformations like t -> t + s."""
        if j == k:
            raise DimensionMismatch("parameters must differ")
        pj, pk = self.n + j, self.n + k

        def expand():
            for e, c in self.terms.items():
                a = e[pj]
                for r in range(a + 1):
                    e2 = list(e)
                    e2[pj] = a - r
                    e2[pk] = e[pk] + r
                    yield tuple(e2), c * math.comb(a, r)

        return MSeries(self.n, self.trunc, _collect(expand()), self.nparams)

    def strip_params(self) -> "MSeries":
        """Drop parameter positions entirely; requires no parameter appears
        with nonzero exponent."""
        if self.nparams == 0:
            return self
        n = self.n
        out = {}
        for e, c in self.terms.items():
            if any(e[n:]):
                raise DimensionMismatch("series genuinely depends on parameters")
            out[e[:n]] = c
        return MSeries(n, self.trunc, out, 0)

    def param_coefficients(self):
        """Group terms as {param exponent: MSeries in z only}."""
        n = self.n
        groups: dict = {}
        for e, c in self.terms.items():
            groups.setdefault(e[n:], {})[e[:n]] = c
        return {
            pe: MSeries(n, self.trunc, terms, 0) for pe, terms in sorted(groups.items())
        }

    # -- presentation ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(self.n)(item[0]))

    def format(self, names=None, param_names=None) -> str:
        if not self.terms:
            return "0"
        names = names or default_names(self.n)
        param_names = param_names or default_param_names(self.nparams)
        allnames = list(names) + list(param_names)
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(allnames, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            coeff = abs(c)
            if not mono:
                body = rat_to_str(coeff)
            elif coeff == 1:
                body = mono
            else:
                body = f"{rat_to_str(coeff)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        trunc = "inf" if self.trunc == INF else self.trunc
        return f"MSeries(n={self.n}, trunc={trunc}, {self.format()})"


def default_names(n):
    return ["z"] if n == 1 else [f"z{i+1}" for i in range(n)]


def default_param_names(p):
    base = ["t", "s"]
    return base[:p] + [f"u{i}" for i in range(max(0, p - 2))]


def series_from_terms(n, trunc, items: Iterable, nparams=0) -> MSeries:
    """Validating constructor: duplicate exponents are summed, zero
    coefficients dropped.  Rejects negative exponents, wrong exponent
    length, and terms whose z-degree exceeds the truncation bound."""
    width = n + nparams

    def checked():
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != width:
                raise DimensionMismatch(
                    f"exponent {exp} has length {len(exp)}, expected {width}"
                )
            if any(k < 0 for k in exp):
                raise TruncationError(f"negative exponent in {exp}")
            deg = sum(exp[:n])
            if deg > trunc:
                raise TruncationError(
                    f"term of degree {deg} exceeds truncation bound {trunc}"
                )
            yield exp, Rat(coeff)

    return MSeries(n, trunc, _collect(checked()), nparams)


def series_sum(parts: Iterable[MSeries]) -> MSeries:
    """Sum of a non-empty iterable of series with one layout, in one
    accumulate pass.  The sum is certified through the least truncation
    among the parts; terms above it are dropped when some part claimed
    more, so terms and truncation are those of folding ``+``.  A lone
    part is returned as it is."""
    first, *rest = parts
    if not rest:
        return first
    for p in rest:
        first._check_compat(p)
    # the largest part's terms are copied, which costs less than collecting them
    big, *rest = sorted((first, *rest), key=lambda p: len(p.terms), reverse=True)
    truncs = [big.trunc] + [p.trunc for p in rest]
    trunc = min(truncs)
    items = chain.from_iterable(p.terms.items() for p in rest)
    out = _collect(items, dict(big.terms))
    if max(truncs) > trunc:
        out = {e: c for e, c in out.items() if first.zdeg(e) <= trunc}
    return MSeries(first.n, trunc, out, first.nparams)


# -- composition ---------------------------------------------------------------


def _power_table(zexps, g: "PolyMap", cap):
    """Memoized powers g^alpha for every z-exponent alpha needed, each
    obtained from a predecessor by one series multiplication, filled in
    graded order."""
    n = g.n
    needed = set()
    for a in zexps:
        a = tuple(a)
        while a not in needed and any(a):
            needed.add(a)
            i = next(j for j, k in enumerate(a) if k)
            a = a[:i] + (a[i] - 1,) + a[i + 1 :]
    one = MSeries.const(n, ONE, nparams=g.nparams)
    table = {(0,) * n: one}
    for a in sorted(needed, key=lambda e: (sum(e), e)):
        i = next(j for j, k in enumerate(a) if k)
        prev = a[:i] + (a[i] - 1,) + a[i + 1 :]
        table[a] = table[prev].mul(g.components[i], cap=cap)
    return table


def _compose_trunc(f: MSeries, g: "PolyMap"):
    og = min(c.known_order for c in g.components)
    gtrunc = min(c.trunc for c in g.components)
    bounds = []
    if f.trunc != INF:
        bounds.append((f.trunc + 1) * og - 1)
    positive = [d for d in (f.zdeg(e) for e in f.terms) if d >= 1]
    if gtrunc != INF and positive:
        bounds.append((min(positive) - 1) * og + gtrunc)
    return min(bounds) if bounds else INF


def compose(f: MSeries, g, cap=None) -> MSeries:
    """Substitute the components of g for the z-variables of f.

    Every component of g must have z-order >= 1 (no constant term), since a
    constant term would make each truncated coefficient an infinite sum.
    Parameters of f and g pass through untouched.
    """
    g = g if isinstance(g, PolyMap) else PolyMap(tuple(g))
    return compose_map_components([f], g, cap)[0]


def compose_map_components(fs: Sequence[MSeries], g: "PolyMap", cap=None):
    """Compose several series with one map, sharing the power table."""
    f0 = fs[0]
    for f in fs:
        if f.n != g.n or f.nparams != g.nparams:
            raise DimensionMismatch("composition dimension/parameter mismatch")
    for comp in g.components:
        if comp.order < 1:
            raise SubstitutionError(
                "cannot substitute a map with a nonzero constant term"
            )
    trunc = min((_compose_trunc(f, g) for f in fs), default=INF)
    if cap is not None:
        trunc = min(trunc, cap)
    n = f0.n
    zexps = {e[:n] if f0.nparams else e for f in fs for e in f.terms}
    table = _power_table(zexps, g, trunc)
    params = f0.nparams
    results = []
    for f in fs:
        out = _collect(
            (eg[:n] + tuple(map(add, eg[n:], e[n:])) if params else eg, c * cg)
            for e, c in f.terms.items()
            for eg, cg in table[e[:n]].terms.items()
        )
        results.append(MSeries(n, trunc, out, params))
    return results


# -- maps -----------------------------------------------------------------------


class PolyMap:
    """A formal self-map of affine n-space: an n-tuple of series sharing the
    same variable and parameter layout."""

    __slots__ = ("n", "components")

    def __init__(self, components: Sequence[MSeries]):
        components = tuple(components)
        if not components:
            raise DimensionMismatch("a map needs at least one component")
        n = components[0].n
        p = components[0].nparams
        if len(components) != n:
            raise DimensionMismatch(
                f"map has {len(components)} components for {n} variables"
            )
        for c in components:
            if c.n != n or c.nparams != p:
                raise DimensionMismatch("component layouts differ")
        self.n = n
        self.components = components

    @classmethod
    def identity(cls, n, trunc=INF, nparams=0):
        return cls(
            tuple(MSeries.variable(n, i, trunc, nparams) for i in range(n))
        )

    @classmethod
    def zero(cls, n, trunc=INF, nparams=0):
        return cls(tuple(MSeries.zero(n, trunc, nparams) for _ in range(n)))

    @property
    def nparams(self):
        return self.components[0].nparams

    @property
    def trunc(self):
        return min(c.trunc for c in self.components)

    @property
    def order(self):
        return min(c.order for c in self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __add__(self, other):
        return PolyMap(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return PolyMap(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return PolyMap(tuple(-a for a in self.components))

    def scale(self, c):
        return PolyMap(tuple(a.scale(c) for a in self.components))

    def truncate(self, degree):
        return PolyMap(tuple(a.truncate(degree) for a in self.components))

    def with_params(self, extra):
        return PolyMap(tuple(a.with_params(extra) for a in self.components))

    def eval_param(self, j, value):
        return PolyMap(tuple(a.eval_param(j, value) for a in self.components))

    def shift_param(self, j, k=1):
        return PolyMap(tuple(a.shift_param(j, k) for a in self.components))

    def subst_param_sum(self, j, k):
        return PolyMap(tuple(a.subst_param_sum(j, k) for a in self.components))

    def compose(self, g: "PolyMap", cap=None) -> "PolyMap":
        """self after g, i.e. z -> self(g(z))."""
        return PolyMap(tuple(compose_map_components(self.components, g, cap)))

    def jacobian(self):
        return [[c.diff(j) for j in range(self.n)] for c in self.components]

    def eq_through(self, other: "PolyMap", degree) -> bool:
        return all(
            a.eq_through(b, degree) for a, b in zip(self.components, other.components)
        )

    def is_identity_through(self, degree) -> bool:
        return self.eq_through(PolyMap.identity(self.n, nparams=self.nparams), degree)

    def max_degree(self):
        """Largest z-degree of a stored term (polynomial degree when exact)."""
        degs = [c.zdeg(e) for c in self.components for e in c.terms]
        return max(degs, default=0)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if mixed/zero."""
        degs = {c.zdeg(e) for c in self.components for e in c.terms}
        return degs.pop() if len(degs) == 1 else None

    def format(self, names=None, param_names=None):
        names = names or default_names(self.n)
        return "\n".join(
            f"{name} -> {c.format(names, param_names)}"
            for name, c in zip(names, self.components)
        )

    def __repr__(self):
        return f"PolyMap(n={self.n})\n{self.format()}"


class MapF:
    """A map in canonical form F = z - H with o(H) >= 2, the shape every
    inversion algorithm expects.  Constructed from H or validated from F;
    maps violating the canonical form are rejected, never normalized."""

    __slots__ = ("h",)

    def __init__(self, h: PolyMap):
        if h.nparams:
            raise CanonicalFormError("canonical maps carry no parameters")
        if h.order < 2:
            low = [
                (i, e)
                for i, c in enumerate(h.components)
                for e in c.terms
                if sum(e) < 2
            ]
            raise CanonicalFormError(
                f"H must have order >= 2; offending terms {low[:3]}"
            )
        self.h = h

    @classmethod
    def from_map(cls, f: PolyMap) -> "MapF":
        ident = PolyMap.identity(f.n, trunc=f.trunc)
        return cls(ident - f)

    @property
    def n(self):
        return self.h.n

    @property
    def map(self) -> PolyMap:
        return PolyMap.identity(self.n, trunc=self.h.trunc) - self.h

    def __repr__(self):
        return f"MapF(z - H) with H =\n{self.h.format()}"


# -- matrices of series ----------------------------------------------------------


def mat_vec(a, v, cap=None):
    """(matrix of series) @ (sequence of series)."""
    return [series_sum(x.mul(y, cap=cap) for x, y in zip(row, v)) for row in a]


def mat_mul(a, b, cap=None):
    return [
        [series_sum(x.mul(y, cap=cap) for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def _mul_trusted(a: MSeries, b: MSeries, cap) -> MSeries:
    """Product of the stored terms through z-degree cap, with the result's
    truncation *asserted* to be cap.  Only for algorithms (Newton-style
    iterations) whose own convergence argument certifies the result beyond
    what the generic order-aware rule can see."""
    return MSeries(a.n, cap, _product(a.terms, b.terms, a.n, cap), a.nparams)


def unit_inverse(s: MSeries, degree) -> MSeries:
    """Reciprocal of a series with nonzero constant term, exact through
    `degree` (Newton iteration, quadratic convergence: each step doubles
    the number of correct layers, which is what certifies the result).
    The part of z-degree <= 0 must be a nonzero constant: a parameter
    there, as in 1 + t, has no reciprocal polynomial in the parameters."""
    const = (0,) * (s.n + s.nparams)
    c0 = s.terms.get(const)
    if not c0:
        raise SubstitutionError("series has no constant term, not invertible")
    if any(e != const and s.zdeg(e) <= 0 for e in s.terms):
        raise SubstitutionError(
            "the part of z-degree <= 0 is not a constant, not invertible"
        )
    if degree > s.trunc:
        raise TruncationError(
            f"need input through degree {degree}, certified {s.trunc}"
        )
    two = MSeries.const(s.n, 2, INF, s.nparams)
    inv = MSeries.const(s.n, ONE / c0, INF, s.nparams)
    known = 0
    while known < degree:
        known = min(2 * known + 1, degree)
        correction = two - _mul_trusted(s, inv, known)
        inv = _mul_trusted(inv, correction, known)
    return MSeries(s.n, degree, inv.terms, s.nparams)


def series_det(matrix, cap=None) -> MSeries:
    """Determinant of a square matrix of series, division-free: dynamic
    programming over column subsets, O(n 2^n) series multiplications.

    The result claims no truncation beyond that of each product it sums.
    A zero entry is skipped only when it is known to vanish through the
    cap (all of it when there is none); any other zero entry enters its
    products, whose certified truncation it lowers.  Exact entries give an
    exact determinant (capped at `cap`).

    Fraction-free Gaussian elimination was used here before and dropped.
    Each of its exact divisions runs a unit inverse through the dividend's
    degree, which costs more than it saves on the exact Jacobians every
    caller passes.  Median ms per determinant, elimination vs expansion,
    on Jacobians of random maps of degree <= 3 with <= 3 terms per
    component (2-vCPU Xeon, `fractions` backend): n=2 0.15 vs 0.20, n=3
    1.05 vs 0.50, n=4 7.0 vs 0.95, n=5 591 vs 2.8.
    """
    first = matrix[0][0]
    limit = INF if cap is None else cap
    states = {(): MSeries.const(first.n, ONE, INF, first.nparams)}
    for row in matrix:
        new = {}
        for cols, val in states.items():
            for j, entry in enumerate(row):
                if j in cols:
                    continue
                if entry.is_zero() and entry.trunc >= limit:
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


def jacobian(m: PolyMap):
    """Matrix of first partials: entry (i, j) = d m_i / d z_j."""
    return m.jacobian()


def jacobian_det(m: PolyMap, cap=None) -> MSeries:
    return series_det(m.jacobian(), cap=cap)


def first_difference(a: MSeries, b: MSeries, through=None):
    """First (graded-lex) exponent where two series differ, or None.
    Used for mismatch diagnostics."""
    if through is None:
        degree = min(a.trunc, b.trunc)
    else:
        a._require_precision(through)
        b._require_precision(through)
        degree = through
    da = a._dict_through(degree)
    db = b._dict_through(degree)
    exps = sorted(set(da) | set(db), key=_grlex_key(a.n))
    for e in exps:
        ca = da.get(e, ZERO)
        cb = db.get(e, ZERO)
        if ca != cb:
            return e, ca, cb
    return None


def first_mismatch(pairs, through=None):
    """First (index, exponent, a_value, b_value) where the paired series
    of `pairs` differ, or None; the index counts the pairs."""
    for i, (a, b) in enumerate(pairs):
        diff = first_difference(a, b, through=through)
        if diff is not None:
            return (i,) + diff
    return None
