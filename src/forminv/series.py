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
``n`` may be 0: such a series is a polynomial in the parameters alone
(``trees.order_polynomial`` returns one in t by default), with every term of
z-degree 0.

Exponents may be negative: a Laurent expansion (see ``laurent``) is an
``MSeries`` whose terms reach below degree 0, and the truncation rules
above apply to it unchanged.  ``series_from_terms``, which validates
outside input, rejects negative exponents, and composition rejects them
in the outer series, whose powers of the inner map it builds by
multiplication.

Every product runs ``packed.mac`` on the packed views of its operands
(see ``packed``).  ``dot``, a sum of products, runs it after one pass over
its pairs that reads each view once for the truncation, the orders and
the live pairs; ``mul`` is the dot of one pair, and a lone pair whose
views share a width that holds the span runs as it is, with no repacking
and no lcm.  ``compose_map_components`` and ``series_sum`` run ``mac``
themselves, a composition because routing it through ``dot`` builds one
``MSeries`` per outer term, which measured slower.  Each sum of products
is one ``dot``: in ``mat_vec``, ``mat_mul``, ``series_det``,
``recurrent_layers`` and the three stages of every tree sum.  A tree sum
is a fold, then a contraction, then an expansion: the ``fold`` of
``trees.TreePolyCache`` builds label-multiset states, only for the
multisets of its ``live``, those whose partials of H are not all exactly
zero, its ``contract`` pairs them with the mixed partials of H, and
``trees.tree_expansion`` sums z + weight(T) q_T over the trees.  The
multilinear form ``BForm`` is a fold and a contraction, ``invert_bcw``
the expansion with constant weights 1/aut(T), and the formal flow the
one with weights in t (``map``) or with their values at a point
(``at``), both on one pass of tree sums.
A zero factor is left out of a capped sum only when it is
``known_zero`` through the cap.  No product asserts its truncation.
``inverse_powers`` is the one reciprocal: the binomial series of
(1 - x)^(-a), which its products and sums certify, serves
``unit_inverse`` and the factors of the coefficient formulas
(``inversion.inverse_power_factors``).
``series_sum`` is the one way other series are summed, ``+`` included, so
no other module accumulates terms or restates the truncation rule of a
sum.  No stored coefficient is ever zero, which ``is_zero`` and ``order``
rely on.  ``first_mismatch`` is the one comparison of series through a
degree: both ``eq_through`` and every method-agreement, fixed-point and
identity check call it, and it names the first differing coefficient.

The packed view is the one stored form: an ``MSeries`` holds its view and
nothing else.  The constructor packs the terms it is given at once, and
every op reads the views of its operands and stores its result as a view.
That covers products, sums, compositions and ``taylor_sums``, the unary
ops (``scale``, ``-``, ``mul_monomial``, ``truncate``, ``diff``,
``pdiff``, ``shift_param``), the parameter ops (``with_params``,
``eval_param``, ``subst_param_sum``) and ``first_mismatch``, which
cross-multiplies numerators.  A ``Rat`` is built only at the edges:
``series_from_terms`` and the factories take them, ``terms`` decodes a new
dict from the rows on every read (for serializing and formatting), with
no cache, ``coefficient`` builds the one coefficient it looks up, and
``first_mismatch`` builds the two of the pair it names.  No view is
changed after construction, so all values are immutable and all
operations are pure, and the module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations
from operator import lshift
from typing import Iterable, Sequence

from .errors import (
    CanonicalFormError,
    DimensionMismatch,
    SubstitutionError,
    TruncationError,
)
from .packed import View, WIDTH, decode, mac, normalized, pack, repack, summed, zero_key
from .rat import ONE, Rat, ZERO, rat_to_str

INF = math.inf


def _pack(terms: dict, n, nparams) -> View:
    """The packed view of the {exponent: coefficient} `terms` (see
    ``packed``)."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    nums = [c.numerator * (den // c.denominator) for c in terms.values()]
    return pack(list(terms), nums, den, n, nparams)


def _views(series, span):
    """(width, views of `series`) with a bias above `span`, the largest
    |exponent| of any sum of keys to be formed, so that no field carries:
    the kept views if they share such a width, else wider ones, not kept."""
    views = [s._view for s in series]
    width = views[0].width if views else WIDTH
    if span >= 1 << (width - 1) or len(views) > 1 and any(v.width != width for v in views):
        width = span.bit_length() + 1
        views = [repack(v.rows, v.den, s.n, s.nparams, v.width, width) for s, v in zip(series, views)]
    return width, views


def _stored(n, trunc, nparams, view: View) -> "MSeries":
    """The series held as the packed `view`, which is not packed again."""
    s = MSeries.__new__(MSeries)
    s.n, s.nparams, s.trunc, s._view = n, nparams, trunc, view
    return s


def dot(pairs: Iterable, cap=None) -> "MSeries":
    """Sum of a * b over a non-empty iterable of (a, b) pairs of one layout,
    in one pass: each operand's view is read once, the truncation is the
    least of `cap` and each min(Da + o(b), Db + o(a), Da + Db + 1), and
    each pair with terms whose orders sum to at most it runs ``mac`` once,
    shorter view outside, numerators over the lcm of the denominator
    products; so terms and truncation are those of ``series_sum`` of the
    capped ``mul``s.  A lone pair at a width holding the span (most
    ``mul``s) skips ``_views`` and the lcm."""
    pairs = list(pairs)
    first = pairs[0][0]
    trunc, found = INF if cap is None else cap, []
    for a, b in pairs:
        first._check_compat(a)
        a._check_compat(b)
        va, vb = a._view, b._view
        if len(va.degs) > len(vb.degs):
            a, b, va, vb = b, a, vb, va
        oa, ob = va.degs[0] if va.degs else INF, vb.degs[0] if vb.degs else INF
        trunc = min(trunc, a.trunc + ob, b.trunc + oa, a.trunc + b.trunc + 1)
        if va.degs:  # the shorter view, so both have terms
            found.append((oa + ob, a, b, va, vb))
    live = [pair for pair in found if pair[0] <= trunc]
    n, nparams = first.n, first.nparams
    if not live:
        return MSeries.zero(n, trunc, nparams)
    span = max(va.span + vb.span for _, _, _, va, vb in live)
    _, _, _, va, vb = live[0]
    if len(live) == 1 and va.width == vb.width and span < 1 << (va.width - 1):
        width, views, den = va.width, [(va, vb)], va.den * vb.den
    else:
        width, views = _views([s for pair in live for s in pair[1:3]], span)
        views = list(zip(views[::2], views[1::2]))
        den = math.lcm(*[va.den * vb.den for va, vb in views])
    acc = {}
    for va, vb in views:
        mac(acc, va.rows, -va.zero, den // (va.den * vb.den), vb, trunc)
    return _stored(n, trunc, nparams, summed(n, nparams, width, acc, den, span))


class MSeries:
    """One truncated power series, or a Laurent expansion when some
    exponents are negative, held as its packed view only: the constructor
    packs the {exponent: coefficient} dict it is given, ``terms`` decodes
    a fresh dict from the rows on every read, and ``coefficient`` looks up
    one.  Use the factory helpers or :func:`series_from_terms`; the raw
    constructor trusts its input."""

    __slots__ = ("n", "nparams", "trunc", "_view")

    def __init__(self, n, trunc, terms, nparams=0):
        self.n = n
        self.nparams = nparams
        self.trunc = trunc
        self._view = _pack(terms, n, nparams)

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, n, trunc=INF, nparams=0):
        return _stored(n, trunc, nparams, View(WIDTH, zero_key(WIDTH, n + nparams), [], [], 1, 0))

    @classmethod
    def const(cls, n, value, trunc=INF, nparams=0):
        value = Rat(value)
        terms = {(0,) * (n + nparams): value} if value and trunc >= 0 else {}
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
        if len(exp) != n + nparams:
            raise DimensionMismatch(
                f"monomial exponent length {len(exp)}, expected {n + nparams}"
            )
        keep = value and sum(exp[:n]) <= trunc
        return cls(n, trunc, {exp: value} if keep else {}, nparams)

    # -- bookkeeping ---------------------------------------------------------

    def zdeg(self, exp) -> int:
        return sum(exp[: self.n]) if self.nparams else sum(exp)

    @property
    def terms(self) -> dict:
        """{exponent: coefficient}, a new dict decoded from the rows on
        every read: for the edges (serializing, formatting, tests), not for
        loops."""
        v = self._view
        exps = decode([r[1] for r in v.rows], self.n + self.nparams, v.width)
        return {e: Rat(r[2], v.den) for e, r in zip(exps, v.rows)}

    def coefficient(self, exp) -> Rat:
        """The coefficient of z^exp, looked up by its key on the rows, so
        that no other coefficient is built.  An exponent beyond the view's
        span has no row, and is not packed, as its key could carry."""
        v = self._view
        if max(map(abs, exp), default=0) > v.span:
            return ZERO
        key = sum(map(lshift, exp, range(0, v.width * len(exp), v.width)), v.zero)
        return next((Rat(a, v.den) for _, k, a in v.rows if k == key), ZERO)

    @property
    def order(self):
        """Minimal total z-degree of a stored term; inf for the zero series."""
        degs = self._view.degs
        return degs[0] if degs else INF

    def _rows_op(self, trunc, rows, den, width=None, span=None) -> "MSeries":
        """The series of `rows`, formed from the rows of this series' view
        by a unary op, at the view's width and span unless given."""
        v, n, nparams = self._view, self.n, self.nparams
        span = v.span if span is None else span
        return _stored(n, trunc, nparams, normalized(n, nparams, width or v.width, rows, den, span))

    def _shifted(self, exp, trunc) -> "MSeries":
        """z^exp times the series: each key moves by exp packed."""
        span = self._view.span + max(map(abs, exp), default=0)
        width, (v,) = _views([self], span)
        shift = sum(map(lshift, exp, range(0, width * len(exp), width)))
        d = sum(exp[: self.n])
        rows = [(e + d, k + shift, a) for e, k, a in v.rows]
        return self._rows_op(trunc, rows, v.den, width, span)

    @property
    def known_order(self):
        """Lower bound on the order of the true series this value represents
        (accounts for unknown terms beyond trunc)."""
        return min(self.order, self.trunc + 1)

    def is_zero(self) -> bool:
        return not self._view.rows

    def known_zero(self, degree) -> bool:
        """No terms, certified through `degree`: the test for leaving a
        factor out of a sum of products capped at `degree`.  A zero
        certified less far bounds the sum's truncation, so it stays in."""
        return self.is_zero() and self.trunc >= degree

    def is_zero_through(self, degree) -> bool:
        self._require_precision(degree)
        return self.is_zero() or self.order > degree

    def eq_through(self, other: "MSeries", degree) -> bool:
        return first_mismatch([(self, other)], degree) is None

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
            and first_mismatch([(self, other)]) is None
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MSeries):
            other = MSeries.const(self.n, other, nparams=self.nparams)
        return series_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        v = self._view
        rows = [(d, k, -a) for d, k, a in v.rows]
        return _stored(self.n, self.trunc, self.nparams, v._replace(rows=rows))

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
        c = c if isinstance(c, (int, Rat)) else Rat(c)
        if not c:
            return MSeries.zero(self.n, INF, self.nparams)
        v, p = self._view, c.numerator
        rows = [(d, k, a * p) for d, k, a in v.rows]
        return self._rows_op(self.trunc, rows, v.den * c.denominator)

    def mul_monomial(self, exp) -> "MSeries":
        """Multiply by z^exp; exponents may be negative.  The certified
        degree shifts by the monomial's z-degree."""
        exp = tuple(exp)
        if len(exp) != self.n + self.nparams:
            raise DimensionMismatch(
                f"monomial exponent length {len(exp)}, expected "
                f"{self.n + self.nparams}"
            )
        return self._shifted(exp, self.trunc + sum(exp[: self.n]))

    def mul(self, other: "MSeries", cap=None) -> "MSeries":
        """Product, exact through the largest certifiable degree
        min(Da + o(b), Db + o(a), Da + Db + 1), optionally capped: the
        ``dot`` of the one pair."""
        return dot(((self, other),), cap)

    def truncate(self, degree) -> "MSeries":
        if degree >= self.trunc:
            return self
        v = self._view
        return self._rows_op(degree, v.rows[: bisect_right(v.degs, degree)], v.den)

    def as_exact(self) -> "MSeries":
        """The same terms, certified exact (truncation INF)."""
        return _stored(self.n, INF, self.nparams, self._view)

    # -- differentiation ------------------------------------------------------

    def diff(self, i: int) -> "MSeries":
        """Partial derivative in the i-th geometric variable (0-based);
        certified degree drops by one."""
        if not 0 <= i < self.n:
            raise DimensionMismatch(f"variable index {i} out of range for n={self.n}")
        return self._diff_at(i, self.trunc - 1)

    def pdiff(self, j: int) -> "MSeries":
        """Derivative in the j-th parameter; z-precision is unchanged."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        return self._diff_at(self.n + j, self.trunc)

    def _diff_at(self, pos: int, trunc) -> "MSeries":
        """Derivative in exponent position `pos`, certified through `trunc`."""
        span = self._view.span + 1
        width, (v,) = _views([self], span)
        at, mask, bias = width * pos, (1 << width) - 1, 1 << (width - 1)
        d, unit = int(pos < self.n), 1 << width * pos
        rows = [
            (e - d, k - unit, a * x)
            for e, k, a in v.rows
            for x in [(k >> at & mask) - bias]
            if x
        ]
        return self._rows_op(trunc, rows, v.den, width, span)

    # -- parameter handling ---------------------------------------------------

    def with_params(self, extra: int) -> "MSeries":
        """Append `extra` parameter positions (exponent 0 everywhere): each
        key gains the bias of the new fields above its top field."""
        if extra == 0:
            return self
        v, nparams = self._view, self.nparams + extra
        zero = zero_key(v.width, self.n + nparams)
        rows = [(d, k + zero - v.zero, a) for d, k, a in v.rows]
        return _stored(self.n, self.trunc, nparams, v._replace(zero=zero, rows=rows))

    def shift_param(self, j: int, k: int = 1) -> "MSeries":
        """Multiply by the j-th parameter raised to the k-th power."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        pos = self.n + j
        return self._shifted((0,) * pos + (k,) + (0,) * (self.nparams - j - 1), self.trunc)

    def eval_param(self, j: int, value) -> "MSeries":
        """Substitute an exact rational p/q for the j-th parameter (removed
        from the exponent layout).  With lo <= 0 <= hi bounding the rows'
        exponents e of it, each numerator is scaled by p^(e - lo) q^(hi - e)
        and the denominator by p^(-lo) q^hi, so every factor stays an
        integer; the rows, field j dropped from their keys, meet in one
        accumulator."""
        if not 0 <= j < self.nparams:
            raise DimensionMismatch(f"parameter index {j} out of range")
        value = Rat(value)
        p, q = value.numerator, value.denominator
        v, n, nparams = self._view, self.n, self.nparams - 1
        width, at = v.width, v.width * (n + j)
        mask, bias, below = (1 << width) - 1, 1 << (width - 1), (1 << at) - 1
        exps = [(k >> at & mask) - bias for _, k, _ in v.rows]
        lo, hi = min([0, *exps]), max([0, *exps])
        if lo < 0 and not p:
            raise ZeroDivisionError("a negative power of the parameter at 0")
        weight = {e: p ** (e - lo) * q ** (hi - e) for e in set(exps)}
        acc = {}
        for e, (_, k, a) in zip(exps, v.rows):
            key = (k & below) | (k >> (at + width)) << at
            acc[key] = acc.get(key, 0) + a * weight[e]
        den = v.den * p ** -lo * q ** hi
        return _stored(n, self.trunc, nparams, summed(n, nparams, width, acc, den, v.span))

    def subst_param_sum(self, j: int, k: int) -> "MSeries":
        """Substitute parameter j := parameter j + parameter k (binomial
        expansion); used for reindexing deformations like t -> t + s.  A row
        whose exponent of j is a adds r (unit_k - unit_j) to its key with
        weight C(a, r), r = 0..a, into one accumulator, at a width that
        holds twice the span.  A negative a has no polynomial expansion."""
        if j == k:
            raise DimensionMismatch("parameters must differ")
        if not (0 <= j < self.nparams and 0 <= k < self.nparams):
            raise DimensionMismatch(f"parameter index {j} or {k} out of range")
        n, nparams = self.n, self.nparams
        span = 2 * self._view.span
        width, (v,) = _views([self], span)
        at, mask, bias = width * (n + j), (1 << width) - 1, 1 << (width - 1)
        step = (1 << width * (n + k)) - (1 << at)
        acc = {}
        for _, key, num in v.rows:
            a = (key >> at & mask) - bias
            if a < 0:
                raise SubstitutionError(f"parameter {j} to the power {a} has no expansion")
            for r in range(a + 1):
                key_r = key + r * step
                acc[key_r] = acc.get(key_r, 0) + num * math.comb(a, r)
        return _stored(n, self.trunc, nparams, summed(n, nparams, width, acc, v.den, span))

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

    # -- presentation ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (self.zdeg(item[0]), item[0]))

    def format(self, names=None, param_names=None) -> str:
        if self.is_zero():
            return "0"
        names = names or default_names(self.n)
        param_names = param_names or default_param_names(self.nparams)
        allnames = list(names) + list(param_names)
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(allnames, e) if k)
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
    return ["t", "s"][:p] + [f"u{i}" for i in range(max(0, p - 2))]


def series_from_terms(n, trunc, items: Iterable, nparams=0) -> MSeries:
    """Validating constructor: duplicate exponents are summed, zero
    coefficients dropped.  Rejects negative exponents, wrong exponent
    length, and terms whose z-degree exceeds the truncation bound; an
    error names the exponent by ``_clipped``, so its line stays short."""
    width, out = n + nparams, {}
    for exp, coeff in items:
        exp = tuple(exp)
        if len(exp) != width:
            raise DimensionMismatch(f"exponent has {len(exp)} entries, expected {width}")
        if any(k < 0 for k in exp):
            raise TruncationError(f"negative exponent {_clipped(exp)}")
        if sum(exp[:n]) > trunc:
            raise TruncationError(f"term {_clipped(exp)} exceeds truncation bound {trunc}")
        coeff = coeff if type(coeff) is Rat else Rat(coeff)
        prev = out.get(exp)
        out[exp] = coeff if prev is None else prev + coeff
    return MSeries(n, trunc, {e: c for e, c in out.items() if c}, nparams)


def _clipped(exp, limit=40) -> str:
    """The exponent as text, or its first `limit` characters and its
    number of entries."""
    text = str(exp[:limit])
    if len(exp) <= limit and len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(exp)} entries)"


def series_sum(parts: Iterable[MSeries]) -> MSeries:
    """Sum of a non-empty iterable of series with one layout, in one
    integer accumulator: the parts' views at a shared width, numerators
    over the lcm of their denominators, each cut at the least truncation
    among the parts, which certifies the sum; so terms and truncation are
    those of folding ``+``.  A lone part is returned as it is."""
    first, *rest = parts
    if not rest:
        return first
    for p in rest:
        first._check_compat(p)
    parts = [first, *rest]
    n, nparams, trunc = first.n, first.nparams, min(p.trunc for p in parts)
    span = max(p._view.span for p in parts)
    width, views = _views(parts, span)
    den = math.lcm(*[v.den for v in views])
    acc = {}
    for v in views:
        mac(acc, ((0, 0, 1),), 0, den // v.den, v, trunc)
    return _stored(n, trunc, nparams, summed(n, nparams, width, acc, den, span))


# -- composition ---------------------------------------------------------------


def _power_table(zexps, g: "PolyMap", cap):
    """Memoized powers g^alpha for every z-exponent alpha needed, each
    obtained from a predecessor by one series multiplication, filled in
    graded order."""
    n = g.n
    needed = {}
    for a in zexps:
        a = tuple(a)
        while a not in needed and any(a):
            i = next(j for j, k in enumerate(a) if k)
            needed[a] = i, a[:i] + (a[i] - 1,) + a[i + 1 :]
            a = needed[a][1]
    table = {(0,) * n: MSeries.const(n, ONE, nparams=g.nparams)}
    for a, (i, prev) in sorted(needed.items(), key=lambda item: (sum(item[0]), item[0])):
        table[a] = table[prev].mul(g.components[i], cap=cap)
    return table


def _compose_trunc(f: MSeries, g: "PolyMap"):
    og = min(c.known_order for c in g.components)
    gtrunc = min(c.trunc for c in g.components)
    bounds = []
    if f.trunc != INF:
        bounds.append((f.trunc + 1) * og - 1)
    positive = next((d for d in f._view.degs if d >= 1), None)
    if gtrunc != INF and positive is not None:
        bounds.append((positive - 1) * og + gtrunc)
    return min(bounds, default=INF)


def compose(f: MSeries, g, cap=None) -> MSeries:
    """Substitute the components of g for the z-variables of f.

    Every component of g must have z-order >= 1 (no constant term), since a
    constant term would make each truncated coefficient an infinite sum.
    f must have no negative z-exponent.  Parameters of f and g pass
    through untouched.
    """
    g = g if isinstance(g, PolyMap) else PolyMap(g)
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
    n, nparams = f0.n, f0.nparams
    outer = [f._view for f in fs]
    exps = [decode([r[1] for r in v.rows], n + nparams, v.width) for v in outer]
    zexps = list({e[:n] for es in exps for e in es})
    if any(x < 0 for e in zexps for x in e):
        raise SubstitutionError("cannot substitute into a negative power of z")
    table = _power_table(zexps, g, trunc)
    # the parameter exponent of a term of f enters as an offset to the keys
    pspan = max((abs(x) for es in exps for e in es for x in e[n:]), default=0)
    entries = [table[a] for a in zexps]
    span = max((s._view.span for s in entries), default=0) + pspan
    width, views = _views(entries, span)
    views = dict(zip(zexps, views))
    results = []
    for v, es in zip(outer, exps):
        den = v.den * math.lcm(*(views[e[:n]].den for e in es))
        acc = {}
        for e, (_, _, a) in zip(es, v.rows):
            view = views[e[:n]]
            scale = a * (den // (v.den * view.den))
            offset = sum(x << width * i for i, x in enumerate(e[n:], n))
            mac(acc, ((0, 0, 1),), offset, scale, view, trunc)
        results.append(_stored(n, trunc, nparams, summed(n, nparams, width, acc, den, span)))
    return results


def taylor_sums(n, parts, degree) -> list:
    """[sum over (q, m) in `parts` of (D^m / m!)(z_i q) for i < n], for q in
    n variables without parameters or negative exponents.  A term c z^e of
    q gives c * prod_k C(e_k + [k = i], m_k) z^(e + e_i - m), so each sum is
    one accumulator over the packed rows of the q's, with numerators over
    the lcm of their denominators.  Every sum is certified through the
    least of `degree` and each q.trunc + 1 - |m|, as z_i adds a degree and
    each derivative takes one away; terms above that are dropped."""
    trunc = min([degree] + [q.trunc + 1 - sum(m) for q, m in parts])
    qs = [q for q, _ in parts]
    span = max((q._view.span for q in qs), default=0) + 1
    width, views = _views(qs, span)
    den = math.lcm(*[v.den for v in views])
    shifts = range(0, width * n, width)
    accs = [{} for _ in range(n)]
    for (_, m), v in zip(parts, views):
        rows = v.rows[: bisect_right(v.degs, trunc - 1 + sum(m))]
        drop, scale = sum(map(lshift, m, shifts)), den // v.den
        for e, (_, k, a) in zip(decode([r[1] for r in rows], n, width), rows):
            e, k, a = list(e), k - drop, a * scale
            for i, acc in enumerate(accs):
                e[i] += 1
                weight = math.prod(map(math.comb, e, m))
                e[i] -= 1
                if weight:
                    key = k + (1 << width * i)
                    acc[key] = acc.get(key, 0) + a * weight
    return [_stored(n, trunc, 0, summed(n, 0, width, acc, den, span)) for acc in accs]


# -- maps -----------------------------------------------------------------------


class PolyMap:
    """A formal self-map of affine n-space: an n-tuple of series sharing the
    same variable and parameter layout."""

    # _graded: the deformations built with this map as H, unset until
    # ``inversion.invert_recurrent`` builds one
    __slots__ = ("n", "components", "_graded")

    def __init__(self, components: Iterable[MSeries]):
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
        return cls(MSeries.variable(n, i, trunc, nparams) for i in range(n))

    @classmethod
    def zero(cls, n, trunc=INF, nparams=0):
        return cls(MSeries.zero(n, trunc, nparams) for _ in range(n))

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
        return PolyMap(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other):
        return PolyMap(a - b for a, b in zip(self.components, other.components))

    def __neg__(self):
        return PolyMap(-a for a in self.components)

    def scale(self, c):
        return PolyMap(a.scale(c) for a in self.components)

    def truncate(self, degree):
        return PolyMap(a.truncate(degree) for a in self.components)

    def with_params(self, extra):
        return PolyMap(a.with_params(extra) for a in self.components)

    def eval_param(self, j, value):
        return PolyMap(a.eval_param(j, value) for a in self.components)

    def shift_param(self, j, k=1):
        return PolyMap(a.shift_param(j, k) for a in self.components)

    def compose(self, g: "PolyMap", cap=None) -> "PolyMap":
        """self after g, i.e. z -> self(g(z))."""
        return PolyMap(compose_map_components(self.components, g, cap))

    def jacobian(self):
        return [[c.diff(j) for j in range(self.n)] for c in self.components]

    def eq_through(self, other: "PolyMap", degree) -> bool:
        return first_mismatch(zip(self.components, other.components), degree) is None

    def max_degree(self):
        """Largest z-degree of a stored term (polynomial degree when exact)."""
        return max((d for c in self.components for d in c._view.degs), default=0)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if mixed/zero."""
        degs = {d for c in self.components for d in c._view.degs}
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
    """(matrix of series) @ (sequence of series), one ``dot`` per entry."""
    return [dot(zip(row, v), cap) for row in a]


def mat_mul(a, b, cap=None):
    return [[dot(zip(row, col), cap) for col in zip(*b)] for row in a]


def first_asymmetry(matrix):
    """The first (i, j), i < j, whose entries (i, j) and (j, i) store
    different terms, or None when the square matrix of series is exactly
    symmetric: the one test of a symmetric Jacobian (a gradient map).
    Entries compare as their views' width, den and sorted rows, as equal
    views may hold the rows of one degree in either order."""
    views = [[(s._view.width, s._view.den, sorted(s._view.rows)) for s in row] for row in matrix]
    pairs = combinations(range(len(matrix)), 2)
    return next(((i, j) for i, j in pairs if views[i][j] != views[j][i]), None)


def inverse_powers(x: MSeries, exps: Iterable[int], through) -> dict:
    """{a: (1 - x)^(-a) for a in exps} certified through `through`, for x
    of z-order >= 1 (a Laurent x included), as the binomial series
    sum_m C(a-1+m, m) x^m.  x^m has order >= m, so the powers stop at
    m = through or at the first one with no terms, which stays in the sum
    for its truncation.  Every product and sum certifies its own
    truncation, so the result needs no lemma.  (1 - x)^0 = 1 exactly."""
    x = x.truncate(through)
    powers = [x]
    while len(powers) < through and not powers[-1].is_zero():
        powers.append(powers[-1].mul(x, cap=through))
    one = MSeries.const(x.n, ONE, through, x.nparams)
    return {
        a: series_sum([one] + [p.scale(math.comb(a - 1 + m, m)) for m, p in enumerate(powers, 1)])
        if a else MSeries.const(x.n, ONE, nparams=x.nparams)
        for a in exps
    }


def unit_inverse(s: MSeries, degree) -> MSeries:
    """Reciprocal of a series with nonzero constant term c0, exact through
    `degree`.  The part of z-degree <= 0 must be a nonzero constant: a
    parameter there, as in 1 + t, has no reciprocal polynomial in the
    parameters.  1/s = (1 - u)^(-1) / c0 with u = 1 - s/c0 of z-order
    >= 1, by ``inverse_powers``."""
    c0 = s.coefficient((0,) * (s.n + s.nparams))
    if not c0:
        raise SubstitutionError("series has no constant term, not invertible")
    if bisect_right(s._view.degs, 0) > 1:
        raise SubstitutionError(
            "the part of z-degree <= 0 is not a constant, not invertible"
        )
    if degree > s.trunc:
        raise TruncationError(
            f"need input through degree {degree}, certified {s.trunc}"
        )
    return inverse_powers(1 - s.scale(ONE / c0), [1], degree)[1].scale(ONE / c0)


def series_det(matrix, cap=None) -> MSeries:
    """Determinant of a square matrix of series, division-free: dynamic
    programming over column subsets, O(n 2^n) series multiplications, each
    subset's value one ``dot`` over (smaller subset's value, +-entry) pairs.

    The result claims no truncation beyond that of each product it sums.
    A zero entry is skipped only when it is known to vanish through the
    cap (all of it when there is none); any other zero entry enters its
    ``dot``, whose certified truncation it lowers.  Exact entries give an
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
        negated = [-entry for entry in row]
        pairs = {}
        for cols, val in states.items():
            for j, entry in enumerate(row):
                if j in cols or entry.known_zero(limit):
                    continue
                if sum(1 for c in cols if c > j) % 2:
                    entry = negated[j]
                pairs.setdefault(tuple(sorted(cols + (j,))), []).append((val, entry))
        states = {cols: dot(ps, cap) for cols, ps in pairs.items()}
        if not states:
            break
    full = tuple(range(len(matrix)))
    return states.get(full, MSeries.zero(first.n, limit, first.nparams))


def jacobian(m: PolyMap):
    """Matrix of first partials: entry (i, j) = d m_i / d z_j."""
    return m.jacobian()


def jacobian_det(m: PolyMap, cap=None) -> MSeries:
    return series_det(m.jacobian(), cap=cap)


def first_mismatch(pairs, through=None):
    """The one comparison of truncated series: the first pair whose two
    series differ through `through` (else through their lesser
    truncation), as (index, "exponent e: a vs b") with its first differing
    exponent in graded-lex order, or None; the index counts the pairs.
    Raises DimensionMismatch on a pair of different layouts and
    TruncationError on a series not certified through the degree."""
    for i, (a, b) in enumerate(pairs):
        a._check_compat(b)
        degree = min(a.trunc, b.trunc) if through is None else through
        a._require_precision(degree)
        b._require_precision(degree)
        width, (va, vb) = _views([a, b], max(a._view.span, b._view.span))
        g = math.gcd(va.den, vb.den)
        da, db = (
            {k: x * (other.den // g) for _, k, x in v.rows[: bisect_right(v.degs, degree)]}
            for v, other in ((va, vb), (vb, va))
        )
        if da != db:
            keys = [k for k in da.keys() | db.keys() if da.get(k) != db.get(k)]
            exps = decode(keys, a.n + a.nparams, width)
            exp, k = min(zip(exps, keys), key=lambda ek: (a.zdeg(ek[0]), ek[0]))
            den = va.den // g * vb.den
            return i, f"exponent {exp}: {Rat(da.get(k, 0), den)} vs {Rat(db.get(k, 0), den)}"
    return None
