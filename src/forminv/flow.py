"""The deformation family F_t = z - tH and everything attached to it.

The inverse of F_t is z + t N_t for a unique N_t whose t-expansion layers
N_[m] obey the same recurrence as the graded inverse; N_t solves the
transport equation dN/dt = JN . N with N at t=0 equal to H.  This module
packages the deformed inverse, evaluates that residual symbolically in t,
runs the related identity checks (composition closure of the family, the
transported Cauchy problem, the homogeneous Euler identities, the
quadratic-nilpotent shortcut), builds the formal flow from rooted-tree
data, computes integer powers of F, probes layer vanishing for nilpotent
homogeneous maps, and detects symmetric Jacobians (the gradient-map case,
where the transport equation is the n-dimensional inviscid Burgers
system).

Parameters t and s are exact polynomial variables carried in the series
exponents, so every identity here is checked exactly, coefficient by
coefficient, through the stated z-degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import HomogeneityError, NilpotencyError
from .inversion import (
    GradedInverse,
    invert_fixed_point,
    invert_recurrent,
    recurrent_layers,
)
from .rat import Rat
from .series import (
    INF,
    MapF,
    MSeries,
    PolyMap,
    compose_map_components,
    first_mismatch,
    mat_mul,
    mat_vec,
    series_sum,
)
from .tpoly import TPoly
from .trees import order_polynomial, tree_sums


# -- reports -----------------------------------------------------------------


@dataclass
class CheckItem:
    name: str
    ok: bool
    detail: str = ""
    first_failure: Optional[str] = None

    def to_dict(self):
        out = {"name": self.name, "status": "pass" if self.ok else "FAIL"}
        if self.detail:
            out["detail"] = self.detail
        if self.first_failure:
            out["first_failure"] = self.first_failure
        return out


@dataclass
class Report:
    title: str
    items: list[CheckItem] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, name, ok, detail="", first_failure=None):
        self.items.append(CheckItem(name, bool(ok), detail, first_failure))

    def add_equality(self, name, lhs: PolyMap, rhs: PolyMap, degree, detail=""):
        failure = None
        diff = first_mismatch(zip(lhs.components, rhs.components), through=degree)
        if diff is not None:
            i, exp, va, vb = diff
            failure = f"component {i + 1}, exponent {exp}: {va} vs {vb}"
        self.add(name, failure is None, detail, failure)

    def to_dict(self):
        return {
            "title": self.title,
            "status": "pass" if self.ok else "FAIL",
            "checks": [item.to_dict() for item in self.items],
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"{self.title}: {'pass' if self.ok else 'FAIL'}"]
        for item in self.items:
            mark = "ok" if item.ok else "FAIL"
            line = f"  [{mark}] {item.name}"
            if item.detail:
                line += f" ({item.detail})"
            lines.append(line)
            if item.first_failure:
                lines.append(f"        first failure: {item.first_failure}")
        for key, value in self.data.items():
            lines.append(f"  {key} = {value}")
        return "\n".join(lines)


# -- the deformed inverse ------------------------------------------------------


def deformation_inverse(f: MapF, degree: int) -> GradedInverse:
    """The recurrent layers of `invert_recurrent`, read through their
    t-graded view:  G_t = z + t N_t inverts z - tH through `degree` for
    symbolic t."""
    return invert_recurrent(f, degree)


def pde_residual(dinv: GradedInverse) -> PolyMap:
    """dN/dt - JN . N, symbolic in t; identically zero for any genuine
    deformed inverse, and sensitive to any corrupted layer."""
    lhs = PolyMap(tuple(c.pdiff(0) for c in dinv.n_t.components))
    rhs = PolyMap(mat_vec(dinv.n_t.jacobian(), dinv.n_t.components))
    return lhs - rhs


# -- identity checks -----------------------------------------------------------


def check_lemma31(f: MapF, degree: int) -> Report:
    """Composition identities of the deformed inverse and the matching
    nilpotency behaviour of JH and JN_t.

    N_t through `degree` suffices: F_t and G_t have order 1, so composing
    with them certifies through `degree`, and JN_t, certified through
    `degree` - 1, composes to the degree its identity compares.  The
    nilpotency item reads JN_t's index through truncation, from powers
    cut at `degree` - 1, so a non-nilpotent JH can seem to have an index
    there (the known defect on ROADMAP.md's list)."""
    n = f.n
    dinv = deformation_inverse(f, degree)
    report = Report(f"deformation composition identities through degree {degree}")

    f_t = dinv.f_t()
    h_lift = f.h.with_params(1)
    n_of_ft = dinv.n_t.compose(f_t, cap=degree)
    report.add_equality("N_t(F_t) = H", n_of_ft, h_lift.truncate(degree), degree)

    h_of_gt = h_lift.compose(dinv.g_t(), cap=degree)
    report.add_equality("H(G_t) = N_t", h_of_gt, dinv.n_t, degree)

    jn = dinv.n_t.jacobian()
    flat = [entry for row in jn for entry in row]
    composed = compose_map_components(flat, f_t, cap=degree - 1)
    jh = f.h.jacobian()
    jh_t = power = [[e.with_params(1) for e in row] for row in jh]
    terms = []  # terms[k-1]: the entries of JH^k t^(k-1), row by row
    for k in range(1, degree + 1):
        terms.append([e.shift_param(0, k - 1) for row in power for e in row])
        if k < degree:
            power = mat_mul(power, jh_t, cap=degree - 1)
    target = (series_sum(parts).truncate(degree - 1) for parts in zip(*terms))
    failure = None
    diff = first_mismatch(zip(composed, target), through=degree - 1)
    if diff is not None:
        idx, exp, va, vb = diff
        failure = f"entry ({idx // n + 1},{idx % n + 1}), exponent {exp}: {va} vs {vb}"
    report.add(
        "JN_t(F_t) = sum_k JH^k t^(k-1)",
        failure is None,
        f"checked through z-degree {degree - 1}",
        failure,
    )

    jh_index = _nilpotency_index(jh, n)
    jn_index = _nilpotency_index(jn, n, degree - 1)
    report.data["JH nilpotency index"] = jh_index if jh_index else "not nilpotent"
    report.data["JN_t nilpotency index (through truncation)"] = (
        jn_index if jn_index else "not nilpotent"
    )
    report.add(
        "nilpotency indices match",
        jh_index == jn_index,
        f"JH: {jh_index}, JN_t: {jn_index} (None = not nilpotent)",
    )
    return report


def _nilpotency_index(mat, n, degree=INF) -> Optional[int]:
    """Index of a matrix whose powers vanish through z-degree `degree`
    (all of it for an exact polynomial matrix), or None.  Over the integral
    domain Q[z] a nilpotent matrix has index at most n."""
    power = mat
    for k in range(1, n + 1):
        if all(entry.is_zero_through(degree) for row in power for entry in row):
            return k
        power = mat_mul(power, mat, cap=degree)
    return None


def check_newp(h: PolyMap, degree: int) -> Report:
    """Characterization of the maps whose inverse is z + H: this happens
    exactly when JH . H = 0, in which case every integer power of z - H is
    z - mH.  When JH . H is nonzero, the second layer N_[2] = JH . H is
    itself nonzero."""
    report = Report("inverse = z + H iff JH.H = 0")
    jh_h = PolyMap(mat_vec(h.jacobian(), h.components))
    annihilates = all(c.is_zero() for c in jh_h.components)
    report.data["JH.H"] = "0" if annihilates else jh_h.format()
    f = MapF(h)
    if annihilates:
        g = invert_fixed_point(f, degree)
        expected = (PolyMap.identity(h.n, trunc=INF) + h).truncate(degree)
        report.add_equality("G = z + H", g, expected, degree)
        for m in range(1, 5):
            powered = power_map(f, m, degree)
            target = (
                PolyMap.identity(h.n, trunc=INF) - h.scale(m)
            ).truncate(degree)
            report.add_equality(f"F^[{m}] = z - {m}H", powered, target, degree)
    else:
        layers = recurrent_layers(h, 3)
        nonzero = [
            m for m, layer in enumerate(layers, start=1)
            if m >= 2 and not all(c.is_zero() for c in layer.components)
        ]
        report.add(
            "some N_[m] != 0 for m >= 2",
            bool(nonzero),
            f"first nonzero higher layer: {nonzero[0] if nonzero else 'none'}",
        )
    return report


def check_bcw_quadratic_nilpotent(h: PolyMap, degree: int) -> Report:
    """For homogeneous H with JH^2 = 0 the inverse of z - H is exactly
    z + H.  Also verifies the Euler bridge JH^2 . z = d JH . H, which ties
    the matrix condition to the vector condition."""
    d = h.homogeneous_degree()
    if d is None or d < 2:
        raise HomogeneityError("needs homogeneous H of degree >= 2")
    report = Report("quadratic-nilpotent shortcut")
    jh = h.jacobian()
    jh2 = mat_mul(jh, jh)
    ident_vars = PolyMap.identity(h.n, trunc=INF)
    euler_lhs = PolyMap(mat_vec(jh2, ident_vars.components))
    euler_rhs = PolyMap(mat_vec(jh, h.components)).scale(d)
    report.add_equality(
        "JH^2 . z = d JH . H", euler_lhs, euler_rhs, 2 * h.max_degree()
    )
    is_nilpotent2 = all(e.is_zero() for row in jh2 for e in row)
    report.data["JH^2"] = "0" if is_nilpotent2 else "nonzero"
    if is_nilpotent2:
        g = ident_vars + h
        f = ident_vars - h
        report.add_equality(
            "F(z + H) = z exactly",
            f.compose(g),
            ident_vars,
            g.max_degree() * max(h.max_degree(), 1),
        )
        report.add_equality(
            "G(z - H) = z exactly",
            g.compose(f),
            ident_vars,
            g.max_degree() * max(h.max_degree(), 1),
        )
    else:
        report.add(
            "precondition gate",
            True,
            "JH^2 != 0: nothing asserted beyond the Euler bridge",
        )
    return report


def check_prop310(f: MapF, degree: int, s_order: int, t_order: int) -> Report:
    """The family is closed under inversion: z - s N_t has inverse
    z + s N_{t+s}, and both factor through the deformation itself."""
    n_t = deformation_inverse(f, degree).n_t.with_params(1)
    ident = PolyMap.identity(f.n, trunc=degree, nparams=2)
    u = ident - n_t.shift_param(1)  # z - s N_t
    n_ts = n_t.subst_param_sum(0, 1)
    v = ident + n_ts.shift_param(1)  # z + s N_{t+s}

    report = Report(
        f"closure under inversion through degree {degree} "
        f"(verified exactly in t and s; stated orders t<={t_order}, s<={s_order})"
    )
    report.add_equality("U_{s,t}(V_{s,t}) = z", u.compose(v, cap=degree), ident, degree)
    report.add_equality("V_{s,t}(U_{s,t}) = z", v.compose(u, cap=degree), ident, degree)

    h2 = f.h.with_params(2)
    f_ts = ident - h2.shift_param(0) - h2.shift_param(1)  # z - (t+s)H
    g_t = ident + n_t.shift_param(0)
    report.add_equality(
        "U_{s,t} = F_{t+s} o G_t", f_ts.compose(g_t, cap=degree), u, degree
    )
    f_t = ident - h2.shift_param(0)
    g_ts = ident + n_ts.shift_param(0) + n_ts.shift_param(1)  # z + (t+s)N_{t+s}
    report.add_equality(
        "V_{s,t} = F_t o G_{s+t}", f_t.compose(g_ts, cap=degree), v, degree
    )
    return report


def check_gpde(u0: PolyMap, h: PolyMap, degree: int) -> Report:
    """Transport of an arbitrary initial series along the deformation:
    U_t = U_0(z + t N_t) solves dU/dt = JU . N_t with U at t=0 equal
    to U_0."""
    dinv = deformation_inverse(MapF(h), degree)
    u_t = u0.with_params(1).compose(dinv.g_t(), cap=degree)
    lhs = PolyMap(tuple(c.pdiff(0) for c in u_t.components))
    rhs = PolyMap(mat_vec(u_t.jacobian(), dinv.n_t.components))
    report = Report(f"transported Cauchy problem through degree {degree}")
    report.add_equality("dU_t/dt = JU_t . N_t", lhs, rhs, degree)
    report.add_equality(
        "U_{t=0} = U_0",
        u_t.eval_param(0, 0),
        u0.truncate(u_t.trunc),
        min(degree, u_t.trunc),
    )
    return report


def check_euler_identities(h: PolyMap, degree: int) -> Report:
    """The homogeneous-H identities tying N_t to JN_t through Euler's
    formula, including the two expansions of N_t and dN_t/dt in powers
    of JN_t applied to z.  The vectors JN_t^k z come by matrix-vector
    steps, JN_t^k z = JN_t (JN_t^(k-1) z), each capped at `degree`."""
    d = h.homogeneous_degree()
    if d is None or d < 2:
        raise HomogeneityError("needs homogeneous H of degree >= 2")
    n = h.n
    n_t = deformation_inverse(MapF(h), degree).n_t
    jn = n_t.jacobian()
    ident = PolyMap.identity(n, trunc=INF, nparams=1)

    report = Report(f"homogeneous Euler identities (d={d}) through degree {degree}")

    inner = ident - n_t.shift_param(0).scale(d - 1)
    rhs1 = PolyMap(mat_vec(jn, inner.components, cap=degree)).scale(Rat(1, d))
    report.add_equality("N_t = (1/d) JN_t (z - (d-1) t N_t)", n_t, rhs1, degree)

    lhs2 = PolyMap(mat_vec(jn, ident.components, cap=degree))
    jn_nt = PolyMap(mat_vec(jn, n_t.components, cap=degree))
    rhs2 = n_t.scale(d) + jn_nt.shift_param(0).scale(d - 1)
    report.add_equality("JN_t z = d(I + ((d-1)t/d) JN_t) N_t", lhs2, rhs2, degree)

    # expansions in powers of JN_t . z; the k-th term has z-order >= k+1
    ratio = Rat(d - 1, d)
    jnk_z = [lhs2]  # JN_t^k z for k = 1..degree
    for _ in range(1, degree):
        jnk_z.append(PolyMap(mat_vec(jn, jnk_z[-1].components, cap=degree)))
    zero = PolyMap.zero(n, degree, nparams=1)
    terms1, terms2 = [zero], [zero]
    for k in range(1, degree):
        coeff = (-ratio) ** (k - 1)
        terms1.append(jnk_z[k - 1].shift_param(0, k - 1).scale(coeff))
        terms2.append(jnk_z[k].shift_param(0, k - 1).scale(coeff))
    sum1 = PolyMap(map(series_sum, zip(*terms1)))
    sum2 = PolyMap(map(series_sum, zip(*terms2)))
    report.add_equality(
        "N_t = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^k z",
        n_t,
        sum1.scale(Rat(1, d)),
        degree,
    )
    dn_dt = PolyMap(tuple(c.pdiff(0) for c in n_t.components))
    report.add_equality(
        "dN_t/dt = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^(k+1) z",
        dn_dt,
        sum2.scale(Rat(1, d)),
        degree,
    )
    return report


# -- formal flow and powers ------------------------------------------------------


@dataclass(frozen=True)
class FlowSeries:
    """The one-parameter group through F: at t = 1 it is F itself, at
    t = -1 the inverse, at integer t the corresponding iterate.  Stored as
    a map whose coefficients are exact polynomials in t."""

    map: PolyMap  # one parameter (t)
    trunc: float

    @property
    def n(self):
        return self.map.n

    def at(self, t_value) -> PolyMap:
        return self.map.eval_param(0, t_value)

    def tpoly_coefficients(self) -> list[dict]:
        """Per component: {z-exponent: coefficient as a polynomial in t}."""
        out = []
        for comp in self.map.components:
            groups: dict = {}
            for e, c in comp.terms.items():
                ze, tdeg = e[: self.n], e[self.n]
                coeffs = groups.setdefault(ze, {})
                coeffs[tdeg] = c
            out.append(
                {
                    ze: TPoly([coeffs.get(j, 0) for j in range(max(coeffs) + 1)])
                    for ze, coeffs in sorted(groups.items())
                }
            )
        return out


def _tpoly_factor(n: int, poly: TPoly) -> MSeries:
    terms = {
        (0,) * n + (j,): c for j, c in enumerate(poly.coeffs) if c
    }
    return MSeries(n, INF, terms, 1)


def formal_flow(f: MapF, degree: int) -> FlowSeries:
    """F(z; t) = z + sum over trees T of (-1)^|T| W_T(t) P_T(z), where W_T
    is the strict order polynomial of T.  W_T(1) = 0 for |T| >= 2 collapses
    the sum to F at t = 1; W_T(-1) = (-1)^|T| recovers the tree-expansion
    inverse at t = -1."""
    n = f.n
    maps = [PolyMap.identity(n, trunc=degree, nparams=1)]
    for tree, sums in tree_sums(f.h, degree):
        if all(q.is_zero() for q in sums):
            continue
        sign = -1 if tree.size % 2 else 1
        weight = order_polynomial(tree).scale(Rat(sign, tree.aut))
        factor = _tpoly_factor(n, weight)
        comps = [
            MSeries.zero(n, degree, 1)
            if q.is_zero()
            else q.with_params(1).mul(factor, cap=degree)
            for q in sums
        ]
        maps.append(comps)
    flow_map = PolyMap(map(series_sum, zip(*maps))).truncate(degree)
    return FlowSeries(flow_map, degree)


def power_map(f: MapF, m: int, degree: int) -> PolyMap:
    """F^[m]: iterated composition for m >= 0, iterated inverse for m < 0."""
    if m == 0:
        return PolyMap.identity(f.n, trunc=degree)
    if m > 0:
        base = f.map
    else:
        base = invert_recurrent(f, degree).inverse_map()
    acc = base
    for _ in range(abs(m) - 1):
        acc = base.compose(acc, cap=degree)
    return acc.truncate(degree)


# -- experiments -----------------------------------------------------------------


@dataclass
class ProbeReport:
    homogeneous_degree: int
    layer_bound: int
    last_nonzero_layer: int
    vanished_within_bound: bool
    layer_degrees: list[int]

    def to_text(self) -> str:
        lines = [
            f"layer probe (homogeneous degree {self.homogeneous_degree}, "
            f"layers computed: {self.layer_bound})",
            f"  last nonzero layer: {self.last_nonzero_layer}",
        ]
        if self.vanished_within_bound:
            lines.append(
                "  all later layers vanish up to the bound: consistent with a "
                "polynomial deformed inverse (no claim beyond the bound)"
            )
        else:
            lines.append(
                "  nonzero at the bound itself: no vanishing observed; "
                "raise the bound for more evidence"
            )
        lines.append(f"  layer degrees observed: {self.layer_degrees}")
        return "\n".join(lines)


def polynomiality_probe(h: PolyMap, layer_bound: int) -> ProbeReport:
    """Compute exact layers N_[m] for m <= layer_bound for a homogeneous H
    with nilpotent JH, and report where they stop being nonzero.  This is
    an experiment with a stated bound, never a proof."""
    d = h.homogeneous_degree()
    if d is None or d < 2:
        raise HomogeneityError("probe needs homogeneous H of degree >= 2")
    jh = h.jacobian()
    if _nilpotency_index(jh, h.n) is None:
        raise NilpotencyError("JH is not nilpotent; the probe does not apply")
    layers = recurrent_layers(h, layer_bound)
    last = 0
    degrees = []
    for m, layer in enumerate(layers, start=1):
        if not all(c.is_zero() for c in layer.components):
            last = m
            degrees.append(layer.max_degree())
    return ProbeReport(
        homogeneous_degree=d,
        layer_bound=layer_bound,
        last_nonzero_layer=last,
        vanished_within_bound=last < layer_bound,
        layer_degrees=degrees,
    )


def symmetry_detector(h: PolyMap) -> tuple[bool, str]:
    """True when JH is symmetric (H is a gradient), in which case the
    deformation transport equation dN/dt = JN . N is exactly the
    n-dimensional inviscid Burgers system for this input."""
    jh = h.jacobian()
    n = h.n
    symmetric = all(
        jh[i][j].terms == jh[j][i].terms for i in range(n) for j in range(i + 1, n)
    )
    if symmetric:
        note = (
            "JH is symmetric (gradient map): the deformation transport "
            "equation is the n-dimensional inviscid Burgers system"
        )
    else:
        witness = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if jh[i][j].terms != jh[j][i].terms
        )
        note = f"JH is not symmetric: entries {witness} differ"
    return symmetric, note
