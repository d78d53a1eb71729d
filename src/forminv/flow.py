"""The deformation family F_t = z - tH and everything attached to it.

The inverse of F_t is z + t N_t for a unique N_t whose t-expansion layers
N_[m] obey the same recurrence as the graded inverse; N_t solves the
transport equation dN/dt = JN . N with N at t=0 equal to H.  This module
packages the deformed inverse, evaluates that residual symbolically in t,
runs the related identity checks (composition closure of the family, the
transported Cauchy problem, the homogeneous Euler identities, the maps
whose inverse is z + H), builds the formal flow from rooted-tree data,
computes integer powers of F, probes layer vanishing for nilpotent
homogeneous maps, and detects symmetric Jacobians (the gradient-map case,
where the transport equation is the n-dimensional inviscid Burgers
system: ``recurrent_layers`` computes such a map's layers from one scalar
potential, and ``check_pde`` checks that potential's Burgers equation).

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
    dot,
    first_asymmetry,
    first_mismatch,
    mat_mul,
    mat_vec,
    series_sum,
)
from .trees import graded_cutoff, order_polynomial, tree_expansion


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

    def add(self, name, ok, detail="", first_failure=None) -> CheckItem:
        self.items.append(CheckItem(name, bool(ok), detail, first_failure))
        return self.items[-1]

    def add_equality(self, name, lhs, rhs, degree, detail="") -> CheckItem:
        """lhs = rhs through `degree`, for two maps or two sequences of
        series; a failure names the component and the first differing
        coefficient."""
        failure = None
        diff = first_mismatch(zip(lhs, rhs), through=degree)
        if diff is not None:
            failure = f"component {diff[0] + 1}, {diff[1]}"
        return self.add(name, failure is None, detail, failure)

    def add_derived(self, name, premises, detail):
        """An item proved from earlier items: it holds exactly when all its
        premises hold, and a failure names the premises that failed."""
        failed = "; ".join(p.name for p in premises if not p.ok)
        detail += "; derived from " + "; ".join(p.name for p in premises)
        self.add(name, not failed, detail, f"premise failed: {failed}" if failed else None)

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
    symbolic t.  Built once per H object and degree and shared by every
    suite here, so G_t, N_t and JN_t of one map are computed once."""
    return invert_recurrent(f, degree)


def pde_residual(dinv: GradedInverse) -> PolyMap:
    """dN/dt - JN . N, symbolic in t; identically zero for any genuine
    deformed inverse, and sensitive to any corrupted layer."""
    lhs = PolyMap(tuple(c.pdiff(0) for c in dinv.n_t.components))
    rhs = PolyMap(mat_vec(dinv.jn_t, dinv.n_t.components))
    return lhs - rhs


# -- identity checks -----------------------------------------------------------


def check_pde(f: MapF, degree: int) -> Report:
    """The Cauchy problem of the deformation through `degree`: the
    transport equation dN_t/dt = JN_t . N_t, as the residual of
    `pde_residual` compared with zero, and the initial condition N_0 = H.

    On a gradient map (JH symmetric) it also checks the inviscid Burgers
    form of the problem: Q_t, the Euler potential of N_t (see
    ``_euler_potential``), has grad Q_t = N_t and
    dQ_t/dt = 1/2 <N_t, N_t>, exactly in t, and Q_0 = P, the Euler
    potential of H.  ``recurrent_layers`` builds a gradient map's layers
    from the potential and never forms JN_t . N_t, so there the transport
    item tests the equivalence of the two equations independently."""
    dinv = deformation_inverse(f, degree)
    report = Report(f"deformation transport residual through degree {degree}")
    report.add_equality(
        "dN_t/dt - JN_t.N_t = 0",
        pde_residual(dinv),
        PolyMap.zero(f.n, degree, nparams=1),
        degree,
    )
    report.add_equality("N_t at t = 0 equals H", dinv.n_t.eval_param(0, 0), f.h, degree)
    if first_asymmetry(f.h.jacobian()) is None:
        n_t = dinv.n_t
        q_t = _euler_potential(n_t)
        grad = [q_t.diff(i) for i in range(f.n)]
        report.add_equality("burgers: grad Q_t = N_t", grad, n_t, degree)
        half_norm = dot(zip(n_t, n_t), cap=degree + 1).scale(Rat(1, 2))
        report.add_equality(
            "burgers: dQ_t/dt = 1/2 <N_t, N_t>", [q_t.pdiff(0)], [half_norm], degree + 1
        )
        report.add_equality(
            "burgers: Q_0 = P", [q_t.eval_param(0, 0)], [_euler_potential(f.h)], degree + 1
        )
    return report


def _euler_potential(v: PolyMap) -> MSeries:
    """Q = sum_j 1/(j+1) sum_i z_i v_i,[j] over the homogeneous z-parts
    v_[j] of v, parameters carried along: by Euler's formula grad Q = v
    whenever v is a gradient, with Q(0) = 0.  Certified one degree past v:
    z_i raises every degree by one."""
    size = v.n + v.nparams
    zv = series_sum(
        c.mul_monomial(tuple(int(j == i) for j in range(size))) for i, c in enumerate(v)
    )
    return MSeries(zv.n, zv.trunc, {e: c / zv.zdeg(e) for e, c in zv.terms.items()}, zv.nparams)


def _fixed_point_item(report: Report, f: MapF, dinv: GradedInverse, degree: int) -> CheckItem:
    """H(G_t) = N_t through `degree`, the one composition the suites
    compute: N = H(z + tN) has one solution, so it fixes N_t, and the
    other composition identities are derived from it."""
    h_of_gt = compose_map_components(f.h.with_params(1).components, dinv.g_t(), cap=degree)
    return report.add_equality("H(G_t) = N_t", h_of_gt, dinv.n_t, degree)


def check_lemma31(f: MapF, degree: int) -> Report:
    """Composition identities of the deformed inverse and the matching
    nilpotency behaviour of JH and JN_t.

    H(G_t) = N_t is computed (``_fixed_point_item``), and the other
    composition items are derived from it.  F_t(G_t) = z + t(N_t - H(G_t))
    = z gives G_t o F_t = z, so N_t(F_t) = H(G_t o F_t) = H.  Lemma 3.1's
    JN_t(F_t) = JH (I - tJH)^(-1) = sum_k JH^k t^(k-1) is reported in its
    product form JN_t(F_t) . JF_t = JH, JF_t = I - tJH: the chain rule on
    N_t(F_t) = H, through `degree` - 1.

    The nilpotency item reads JN_t's index through truncation, from powers
    cut at `degree` - 1, so a non-nilpotent JH can seem to have an index
    there (the known defect on ROADMAP.md's list)."""
    dinv = deformation_inverse(f, degree)
    report = Report(f"deformation composition identities through degree {degree}")
    fixed = _fixed_point_item(report, f, dinv, degree)
    step = "F_t(G_t) = z gives G_t o F_t = z, so N_t(F_t) = H(G_t o F_t) = H"
    report.add_derived("N_t(F_t) = H", [fixed], step)
    step = f"chain rule: JN_t(F_t) . JF_t = JH, JF_t = I - tJH, through z-degree {degree - 1}"
    report.add_derived("JN_t(F_t) = sum_k JH^k t^(k-1)", [fixed], step)

    jh_index = _nilpotency_index(f.h.jacobian(), f.n)
    jn_index = _nilpotency_index(dinv.jn_t, f.n, degree - 1)
    report.data["JH nilpotency index"] = jh_index or "not nilpotent"
    report.data["JN_t nilpotency index (through truncation)"] = jn_index or "not nilpotent"
    report.add(
        "nilpotency indices match",
        jh_index == jn_index,
        f"JH: {jh_index}, JN_t: {jn_index} (None = not nilpotent)",
    )
    return report


def _nilpotency_index(mat, n, degree=INF) -> Optional[int]:
    """Index of a matrix whose powers vanish through z-degree `degree`
    (all of it for an exact polynomial matrix), or None.  Over the integral
    domain Q[z] a nilpotent matrix has index at most n, so only the powers
    up to the n-th are built."""
    power = mat
    for k in range(1, n + 1):
        if all(entry.is_zero_through(degree) for row in power for entry in row):
            return k
        if k < n:
            power = mat_mul(power, mat, cap=degree)
    return None


def check_newp(h: PolyMap, degree: int) -> Report:
    """Characterization of the maps whose inverse is z + H: this happens
    exactly when JH . H = 0, in which case every integer power of z - H is
    z - mH.  When JH . H is nonzero, the second layer N_[2] = JH . H is
    itself nonzero.  For homogeneous H of degree d >= 2 it also checks the
    Euler bridge JH^2 . z = d JH . H, so JH^2 = 0 (the quadratic-nilpotent
    case of Bass, Connell and Wright) gives JH . H = 0 and G = z + H."""
    report = Report("inverse = z + H iff JH.H = 0")
    jh = h.jacobian()
    jh_h = PolyMap(mat_vec(jh, h.components))
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
    d = h.homogeneous_degree()
    if d is not None and d >= 2:
        jh2 = mat_mul(jh, jh)
        nilpotent = all(e.is_zero() for row in jh2 for e in row)
        report.data["JH^2"] = "0" if nilpotent else "nonzero"
        euler = PolyMap(mat_vec(jh2, PolyMap.identity(h.n).components))
        report.add_equality("JH^2 . z = d JH . H", euler, jh_h.scale(d), 2 * d)
    return report


def check_prop310(f: MapF, degree: int, s_order: int, t_order: int) -> Report:
    """The family is closed under inversion: U = z - s N_t has inverse
    V = z + s N_{t+s}, and both factor through the deformation itself.

    H(G_t) = N_t is computed (``_fixed_point_item``), and every other item
    is derived from it, as F_a(G) = G - aH(G) is linear in H(G):
    F_t(G_t) = z + t(N_t - H(G_t)) = z; U = F_{t+s}(G_t) = z - sN_t; the
    substitution t -> t+s keeps z-degrees, so H(G_{t+s}) = N_{t+s} and
    V = F_t(G_{t+s}) = z + sN_{t+s}; G_t o F_t = z (see
    `inversion.cross_check`) gives U o V = z and V o U = z."""
    dinv = deformation_inverse(f, degree)
    report = Report(
        f"closure under inversion through degree {degree} "
        f"(verified exactly in t and s; stated orders t<={t_order}, s<={s_order})"
    )
    fixed = _fixed_point_item(report, f, dinv, degree)
    for name, step in (
        ("F_t(G_t) = z", "F_t(G_t) = z + t(N_t - H(G_t))"),
        ("U_{s,t} = F_{t+s} o G_t", "F_{t+s}(G_t) = z + tN_t - (t+s)N_t = z - sN_t"),
        ("V_{s,t} = F_t o G_{s+t}",
         "t -> t+s keeps z-degrees: H(G_{t+s}) = N_{t+s}, so F_t(G_{t+s}) = z + sN_{t+s}"),
        ("U_{s,t}(V_{s,t}) = z", "U o V = F_{t+s} o (G_t o F_t) o G_{t+s} = F_{t+s} o G_{t+s}"),
        ("V_{s,t}(U_{s,t}) = z", "V o U = F_t o (G_{t+s} o F_{t+s}) o G_t = F_t o G_t"),
    ):
        report.add_derived(name, [fixed], step)
    return report


def check_gpde(u0: PolyMap, h: PolyMap, degree: int) -> Report:
    """Transport of an arbitrary initial series along the deformation:
    U_t = U_0(z + t N_t) solves dU/dt = JU . N_t with U at t=0 equal
    to U_0, for the N_t whose value at t=0 is H (the Cauchy problem of
    ``check_pde``)."""
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
    report.add_equality("N_t at t = 0 equals H", dinv.n_t.eval_param(0, 0), h, degree)
    return report


def check_euler_identities(h: PolyMap, degree: int) -> Report:
    """The homogeneous-H identities tying N_t to JN_t through Euler's
    formula, including the two expansions of N_t and dN_t/dt in powers
    of JN_t applied to z.  The vectors JN_t^k z come by matrix-vector
    steps, JN_t^k z = JN_t (JN_t^(k-1) z), each capped at `degree`, for
    k <= ``graded_cutoff(H, degree)``: o(JN_t^k z) >= k(d-1) + 1, so later
    ones are zero through `degree`.  The dN_t/dt expansion is JN_t times
    the N_t expansion.  The second item is the first times d, rearranged;
    the other three are computed."""
    d = h.homogeneous_degree()
    if d is None or d < 2:
        raise HomogeneityError("needs homogeneous H of degree >= 2")
    n = h.n
    dinv = deformation_inverse(MapF(h), degree)
    n_t, jn = dinv.n_t, dinv.jn_t
    ident = PolyMap.identity(n, trunc=INF, nparams=1)

    report = Report(f"homogeneous Euler identities (d={d}) through degree {degree}")

    # JN_t (z - (d-1) t N_t) = JN_t z - (d-1) t JN_t N_t
    jn_z = PolyMap(mat_vec(jn, ident.components, cap=degree))
    t_jn_nt = PolyMap(mat_vec(jn, n_t.components, cap=degree)).shift_param(0).scale(d - 1)
    rhs1 = (jn_z - t_jn_nt).scale(Rat(1, d))
    first = report.add_equality("N_t = (1/d) JN_t (z - (d-1) t N_t)", n_t, rhs1, degree)
    step = "d times the item above, rearranged: JN_t z = d N_t + (d-1) t JN_t N_t"
    report.add_derived("JN_t z = d(I + ((d-1)t/d) JN_t) N_t", [first], step)

    # the expansion of N_t in powers of JN_t . z; JN_t times it is the
    # expansion of dN_t/dt
    terms, power = [PolyMap.zero(n, degree, nparams=1)], jn_z  # power: JN_t^k z
    for k in range(1, graded_cutoff(h, degree) + 1):
        if k > 1:
            power = PolyMap(mat_vec(jn, power.components, cap=degree))
        terms.append(power.shift_param(0, k - 1).scale(Rat(1 - d, d) ** (k - 1)))
    expansion = PolyMap(map(series_sum, zip(*terms))).scale(Rat(1, d))
    report.add_equality(
        "N_t = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^k z", n_t, expansion, degree
    )
    dn_dt = PolyMap(tuple(c.pdiff(0) for c in n_t.components))
    report.add_equality(
        "dN_t/dt = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^(k+1) z",
        dn_dt,
        PolyMap(mat_vec(jn, expansion.components, cap=degree)),
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

    def at(self, t_value) -> PolyMap:
        return self.map.eval_param(0, t_value)


def formal_flow(f: MapF, degree: int) -> FlowSeries:
    """F(z; t) = z + sum over trees T of (-1)^|T| W_T(t) P_T(z), where W_T
    is the strict order polynomial of T.  W_T(1) = 0 for |T| >= 2 collapses
    the sum to F at t = 1; W_T(-1) = (-1)^|T| recovers the tree-expansion
    inverse at t = -1."""
    n = f.n

    def weight(tree):
        sign = -1 if tree.size % 2 else 1
        return order_polynomial(tree, n).scale(Rat(sign, tree.aut))

    flow_map = tree_expansion(f.h, degree, weight, nparams=1)
    return FlowSeries(flow_map)


def power_map(f: MapF, m: int, degree: int) -> PolyMap:
    """F^[m]: iterated composition for m >= 0, iterated inverse for m < 0,
    by repeated squaring: at most 2 log2 |m| compositions, one for m = 2."""
    if m == 0:
        return PolyMap.identity(f.n, trunc=degree)
    if m > 0:
        base = f.map
    else:
        base = invert_recurrent(f, degree).inverse_map()
    m, acc = abs(m), None
    while True:
        if m & 1:
            acc = base if acc is None else base.compose(acc, cap=degree)
        m >>= 1
        if not m:
            return acc.truncate(degree)
        base = base.compose(base, cap=degree)


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
    witness = first_asymmetry(h.jacobian())
    if witness is not None:
        return False, f"JH is not symmetric: entries {witness} differ"
    return True, (
        "JH is symmetric (gradient map): the deformation transport "
        "equation is the n-dimensional inviscid Burgers system"
    )
