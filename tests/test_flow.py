"""Deformation family, transport PDE residual, identity suites, formal
flow, integer powers, the layer-vanishing probe, and symmetry detection."""

import dataclasses
import gc
import math
import time
import weakref

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from forminv import (
    HomogeneityError,
    MapF,
    MSeries,
    NilpotencyError,
    PolyMap,
    check_euler_identities,
    check_gpde,
    check_lemma31,
    check_newp,
    check_pde,
    check_prop310,
    deformation_inverse,
    formal_flow,
    invert_bcw,
    invert_recurrent,
    pde_residual,
    polynomiality_probe,
    power_map,
    symmetry_detector,
)
from forminv import flow, inversion
from forminv.cli import run_command
from forminv.inversion import GradedInverse
from forminv.mapdoc import parse_map, serialize_polymap
from forminv.rat import Rat
from forminv.series import compose_map_components, first_mismatch, mat_mul, mat_vec, series_sum
from forminv.trees import graded_cutoff

from forminv_testing import mono, random_h, random_map


class TestDeformation:
    def test_n_t_series(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 5)
        # N_t = z^2 + 2t z^3 + 5 t^2 z^4 + ...
        assert dinv.n_t.components[0].terms[(2, 0)] == 1
        assert dinv.n_t.components[0].terms[(3, 1)] == 2
        assert dinv.n_t.components[0].terms[(4, 2)] == 5

    def test_t_equals_one_recovers_inverse(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 6)
        g = invert_recurrent(catalan_map, 6).inverse_map()
        assert dinv.g_t().eval_param(0, 1).eq_through(g, 6)

    def test_t_zero_is_identity(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 6)
        assert dinv.g_t().eval_param(0, 0).eq_through(PolyMap.identity(1), 6)

    def test_annihilating_h_gives_constant_family(self, shear_map):
        # JH.H = 0: N_t = H for all t
        dinv = deformation_inverse(shear_map, 6)
        lifted = shear_map.h.with_params(1)
        assert all(
            a.eq_through(b, 6)
            for a, b in zip(dinv.n_t.components, lifted.components)
        )

    def test_g_t_inverts_f_t_symbolically(self, rng):
        for _ in range(3):
            f = random_map(rng, rng.choice((1, 2)))
            dinv = deformation_inverse(f, 6)
            ident = PolyMap.identity(f.n, nparams=1)
            f_t = ident - f.h.with_params(1).shift_param(0)
            assert dinv.g_t().compose(f_t, cap=6).eq_through(ident, 6)
            assert f_t.compose(dinv.g_t(), cap=6).eq_through(ident, 6)


def quadratic_n2():
    """F = z - H with H = (z1 z2 + z2^2, -z1^2), homogeneous of degree 2."""
    return MapF(PolyMap([mono(2, (1, 1)) + mono(2, (0, 2)), mono(2, (2, 0), -1)]))


class TestSharedDeformation:
    """The deformation is built once per H object and degree: every suite
    on one map reads the same G_t, N_t and JN_t, and nothing is shared
    between two H objects, however equal."""

    def test_one_object_per_map_and_degree(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 6)
        assert dinv is invert_recurrent(catalan_map, 6)
        assert deformation_inverse(catalan_map, 5) is not dinv

    def test_two_parses_build_two_deformations(self):
        text = serialize_polymap(quadratic_n2().map, 6)
        a, b = parse_map(text).to_mapf(), parse_map(text).to_mapf()
        assert a.h is not b.h
        da, db = deformation_inverse(a, 6), deformation_inverse(b, 6)
        assert da is not db
        assert serialize_polymap(da.n_t, 6) == serialize_polymap(db.n_t, 6)

    def test_memo_makes_no_reference_cycle(self):
        """The deformation kept on H dies with H by reference counting
        alone, cached views included."""
        gc.disable()
        try:
            f = quadratic_n2()
            dinv = deformation_inverse(f, 5)
            assert dinv.jn_t is dinv.jn_t  # built once, then held by dinv
            ref = weakref.ref(dinv)
            del f, dinv
            assert ref() is None
        finally:
            gc.enable()

    def test_every_suite_reads_one_build(self, monkeypatch):
        builds = []
        real = inversion.recurrent_layers

        def counted(h, count, cap=None):
            builds.append(cap)
            return real(h, count, cap)

        monkeypatch.setattr(inversion, "recurrent_layers", counted)
        f = quadratic_n2()
        for degree in (5, 4):
            check_pde(f, degree)
            check_lemma31(f, degree)
            check_euler_identities(f.h, degree)
            check_prop310(f, degree, 2, 2)
            check_gpde(PolyMap.identity(f.n), f.h, degree)
            pde_residual(deformation_inverse(f, degree))
            power_map(f, -1, degree)
        assert builds == [5, 4]


class TestPdeResidual:
    def test_zero_on_valid_input(self, rng):
        for _ in range(3):
            f = random_map(rng, rng.choice((1, 2, 3)))
            res = pde_residual(deformation_inverse(f, 6))
            assert all(c.is_zero_through(6) for c in res.components)

    def test_h_zero(self):
        res = pde_residual(deformation_inverse(MapF(PolyMap.zero(2)), 5))
        assert all(c.is_zero_through(5) for c in res.components)

    def test_detects_injected_fault(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 6)
        # perturb the second layer by z^3: shows up at t-degree 0
        fault = mono(1, (3,), 1)
        layers = list(dinv.layers)
        layers[1] = PolyMap([layers[1].components[0] + fault])
        corrupted = dataclasses.replace(dinv, layers=tuple(layers))
        res = pde_residual(corrupted)
        assert not all(c.is_zero_through(4) for c in res.components)
        # the t^0 coefficient is already nonzero
        assert not res.components[0].eval_param(0, 0).is_zero()


class TestLemma31:
    def test_shear_nilpotency_index_two(self, shear_map):
        report = check_lemma31(shear_map, 6)
        assert report.ok
        assert report.data["JH nilpotency index"] == 2
        assert report.data["JN_t nilpotency index (through truncation)"] == 2

    def test_one_var(self, catalan_map):
        assert check_lemma31(catalan_map, 6).ok

    def test_h_zero(self):
        report = check_lemma31(MapF(PolyMap.zero(2)), 4)
        assert report.ok
        assert report.data["JH nilpotency index"] == 1

    def test_random(self, rng):
        for _ in range(3):
            assert check_lemma31(random_map(rng, rng.choice((1, 2))), 5).ok


class TestNewP:
    def test_shear(self, shear_map):
        report = check_newp(shear_map.h, 6)
        assert report.ok
        names = [item.name for item in report.items]
        assert "G = z + H" in names
        assert "F^[3] = z - 3H" in names

    def test_square_map_has_nonzero_second_layer(self, catalan_map):
        report = check_newp(catalan_map.h, 6)
        assert report.ok
        assert "first nonzero higher layer: 2" in report.items[0].detail

    def test_h_zero(self):
        assert check_newp(PolyMap.zero(2), 4).ok


class TestBcwQuadraticNilpotent:
    """check_newp on homogeneous H: the Euler bridge JH^2 . z = d JH . H
    and the JH^2 = 0 case, whose inverse is z + H."""

    def test_shear(self, shear_map):
        report = check_newp(shear_map.h, 6)
        assert report.ok
        assert report.data["JH^2"] == "0"
        names = [item.name for item in report.items]
        assert "JH^2 . z = d JH . H" in names and "G = z + H" in names

    def test_square_gate(self, catalan_map):
        report = check_newp(catalan_map.h, 6)
        assert report.ok
        assert report.data["JH^2"] == "nonzero"
        assert "G = z + H" not in [item.name for item in report.items]

    def test_euler_bridge_random_cubic(self, rng):
        for _ in range(4):
            h = random_h(rng, 2, homogeneous_degree=3)
            report = check_newp(h, 6)
            assert report.ok
            assert "JH^2 . z = d JH . H" in [item.name for item in report.items]

    def test_inhomogeneous_has_no_euler_item(self):
        report = check_newp(PolyMap([mono(1, (2,)) + mono(1, (3,))]), 5)
        assert report.ok and "JH^2" not in report.data


class TestProp310:
    def test_square_map(self, catalan_map):
        assert check_prop310(catalan_map, 5, 2, 2).ok

    def test_random(self, rng):
        f = random_map(rng, 2, max_deg=3)
        assert check_prop310(f, 4, 3, 3).ok

    def test_failed_premise_fails_the_derived_items(self, monkeypatch, catalan_map):
        """A fault in G_t alone reaches only the computed H(G_t) = N_t;
        every derived item must fail and name that premise."""
        real = GradedInverse.g_t

        def corrupted(dinv):
            g = real(dinv)
            (comp,) = g.components
            terms = dict(comp.terms)
            terms[(2, 1)] = terms.get((2, 1), Rat(0)) + 1  # z^2 t
            return PolyMap([MSeries(1, comp.trunc, terms, 1)])

        monkeypatch.setattr(GradedInverse, "g_t", corrupted)
        report = check_prop310(catalan_map, 5, 2, 2)
        failures = {item.name: item.first_failure for item in report.items if not item.ok}
        assert failures.pop("H(G_t) = N_t").startswith("component 1, exponent (3, 1):")
        derived = [
            "F_t(G_t) = z",
            "U_{s,t} = F_{t+s} o G_t",
            "V_{s,t} = F_t o G_{s+t}",
            "U_{s,t}(V_{s,t}) = z",
            "V_{s,t}(U_{s,t}) = z",
        ]
        assert failures == {name: "premise failed: H(G_t) = N_t" for name in derived}
        assert not report.ok


COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-1, 2)])


@st.composite
def small_maps(draw):
    """F = z - H with n in {1, 2} and the monomials of H of degree 2 or 3;
    H may be zero."""
    n = draw(st.integers(1, 2))
    exps = st.lists(st.integers(0, n - 1), min_size=2, max_size=3).map(
        lambda ks: tuple(ks.count(k) for k in range(n))
    )
    return MapF(PolyMap([MSeries(n, math.inf, draw(st.dictionaries(exps, COEFFS, max_size=3)))
                         for _ in range(n)]))


@settings(max_examples=40, deadline=None)
@given(small_maps(), st.integers(1, 5))
def test_derived_items_match_the_compositions(f, degree):
    """Each composition identity that lemma 3.1 and Prop. 3.10 derive from
    H(G_t) = N_t, composed directly: F_t(G_t) = z, N_t(F_t) = H,
    JN_t(F_t) . JF_t = JH through degree - 1, and in the two parameters
    t and s, U = F_{t+s}(G_t) = z - sN_t, V = F_t(G_{t+s}) = z + sN_{t+s}
    and U o V = V o U = z.  The suites' items pass on the same map."""
    n, dinv = f.n, deformation_inverse(f, degree)
    n_t, g_t = dinv.n_t, dinv.g_t()
    ident = PolyMap.identity(n, nparams=1)
    h_t = f.h.with_params(1)
    f_t = ident - h_t.shift_param(0)
    assert f_t.compose(g_t, cap=degree).eq_through(ident, degree)
    assert n_t.compose(f_t, cap=degree).eq_through(h_t, degree)
    flat = compose_map_components([e for row in n_t.jacobian() for e in row], f_t, cap=degree - 1)
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    product = mat_mul(rows, f_t.jacobian(), cap=degree - 1)
    jh = h_t.jacobian()
    assert all(first_mismatch(zip(a, b), degree - 1) is None for a, b in zip(product, jh))

    ident2, h2, n2 = ident.with_params(1), f.h.with_params(2), n_t.with_params(1)
    n_ts = PolyMap(c.subst_param_sum(0, 1) for c in n2)  # N_{t+s}
    f_t2 = ident2 - h2.shift_param(0)
    u, v = ident2 - n2.shift_param(1), ident2 + n_ts.shift_param(1)
    u_composed = (f_t2 - h2.shift_param(1)).compose(ident2 + n2.shift_param(0), cap=degree)
    v_composed = f_t2.compose(ident2 + n_ts.shift_param(0) + n_ts.shift_param(1), cap=degree)
    assert u_composed.eq_through(u, degree)
    assert v_composed.eq_through(v, degree)
    assert u.compose(v, cap=degree).eq_through(ident2, degree)
    assert v.compose(u, cap=degree).eq_through(ident2, degree)

    assert check_prop310(f, degree, 2, 2).ok
    # the nilpotency item reads a truncation and can fail on its own
    assert all(item.ok for item in check_lemma31(f, degree).items[:3])


@st.composite
def homogeneous_maps(draw):
    """Homogeneous H of degree d in {2, 3} with n <= 3; its first component
    is nonzero."""
    n, d = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    exps = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
        lambda ks: tuple(ks.count(k) for k in range(n))
    )
    comps = [draw(st.dictionaries(exps, COEFFS, min_size=int(i == 0), max_size=3)) for i in range(n)]
    return PolyMap([MSeries(n, math.inf, terms) for terms in comps])


@st.composite
def triangular_maps(draw):
    """F = z - H with n <= 3 and H_i a polynomial of degree 2 or 3 in
    z_{i+1}, ..., z_n only, so JH is strictly upper triangular: nilpotent,
    of index at most n."""
    n = draw(st.integers(1, 3))
    comps = []
    for i in range(n):
        exps = st.lists(st.integers(i + 1, n - 1), min_size=2, max_size=3).map(
            lambda ks: tuple(ks.count(k) for k in range(n))
        )
        terms = draw(st.dictionaries(exps, COEFFS, max_size=3)) if i + 1 < n else {}
        comps.append(MSeries(n, math.inf, terms))
    return MapF(PolyMap(comps))


def full_power_index(mat, n, degree=math.inf):
    """The nilpotency index read off the whole powers M, M^2, ..., M^n,
    each capped at `degree`: the oracle for the column-wise search."""
    power = mat
    for k in range(1, n + 1):
        if all(entry.is_zero_through(degree) for row in power for entry in row):
            return k
        if k < n:
            power = mat_mul(power, mat, cap=degree)
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(small_maps(), triangular_maps(), homogeneous_maps().map(MapF)),
    st.integers(1, 6),
)
@example(MapF(PolyMap([mono(3, (0, 2, 0)), mono(3, (0, 0, 2)), MSeries.zero(3)])), 5)
def test_nilpotency_index_matches_full_powers(f, degree):
    """``flow._nilpotency_index`` builds M^k e_c column by column; it gives
    the index of the full powers on the exact JH and on JN_t read through
    degree - 1."""
    jh = f.h.jacobian()
    index = flow._nilpotency_index(jh, f.n)
    assert index == full_power_index(jh, f.n)
    if all(not any(e[: i + 1]) for i, c in enumerate(f.h.components) for e in c.terms):
        assert index is not None  # strictly triangular
    event(f"JH index {index}")
    jn = deformation_inverse(f, degree).jn_t
    assert flow._nilpotency_index(jn, f.n, degree - 1) == full_power_index(jn, f.n, degree - 1)


@settings(max_examples=40, deadline=None)
@given(homogeneous_maps(), st.integers(1, 6))
def test_derived_euler_items_match_the_expansions(h, degree):
    """The two expansions that the Euler suite derives, summed directly:
    JN_t^k z by matrix-vector steps capped at the degree, for k up to the
    graded cutoff, and JN_t times their sum.  N_t and dN_t/dt equal them
    through the degree and the suite passes.  The residual, which reads the
    capped product JN_t . N_t, equals the uncapped dN_t/dt - JN_t . N_t in
    terms and truncation."""
    d, dinv = h.homogeneous_degree(), deformation_inverse(MapF(h), degree)
    n_t, jn = dinv.n_t, dinv.jn_t
    power, terms = PolyMap.identity(h.n, nparams=1), [PolyMap.zero(h.n, degree, nparams=1)]
    for k in range(1, graded_cutoff(h, degree) + 1):
        power = PolyMap(mat_vec(jn, power.components, cap=degree))  # JN_t^k z
        terms.append(power.shift_param(0, k - 1).scale(Rat(1 - d, d) ** (k - 1)))
    expansion = PolyMap(map(series_sum, zip(*terms))).scale(Rat(1, d))
    dn_dt = PolyMap(tuple(c.pdiff(0) for c in n_t.components))
    assert n_t.eq_through(expansion, degree)
    assert dn_dt.eq_through(PolyMap(mat_vec(jn, expansion.components, cap=degree)), degree)
    assert check_euler_identities(h, degree).ok
    uncapped = dn_dt - PolyMap(mat_vec(jn, n_t.components))
    residual = pde_residual(dinv)
    assert [(c.trunc, c.terms) for c in residual] == [(c.trunc, c.terms) for c in uncapped]


class TestGpde:
    def test_identity_initial_condition(self, catalan_map):
        u0 = PolyMap.identity(1)
        assert check_gpde(u0, catalan_map.h, 5).ok

    def test_square_initial_condition(self, catalan_map):
        u0 = PolyMap([mono(1, (2,))])
        assert check_gpde(u0, catalan_map.h, 5).ok

    def test_h_zero(self):
        u0 = PolyMap([mono(1, (2,))])
        assert check_gpde(u0, PolyMap.zero(1), 4).ok


def gradient(n, potential):
    """H = grad P for P given as {exponent: coefficient}."""
    p = MSeries(n, math.inf, {e: Rat(c) for e, c in potential.items()})
    return PolyMap([p.diff(i) for i in range(n)])


# grad P for n = 1, 2, 3, each of mixed degrees
GRADIENTS = [
    gradient(1, {(3,): Rat(1, 3), (5,): 1}),
    gradient(2, {(2, 1): Rat(1, 2), (0, 3): Rat(1, 3), (4, 0): 1}),
    gradient(3, {(1, 1, 1): 1, (0, 0, 4): Rat(1, 2)}),
]
BURGERS = [
    "burgers: grad Q_t = N_t",
    "burgers: dQ_t/dt = 1/2 <N_t, N_t>",
    "burgers: Q_0 = P",
]


def failing(report):
    return [item.name for item in report.items if not item.ok]


class TestCauchyProblem:
    """Both PDE suites check the initial condition N_0 = H, so neither
    passes the deformation of another map, which solves the same
    transport equation."""

    @pytest.mark.parametrize(
        "h, extra",
        [
            (GRADIENTS[0], ["burgers: Q_0 = P"]),
            (PolyMap([mono(2, (1, 1)) + mono(2, (0, 2)), mono(2, (2, 0), -1)]), []),
        ],
        ids=["catalan_like", "n2"],
    )
    def test_deformation_of_2h_fails_both_suites(self, monkeypatch, h, extra):
        real = flow.deformation_inverse
        monkeypatch.setattr(
            flow, "deformation_inverse", lambda f, d: real(MapF(f.h.scale(2)), d)
        )
        f = MapF(h)
        assert failing(check_pde(f, 5)) == ["N_t at t = 0 equals H"] + extra
        assert failing(check_gpde(PolyMap.identity(f.n), h, 5)) == ["N_t at t = 0 equals H"]

    def test_one_wrong_coefficient_of_n1_fails_both_suites(self, monkeypatch):
        real = flow.deformation_inverse

        def planted(f, degree):
            dinv = real(f, degree)
            first, *rest = dinv.layers
            comp = first.components[0]
            first = PolyMap([comp + mono(f.n, (3,) + (0,) * (f.n - 1)), *first.components[1:]])
            return dataclasses.replace(dinv, layers=(first, *rest))

        monkeypatch.setattr(flow, "deformation_inverse", planted)
        for h in GRADIENTS:
            assert "N_t at t = 0 equals H" in failing(check_pde(MapF(h), 5))
            assert "N_t at t = 0 equals H" in failing(check_gpde(PolyMap.identity(h.n), h, 5))


class TestBurgers:
    @pytest.mark.parametrize("h", GRADIENTS, ids=["n1", "n2", "n3"])
    def test_items_pass_on_gradient_maps(self, h):
        report = check_pde(MapF(h), 6)
        assert report.ok
        assert [item.name for item in report.items][2:] == BURGERS

    def test_no_items_off_gradient_maps(self, shear_map):
        report = check_pde(shear_map, 6)
        assert report.ok
        assert [item.name for item in report.items] == [
            "dN_t/dt - JN_t.N_t = 0",
            "N_t at t = 0 equals H",
        ]

    @pytest.mark.parametrize("h", GRADIENTS, ids=["n1", "n2", "n3"])
    def test_one_wrong_coefficient_of_n2_fails(self, monkeypatch, h):
        real = flow.deformation_inverse

        def planted(f, degree):
            dinv = real(f, degree)
            first, second, *rest = dinv.layers
            comp = second.components[0]
            exp = next(iter(comp.terms))
            terms = {**comp.terms, exp: comp.terms[exp] + 1}
            second = PolyMap([MSeries(f.n, comp.trunc, terms), *second.components[1:]])
            return dataclasses.replace(dinv, layers=(first, second, *rest))

        monkeypatch.setattr(flow, "deformation_inverse", planted)
        assert "burgers: dQ_t/dt = 1/2 <N_t, N_t>" in failing(check_pde(MapF(h), 6))


class TestEulerIdentities:
    def test_one_var_quadratic(self, catalan_map):
        assert check_euler_identities(catalan_map.h, 6).ok

    def test_nilpotent_case_terminates_after_first_power(self, shear_map):
        assert check_euler_identities(shear_map.h, 6).ok

    def test_random_cubic(self, rng):
        h = random_h(rng, 2, homogeneous_degree=3)
        assert check_euler_identities(h, 6).ok

    def test_rejects_inhomogeneous(self):
        with pytest.raises(HomogeneityError):
            check_euler_identities(PolyMap([mono(1, (2,)) + mono(1, (4,))]), 5)


class TestFormalFlow:
    def test_low_order_weights(self, catalan_map):
        # F(z; t) = z - t z^2 + t(t-1) z^3 - ...
        fl = formal_flow(catalan_map, 4)
        comp = fl.map.components[0]
        assert comp.terms[(1, 0)] == 1
        assert comp.terms[(2, 1)] == -1
        assert comp.terms[(3, 1)] == -1
        assert comp.terms[(3, 2)] == 1

    def test_t_one_is_f(self, rng):
        for _ in range(3):
            f = random_map(rng, rng.choice((1, 2)))
            fl = formal_flow(f, 6)
            assert fl.at(1).eq_through(f.map.truncate(6), 6)

    def test_t_minus_one_is_tree_inverse(self, rng):
        for _ in range(3):
            f = random_map(rng, rng.choice((1, 2)))
            fl = formal_flow(f, 6)
            assert fl.at(-1).eq_through(invert_bcw(f, 6), 6)

    def test_integer_points_match_iterates(self, catalan_map):
        fl = formal_flow(catalan_map, 6)
        for m in (-2, -1, 0, 1, 2, 3):
            assert fl.at(m).eq_through(power_map(catalan_map, m, 6), 6)

    def test_group_law_at_integers(self, rng):
        f = random_map(rng, 2, max_deg=3)
        fl = formal_flow(f, 6)
        for a in (-1, 0, 1, 2):
            for b in (-1, 0, 1, 2):
                if abs(a) + abs(b) > 3:
                    continue
                lhs = fl.at(a).compose(fl.at(b), cap=6)
                assert lhs.eq_through(fl.at(a + b), 6)

    def test_coefficients_are_polynomials_in_t(self, catalan_map):
        comp = formal_flow(catalan_map, 3).map.components[0]
        assert {e: c for e, c in comp.terms.items() if e[0] == 2} == {(2, 1): -1}

    def test_group_law_symbolically(self, rng):
        # F(F(z; s); t) = F(z; t+s) as a polynomial identity in t AND s,
        # not just at integer points
        for _ in range(2):
            n = rng.choice((1, 2))
            f = random_map(rng, n, max_deg=3)
            fl = formal_flow(f, 5)
            in_t = PolyMap(
                [c.with_params(1) for c in fl.map.components]
            )  # params (t, s)
            in_s = PolyMap(
                [
                    MSeries(
                        n,
                        c.trunc,
                        {e[:n] + (e[n + 1], e[n]): v for e, v in c.terms.items()},
                        2,
                    )
                    for c in in_t.components
                ]
            )
            lhs = in_t.compose(in_s, cap=5)
            rhs = PolyMap(
                [c.subst_param_sum(0, 1) for c in in_t.components]
            )  # t := t + s
            assert lhs.eq_through(rhs.truncate(lhs.trunc), min(5, lhs.trunc))


class TestPowerMap:
    def test_zero_power(self, catalan_map):
        assert power_map(catalan_map, 0, 5).eq_through(PolyMap.identity(1), 5)

    def test_minus_one_is_inverse(self, catalan_map):
        g = power_map(catalan_map, -1, 6)
        assert f"{g.components[0].format()}".startswith("z + z^2 + 2*z^3")

    def test_square(self, catalan_map):
        p2 = power_map(catalan_map, 2, 5)
        assert p2.components[0].terms == {(1,): 1, (2,): -2, (3,): 2, (4,): -1}

    def test_inverse_powers_compose(self, catalan_map):
        p = power_map(catalan_map, 3, 5)
        q = power_map(catalan_map, -3, 5)
        assert p.compose(q, cap=5).eq_through(PolyMap.identity(1), 5)

    def test_matches_iterated_composition(self, rng):
        f = random_map(rng, 2, max_deg=3)
        for m, base in ((7, f.map), (-5, power_map(f, -1, 5))):
            acc = base
            for _ in range(abs(m) - 1):
                acc = base.compose(acc, cap=5)
            p = power_map(f, m, 5)
            assert [c.terms for c in p.components] == [c.terms for c in acc.components]
            assert p.trunc == acc.truncate(5).trunc

    def test_huge_exponent_is_fast(self, catalan_map):
        m = 10**9
        start = time.perf_counter()
        p = power_map(catalan_map, m, 8)
        assert time.perf_counter() - start < 5
        terms = p.components[0].terms
        assert terms[(2,)] == -m
        assert terms[(3,)] == m * (m - 1)


class TestProbe:
    def test_cubic_shear(self):
        h = PolyMap([mono(2, (0, 3)), MSeries.zero(2)])
        report = polynomiality_probe(h, 6)
        assert report.last_nonzero_layer == 1
        assert report.vanished_within_bound

    def test_quadratic_nilpotent_terminates(self, shear_map):
        report = polynomiality_probe(shear_map.h, 8)
        assert report.vanished_within_bound

    def test_three_var_cascade(self):
        # H = (z2^2 + z3^2, z3^2, 0): JH strictly upper triangular
        h = PolyMap(
            [
                mono(3, (0, 2, 0)) + mono(3, (0, 0, 2)),
                mono(3, (0, 0, 2)),
                MSeries.zero(3),
            ]
        )
        report = polynomiality_probe(h, 8)
        assert report.vanished_within_bound
        assert report.last_nonzero_layer >= 2

    def test_rejects_non_nilpotent(self, catalan_map):
        with pytest.raises(NilpotencyError):
            polynomiality_probe(catalan_map.h, 4)


class TestSymmetryDetector:
    def test_gradient_map(self):
        # H = grad(z1^2 z2) = (2 z1 z2, z1^2)
        h = PolyMap([mono(2, (1, 1), 2), mono(2, (2, 0))])
        symmetric, note = symmetry_detector(h)
        assert symmetric
        assert "Burgers" in note

    def test_shear_is_not_symmetric(self, shear_map):
        symmetric, note = symmetry_detector(shear_map.h)
        assert not symmetric

    def test_one_var_always_symmetric(self, catalan_map):
        assert symmetry_detector(catalan_map.h)[0]


class TestTopDegreeFault:
    """A wrong coefficient of z-degree exactly D in N_t must fail every
    suite that compares through D: the suites may not build N_t short of
    the degree they check, nor read past it."""

    DEGREE = 4
    # H = (z1 z2 + z2^2, -z1^2); the fault adds 1 to the coefficient of
    # z1^4 t in the first component of N_t, held by the layer N_[2]
    H = PolyMap([mono(2, (1, 1)) + mono(2, (0, 2)), mono(2, (2, 0), -1)])

    @pytest.fixture
    def faulty(self, monkeypatch):
        real = flow.deformation_inverse

        def corrupted(f, degree):
            dinv = real(f, degree)
            first, second, *rest = dinv.layers
            comp = second.components[0]
            terms = dict(comp.terms)
            exp = (self.DEGREE, 0)
            terms[exp] = terms.get(exp, Rat(0)) + 1
            second = PolyMap([MSeries(2, comp.trunc, terms), second.components[1]])
            return dataclasses.replace(dinv, layers=(first, second, *rest))

        monkeypatch.setattr(flow, "deformation_inverse", corrupted)
        return MapF(self.H)

    def test_every_suite_fails(self, faulty, tmp_path, capsys):
        d = self.DEGREE
        assert failing(check_lemma31(faulty, d)) == [
            "H(G_t) = N_t",
            "N_t(F_t) = H",
            "JN_t(F_t) = sum_k JH^k t^(k-1)",
        ]
        assert failing(check_euler_identities(faulty.h, d)) == [
            "N_t = (1/d) JN_t (z - (d-1) t N_t)",
            "JN_t z = d(I + ((d-1)t/d) JN_t) N_t",
            "N_t = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^k z",
            "dN_t/dt = JN_t . N_t",
            "dN_t/dt = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^(k+1) z",
        ]
        assert failing(check_prop310(faulty, d, 2, 2)) == [
            "H(G_t) = N_t",
            "F_t(G_t) = z",
            "U_{s,t} = F_{t+s} o G_t",
            "V_{s,t} = F_t o G_{s+t}",
            "U_{s,t}(V_{s,t}) = z",
            "V_{s,t}(U_{s,t}) = z",
        ]
        assert failing(check_gpde(PolyMap.identity(2), faulty.h, d)) == [
            "dU_t/dt = JU_t . N_t"
        ]
        # dN_t/dt gains z1^4 at t^0; JN_t . N_t changes only above degree 4
        res = pde_residual(flow.deformation_inverse(faulty, d))
        assert [c.truncate(d).terms for c in res.components] == [{(4, 0, 0): 1}, {}]
        doc = tmp_path / "h.json"
        doc.write_text(serialize_polymap(faulty.map, d))
        assert run_command(["verify", "--suite", "pde", "--input", str(doc)]) == 1
        assert "[FAIL] dN_t/dt - JN_t.N_t = 0" in capsys.readouterr().out
