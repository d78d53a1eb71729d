"""The five inversion algorithms, the graded-layer invariants, and the
cross-checking oracle."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forminv import (
    BForm,
    DimensionMismatch,
    DivisibilityError,
    ForminvError,
    HomogeneityError,
    MapF,
    MethodDisagreement,
    MSeries,
    PolyMap,
    b_form_apply,
    cross_check,
    invert_abhyankar_gurjar,
    invert_bcw,
    invert_fixed_point,
    invert_homogeneous,
    invert_recurrent,
    jacobi_coefficient,
    lagrange_coefficient,
)
from forminv import inversion
from forminv.inversion import METHODS, applicable_methods, recurrent_layers
from forminv.randmaps import random_divisible_map, random_h, random_map
from forminv.rat import Rat
from forminv.series import INF, series_sum

from forminv_testing import mono

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def catalan_poly_terms(degree):
    return {(k,): Rat(CATALAN[k - 1]) for k in range(1, degree + 1)}


class TestFixedPoint:
    def test_h_zero(self):
        g = invert_fixed_point(MapF(PolyMap.zero(2)), 5)
        assert g.eq_through(PolyMap.identity(2), 5)

    def test_catalan(self, catalan_map):
        g = invert_fixed_point(catalan_map, 5)
        assert g.components[0].terms == {
            (1,): 1, (2,): 1, (3,): 2, (4,): 5, (5,): 14,
        }

    def test_shear_inverse_is_z_plus_h(self, shear_map):
        g = invert_fixed_point(shear_map, 6)
        expected = (PolyMap.identity(2) + shear_map.h).truncate(6)
        assert g.eq_through(expected, 6)

    def test_two_sided_inverse(self, rng):
        for _ in range(5):
            f = random_map(rng, rng.choice((1, 2)))
            g = invert_fixed_point(f, 6)
            assert f.map.compose(g, cap=6).eq_through(PolyMap.identity(f.n), 6)
            assert g.compose(f.map, cap=6).eq_through(PolyMap.identity(f.n), 6)

    def test_truncated_h_stops_at_its_truncation(self):
        # no pass can certify beyond H's own truncation 4 < D
        h = PolyMap([MSeries(1, 4, {(2,): Rat(1), (3,): Rat(1)})])
        g = invert_fixed_point(MapF(h), 8)
        assert g.trunc == 4
        assert g.components[0].terms == {(1,): 1, (2,): 1, (3,): 3, (4,): 10}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_wrong_candidate_coefficient_is_named(self, catalan_map, monkeypatch, k):
        # at D = 6 with o = 2 the Newton steps reach s = 3, then s = 5;
        # plant one wrong coefficient of degree k <= 5 in the last step
        mat_vec = inversion.mat_vec

        def planted(m, r, cap=None):
            out = mat_vec(m, r, cap)
            if cap == 5:
                out[0] = out[0] + mono(1, (k,), 1)
            return out

        monkeypatch.setattr(inversion, "mat_vec", planted)
        with pytest.raises(MethodDisagreement) as err:
            invert_fixed_point(catalan_map, 6)
        assert f"exponent ({k},)" in str(err.value)

    @pytest.mark.parametrize("degree", [6, 12])
    def test_newton_step_without_refresh_is_rejected(self, catalan_map, monkeypatch, degree):
        # with M = I a step is a plain pass, exact through t + o - 1 only
        monkeypatch.setattr(inversion, "newton_inverse", lambda a, m, cap: m)
        with pytest.raises(MethodDisagreement):
            invert_fixed_point(catalan_map, degree)


class TestRecurrent:
    def test_layer_values(self, catalan_map):
        layers = invert_recurrent(catalan_map, 6).layers
        assert layers[0].components[0].terms == {(2,): 1}
        assert layers[1].components[0].terms == {(3,): 2}
        assert layers[2].components[0].terms == {(4,): 5}

    def test_annihilating_h_stops_at_layer_one(self, shear_map):
        # JH.H = 0 forces every higher layer to vanish
        layers = recurrent_layers(shear_map.h, 5)
        assert not all(c.is_zero() for c in layers[0].components)
        for layer in layers[1:]:
            assert all(c.is_zero() for c in layer.components)

    def test_h_zero(self):
        gi = invert_recurrent(MapF(PolyMap.zero(1)), 5)
        assert all(
            c.is_zero() for layer in gi.layers for c in layer.components
        )

    def test_layer_order_bound(self, rng):
        # o(N_[m]) >= m + 1
        for _ in range(5):
            f = random_map(rng, rng.choice((1, 2, 3)))
            gi = invert_recurrent(f, 7)
            for m, layer in enumerate(gi.layers, start=1):
                assert layer.order >= m + 1

    def test_layer_degree_bound_polynomial(self, rng):
        # deg N_[m] <= (deg H - 1) m + 1, on exact (uncapped) layers
        for _ in range(5):
            h = random_h(rng, 2, max_deg=3)
            d = h.max_degree()
            for m, layer in enumerate(recurrent_layers(h, 5), start=1):
                assert layer.max_degree() <= (d - 1) * m + 1

    def test_layer_homogeneity(self, rng):
        # homogeneous H of degree d: layer m homogeneous of degree (d-1)m+1
        for d in (2, 3):
            h = random_h(rng, 2, homogeneous_degree=d)
            for m, layer in enumerate(recurrent_layers(h, 5), start=1):
                degs = {
                    c.zdeg(e) for c in layer.components for e in c.terms
                }
                assert degs <= {(d - 1) * m + 1}


class TestBForm:
    def test_square_polarizes_to_product(self):
        form = BForm(PolyMap([mono(1, (2,))]))
        u = PolyMap([mono(1, (1,))])
        v = PolyMap([mono(1, (2,))])
        out = b_form_apply(form, [u, v])
        assert out.components[0].terms == {(3,): 1}

    def test_diagonal_recovers_h(self, rng):
        for d in (2, 3):
            h = random_h(rng, 2, homogeneous_degree=d)
            form = BForm(h)
            diag = form.apply([PolyMap.identity(2)] * d)
            assert all(
                a.terms == b.terms
                for a, b in zip(diag.components, h.components)
            )

    def test_symmetry(self, rng):
        import itertools

        for d in (2, 3):
            h = random_h(rng, 2, homogeneous_degree=d)
            form = BForm(h)
            args = [
                PolyMap([mono(2, (1, 0)), mono(2, (0, 1), -1)]),
                PolyMap([mono(2, (0, 1), Rat(1, 2)), mono(2, (1, 0))]),
                PolyMap.identity(2),
            ][:d]
            base = form.apply(args)
            for perm in itertools.permutations(range(d)):
                out = form.apply([args[p] for p in perm])
                assert all(
                    a.terms == b.terms
                    for a, b in zip(out.components, base.components)
                )

    def test_wrong_arity(self):
        form = BForm(PolyMap([mono(1, (2,))]))
        with pytest.raises(Exception):
            form.apply([PolyMap.identity(1)])

    def test_requires_homogeneous(self):
        h = PolyMap([mono(1, (2,)) + mono(1, (3,))])
        with pytest.raises(HomogeneityError):
            BForm(h)

    def test_argument_of_other_dimension(self):
        form = BForm(PolyMap([mono(2, (1, 1)), mono(2, (2, 0))]))
        with pytest.raises(DimensionMismatch):
            form.apply([PolyMap.identity(2), PolyMap.identity(3)])

    def test_argument_with_wrong_component_count(self):
        form = BForm(PolyMap([mono(2, (1, 1)), mono(2, (2, 0))]))
        three = [mono(2, (1, 0)), mono(2, (0, 1)), mono(2, (1, 1))]
        with pytest.raises(DimensionMismatch):
            form.apply([PolyMap.identity(2), three])

    def test_argument_with_parameters(self):
        form = BForm(PolyMap([mono(2, (1, 1)), mono(2, (2, 0))]))
        with pytest.raises(DimensionMismatch):
            form.apply([PolyMap.identity(2), PolyMap.identity(2, nparams=1)])

    def test_form_of_map_with_parameters(self):
        with pytest.raises(DimensionMismatch):
            BForm(PolyMap([mono(1, (2,)).with_params(1)]))

    def test_arguments_with_constant_terms(self):
        # H = (z1 z2, z1^2): B(U, V) = ((U1 V2 + U2 V1) / 2, U1 V1)
        form = BForm(PolyMap([mono(2, (1, 1)), mono(2, (2, 0))]))
        u = PolyMap([mono(2, (0, 0)), mono(2, (1, 0))])  # (1, z1)
        v = PolyMap([mono(2, (0, 1)), mono(2, (0, 0), 3)])  # (z2, 3)
        for args in ([u, v], [v, u]):
            out = form.apply(args)
            assert out.components[0].terms == {(0, 0): Rat(3, 2), (1, 1): Rat(1, 2)}
            assert out.components[1].terms == {(0, 1): 1}
            assert out.trunc == float("inf")
        capped = form.apply([u, v], cap=1)
        assert capped.components[0].terms == {(0, 0): Rat(3, 2)}
        assert capped.trunc == 1


class TestHomogeneous:
    def test_layer_values(self, catalan_map):
        gi = invert_homogeneous(catalan_map, degree=5)
        assert gi.layers[0].components[0].terms == {(2,): 1}
        assert gi.layers[1].components[0].terms == {(3,): 2}
        assert gi.layers[2].components[0].terms == {(4,): 5}

    def test_rejects_mixed_degrees(self):
        f = MapF(PolyMap([mono(1, (2,)) + mono(1, (4,))]))
        with pytest.raises(HomogeneityError):
            invert_homogeneous(f, degree=5)

    def test_matches_recurrent_layerwise(self, rng):
        for _ in range(4):
            n = rng.choice((1, 2))
            h = random_h(rng, n, homogeneous_degree=3)
            f = MapF(h)
            a = invert_homogeneous(f, degree=9)
            b = invert_recurrent(f, 9)
            for m in range(1, len(a.layers) + 1):
                assert a.layer(m).truncate(9).eq_through(b.layer(m), 9)


class TestAbhyankarGurjar:
    def test_worked_coefficient(self, catalan_map):
        # the m=1 and m=2 derivative terms combine to [z^3] G = -8 + 10 = 2
        g = invert_abhyankar_gurjar(catalan_map, 3)
        assert g.components[0].terms[(3,)] == 2

    def test_h_zero(self):
        g = invert_abhyankar_gurjar(MapF(PolyMap.zero(3)), 4)
        assert g.eq_through(PolyMap.identity(3), 4)

    def test_matches_fixed_point(self, rng):
        for _ in range(4):
            f = random_map(rng, rng.choice((1, 2, 3)))
            assert invert_abhyankar_gurjar(f, 6).eq_through(
                invert_fixed_point(f, 6), 6
            )

    def test_graded_exponents_by_total_then_lexicographic(self):
        # the order of ag's parts and of the coefficient formulas' rows
        for n in range(1, 5):
            for top in range(7):
                every = [e for e in itertools.product(range(top + 1), repeat=n) if sum(e) <= top]
                expected = sorted(every, key=lambda e: (sum(e), e))
                assert inversion._graded_exponents(n, top) == expected


class TestBCW:
    def test_catalan_by_tree_sizes(self, catalan_map):
        g = invert_bcw(catalan_map, 4)
        assert g.components[0].terms == {(1,): 1, (2,): 1, (3,): 2, (4,): 5}

    def test_h_zero(self):
        assert invert_bcw(MapF(PolyMap.zero(2)), 5).eq_through(PolyMap.identity(2), 5)

    def test_matches_fixed_point(self, rng):
        for _ in range(4):
            f = random_map(rng, rng.choice((1, 2)))
            assert invert_bcw(f, 6).eq_through(invert_fixed_point(f, 6), 6)


class TestCoefficientFormulas:
    def test_lagrange_catalan(self, catalan_map):
        assert lagrange_coefficient(catalan_map, 0, (3,)) == 2

    def test_lagrange_h_zero(self):
        f = MapF(PolyMap.zero(2))
        assert lagrange_coefficient(f, 0, (1, 0)) == 1
        assert lagrange_coefficient(f, 0, (2, 1)) == 0

    def test_lagrange_needs_divisibility(self, shear_map):
        with pytest.raises(DivisibilityError) as err:
            lagrange_coefficient(shear_map, 0, (1, 1))
        assert "jacobi" in str(err.value)

    def test_lagrange_matches_jacobi_on_divisible_maps(self, rng):
        for _ in range(4):
            f = random_divisible_map(rng, 2)
            for k in [(1, 0), (2, 1), (0, 3), (2, 2)]:
                for i in range(2):
                    assert lagrange_coefficient(f, i, k) == jacobi_coefficient(
                        f, i, k
                    )

    def test_jacobi_matches_inverse_coefficients(self, rng):
        f = random_map(rng, 2)
        g = invert_fixed_point(f, 4)
        for i in range(2):
            for k in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 3)]:
                assert jacobi_coefficient(f, i, k) == g.components[i].terms.get(
                    k, Rat(0)
                )


class TestCrossCheck:
    def test_catalan_all_map_methods(self, catalan_map):
        report = cross_check(catalan_map, 8)
        assert report.inverse.components[0].terms == catalan_poly_terms(8)
        assert set(report.method_names()) == {
            "fixed", "recurrent", "homog", "ag", "bcw",
        }

    def test_random_quadratic(self, rng):
        h = random_h(rng, 2, max_deg=2)
        report = cross_check(MapF(h), 6)
        assert report.inverse is not None

    def test_shear_all_methods_return_z_plus_h(self, shear_map):
        report = cross_check(shear_map, 6)
        expected = (PolyMap.identity(2) + shear_map.h).truncate(6)
        assert report.inverse.eq_through(expected, 6)

    def test_inapplicable_methods_filtered(self, shear_map):
        # shear H is homogeneous, so homog stays; a mixed-degree H drops it
        assert "homog" in applicable_methods(shear_map)
        mixed = MapF(PolyMap([mono(1, (2,)) + mono(1, (3,))]))
        assert "homog" not in applicable_methods(mixed)
        assert "lagrange" not in applicable_methods(
            shear_map, ["lagrange"]
        )

    def test_unknown_method_is_a_library_error(self, catalan_map):
        with pytest.raises(ForminvError, match="unknown method 'nope'"):
            applicable_methods(catalan_map, ["fixed", "nope"])
        with pytest.raises(ForminvError, match="unknown method 'nope'"):
            cross_check(catalan_map, 4, ["nope"])

    def test_disagreement_diagnostic(self, catalan_map, monkeypatch):
        def corrupt(f, degree):
            g = invert_fixed_point(f, degree)
            bad = g.components[0] + mono(1, (3,), 1, trunc=degree)
            return PolyMap([bad])

        monkeypatch.setitem(METHODS, "fixed", corrupt)
        with pytest.raises(MethodDisagreement) as err:
            cross_check(catalan_map, 6)
        assert "exponent (3,)" in str(err.value)

    @pytest.mark.parametrize(
        "h, where",
        [
            ([mono(1, (2,))], "component 1, exponent (2,)"),
            ([MSeries.zero(2), mono(2, (2, 0))], "component 2, exponent (2, 0)"),
        ],
    )
    def test_identity_check_names_the_first_difference(self, monkeypatch, h, where):
        # G = z is no inverse of z - H, so F(G) = z - H differs from z
        monkeypatch.setitem(METHODS, "fixed", lambda f, d: PolyMap.identity(f.n, trunc=d))
        with pytest.raises(MethodDisagreement) as err:
            cross_check(MapF(PolyMap(h)), 4, ["fixed"])
        assert str(err.value) == f"F(G) differs from z at {where}: -1 vs 0"

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_f_of_g_alone_catches_a_shared_wrong_inverse(self, monkeypatch, degree):
        """Every method returns the same inverse with its z1^D coefficient
        changed: they agree, so only F(G) = z can reject it (the change
        reaches F(G) = G - H(G) at degree D and H(G) only above D)."""
        f = MapF(PolyMap([mono(2, (1, 1)) + mono(2, (0, 2)), mono(2, (2, 0), -1)]))
        names = applicable_methods(f)
        g = invert_fixed_point(f, degree).truncate(degree)
        wrong = PolyMap([g.components[0] + mono(2, (degree, 0)), g.components[1]])
        for name in names:
            monkeypatch.setitem(METHODS, name, lambda f, d: wrong)
        with pytest.raises(MethodDisagreement) as err:
            cross_check(f, degree)
        assert str(err.value).startswith(
            f"F(G) differs from z at component 1, exponent ({degree}, 0): "
        )
        assert len(names) == 5


# -- properties against the recurrent layers -----------------------------------


PROPERTY = settings(max_examples=60, deadline=None)
COEFFS = st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)])


def exponents(n, lo, hi):
    """Exponents in n variables of total degree lo..hi, each drawn as a
    list of variable indices."""
    idx = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)
    return idx.map(lambda ks: tuple(ks.count(k) for k in range(n)))


@st.composite
def canonical_maps(draw, lo=2, hi=5):
    """F = z - H with n in {1, 2, 3}, o(H) drawn from lo..hi and monomial
    degrees from o(H)..hi; one draw in hi - lo + 2 gives H = 0."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(lo, hi + 1))
    if order > hi:
        return MapF(PolyMap.zero(n))
    monomials = st.dictionaries(exponents(n, order, hi), COEFFS, max_size=3)
    terms = [draw(monomials) for _ in range(n)]
    terms[draw(st.integers(0, n - 1))][draw(exponents(n, order, order))] = draw(COEFFS)
    return MapF(PolyMap([MSeries(n, INF, t) for t in terms]))


def same_inverse(a, b):
    return a.trunc == b.trunc and [c.terms for c in a] == [c.terms for c in b]


@PROPERTY
@given(canonical_maps(), st.integers(1, 10))
@example(MapF(PolyMap.zero(2)), 4)
@example(MapF(PolyMap([mono(1, (5,))])), 2)
def test_graded_fixed_point_matches_recurrent(f, degree):
    expected = invert_recurrent(f, degree).inverse_map()
    assert same_inverse(invert_fixed_point(f, degree), expected)


@PROPERTY
@given(canonical_maps(hi=2), st.integers(1, 2))
def test_abhyankar_gurjar_low_degree_matches_recurrent(f, degree):
    # at D = 2 the indices with |m| = D - 1 = 1 still contribute
    expected = invert_recurrent(f, degree).inverse_map()
    assert same_inverse(invert_abhyankar_gurjar(f, degree), expected)


@pytest.mark.parametrize(
    "f",
    [
        MapF(PolyMap([mono(1, (2,))])),  # F = z - z^2
        MapF(PolyMap([mono(2, (1, 1)) + mono(2, (0, 2)), mono(2, (2, 0), -1)])),
    ],
    ids=["catalan", "n2"],
)
def test_degree_zero_inverse_has_no_terms(f):
    """Through degree 0 every inverse is the zero map: z_i has degree 1, so
    no method may store it at trunc 0."""
    assert all(not z.terms and z.trunc == 0 for z in PolyMap.identity(f.n, trunc=0))
    for name, method in METHODS.items():
        try:
            g = method(f, 0)
        except DivisibilityError:  # the product form needs z_i | H_i
            continue
        assert [(c.terms, c.trunc) for c in g.components] == [({}, 0)] * f.n, name


# -- the potential route of recurrent_layers -----------------------------------


def jacobian_layers(h, count, cap=None):
    """Reference layers: N_[1] = H cut at the cap and
    N_[m] = 1/(m-1) sum_{k+l=m} JN_[k] . N_[l], by capped products and
    sums of single series."""
    layers = [h if cap is None else h.truncate(cap)]
    for m in range(2, count + 1):
        jacs = [layer.jacobian() for layer in layers]
        comps = [
            series_sum(
                [jacs[k - 1][i][j].mul(layers[m - k - 1][j], cap=cap)
                 for k in range(1, m) for j in range(h.n)]
            ).scale(Rat(1, m - 1))
            for i in range(h.n)
        ]
        layers.append(PolyMap(comps))
    return layers


def layer_data(layers):
    return [(c.trunc, c.terms) for layer in layers for c in layer]


@st.composite
def gradient_maps(draw, max_n=4):
    """H = grad P for P with 1..3 monomials of mixed degrees 3..5 in
    n = 1..max_n variables, so o(H) >= 2 and JH is symmetric."""
    n = draw(st.integers(1, max_n))
    p = MSeries(n, INF, draw(st.dictionaries(exponents(n, 3, 5), COEFFS, min_size=1, max_size=3)))
    return PolyMap([p.diff(i) for i in range(n)])


CAPS = st.one_of(st.none(), st.integers(0, 8))


@PROPERTY
@given(gradient_maps(), st.integers(1, 5), CAPS)
@example(PolyMap([mono(2, (2, 0)), mono(2, (0, 2))]), 4, None)
def test_gradient_layers_match_the_jacobian_recurrence(h, count, cap):
    assert layer_data(recurrent_layers(h, count, cap)) == layer_data(
        jacobian_layers(h, count, cap)
    )


@PROPERTY
@given(
    gradient_maps(max_n=3),
    st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=3, max_size=3),
    st.integers(1, 5),
    CAPS,
)
def test_truncated_gradient_layers_match_the_jacobian_recurrence(h, cuts, count, cap):
    """Components cut at unequal degrees: the potential would certify
    other truncations, so these stay on the Jacobian route."""
    h = PolyMap([c if d is None else c.truncate(d) for c, d in zip(h, cuts)])
    assert layer_data(recurrent_layers(h, count, cap)) == layer_data(
        jacobian_layers(h, count, cap)
    )


@PROPERTY
@given(canonical_maps(hi=4), st.integers(1, 5), st.integers(0, 8))
def test_layers_match_the_jacobian_recurrence(f, count, cap):
    assert layer_data(recurrent_layers(f.h, count, cap)) == layer_data(
        jacobian_layers(f.h, count, cap)
    )


@pytest.mark.parametrize(
    "h, potential",
    [
        (PolyMap([mono(1, (2,)) + mono(1, (5,))]), True),  # every n = 1 map
        (PolyMap([mono(2, (1, 1)), mono(2, (2, 0), Rat(1, 2))]), True),  # grad z1^2 z2 / 2
        (PolyMap([mono(2, (1, 1), trunc=4), mono(2, (2, 0), Rat(1, 2), trunc=4)]), False),
        (PolyMap([mono(2, (0, 2)), MSeries.zero(2)]), False),  # shear: JH not symmetric
    ],
    ids=["n1", "gradient", "truncated_gradient", "shear"],
)
def test_route_is_read_off_the_map(monkeypatch, h, potential):
    """The potential route runs exactly for exact H with symmetric JH."""
    calls = []
    real = inversion._potential_layers
    monkeypatch.setattr(
        inversion, "_potential_layers", lambda *a: calls.append(a) or real(*a)
    )
    assert layer_data(recurrent_layers(h, 4, 6)) == layer_data(jacobian_layers(h, 4, 6))
    assert bool(calls) == potential
