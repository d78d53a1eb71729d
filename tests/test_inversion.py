"""The five inversion algorithms, the graded-layer invariants, and the
cross-checking oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forminv import (
    BForm,
    DimensionMismatch,
    DivisibilityError,
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
from forminv.inversion import METHODS, applicable_methods, recurrent_layers
from forminv.randmaps import random_divisible_map, random_h, random_map
from forminv.rat import Rat
from forminv.series import INF

from conftest import mono

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def catalan_poly_terms(degree):
    return {(k,): Rat(CATALAN[k - 1]) for k in range(1, degree + 1)}


class TestFixedPoint:
    def test_h_zero(self):
        g = invert_fixed_point(MapF(PolyMap.zero(2)), 5)
        assert g.is_identity_through(5)

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
            assert f.map.compose(g, cap=6).is_identity_through(6)
            assert g.compose(f.map, cap=6).is_identity_through(6)

    def test_truncated_h_stops_at_its_truncation(self):
        # no pass can certify beyond H's own truncation 4 < D
        h = PolyMap([MSeries(1, 4, {(2,): Rat(1), (3,): Rat(1)})])
        g = invert_fixed_point(MapF(h), 8)
        assert g.trunc == 4
        assert g.components[0].terms == {(1,): 1, (2,): 1, (3,): 3, (4,): 10}

    def test_confirming_pass_must_reproduce_g(self, catalan_map, monkeypatch):
        # corrupt z^cap in every pass fed a G already exact through the cap
        compose = PolyMap.compose

        def corrupted(self, g, cap=None):
            out = compose(self, g, cap)
            if g.trunc < cap:
                return out
            return PolyMap([out.components[0] + mono(1, (cap,), 1, trunc=out.trunc)])

        monkeypatch.setattr(PolyMap, "compose", corrupted)
        with pytest.raises(MethodDisagreement) as err:
            invert_fixed_point(catalan_map, 6)
        assert "exponent (6,)" in str(err.value)


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
        assert g.is_identity_through(4)

    def test_matches_fixed_point(self, rng):
        for _ in range(4):
            f = random_map(rng, rng.choice((1, 2, 3)))
            assert invert_abhyankar_gurjar(f, 6).eq_through(
                invert_fixed_point(f, 6), 6
            )


class TestBCW:
    def test_catalan_by_tree_sizes(self, catalan_map):
        g = invert_bcw(catalan_map, 4)
        assert g.components[0].terms == {(1,): 1, (2,): 1, (3,): 2, (4,): 5}

    def test_h_zero(self):
        assert invert_bcw(MapF(PolyMap.zero(2)), 5).is_identity_through(5)

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

    def test_disagreement_diagnostic(self, catalan_map, monkeypatch):
        def corrupt(f, degree):
            g = invert_fixed_point(f, degree)
            bad = g.components[0] + mono(1, (3,), 1, trunc=degree)
            return PolyMap([bad])

        monkeypatch.setitem(METHODS, "fixed", corrupt)
        with pytest.raises(MethodDisagreement) as err:
            cross_check(catalan_map, 6)
        assert "exponent (3,)" in str(err.value)


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
