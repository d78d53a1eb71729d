"""Core series arithmetic: construction, ring ops, composition,
differentiation, determinants."""

import math

import pytest

from forminv import (
    DimensionMismatch,
    MapF,
    MSeries,
    PolyMap,
    SubstitutionError,
    TruncationError,
    compose,
    jacobian,
    jacobian_det,
    series_from_terms,
    unit_inverse,
)
from forminv.inversion import inverse_power_factors
from forminv.series import inverse_powers
from forminv.rat import Rat

from forminv_testing import mono, random_series, series, terms_through


class TestConstruction:
    def test_direct(self):
        s = series_from_terms(1, 5, [((2,), 1)])
        assert s.terms == {(2,): 1}

    def test_cancellation(self):
        s = series_from_terms(2, 3, [((0, 2), 1), ((0, 2), -1)])
        assert s.is_zero()

    def test_degree_bound_enforced(self):
        with pytest.raises(TruncationError):
            series_from_terms(1, 2, [((3,), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(TruncationError):
            series_from_terms(1, 2, [((-1,), 1)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            series_from_terms(2, 3, [((1,), 1)])


    @pytest.mark.parametrize("exp, nparams", [((1,), 0), ((1, 0, 0), 0), ((1, 0), 1)])
    def test_monomial_checks_exponent_length(self, exp, nparams):
        with pytest.raises(DimensionMismatch, match="monomial exponent length"):
            MSeries.monomial(2, exp, 1, nparams=nparams)

    def test_monomials_of_one_layout_cancel(self):
        s = MSeries.monomial(2, (1, 0), 1) + MSeries.monomial(2, (1, 0), -1)
        assert s.is_zero()

    def test_the_packed_view_is_the_one_stored_form(self):
        s = series_from_terms(2, 3, [((1, 0), Rat(1, 2)), ((0, 2), 3)])
        assert MSeries.__slots__ == ("n", "nparams", "trunc", "_view")
        first, second = s.terms, s.terms
        assert first == second == {(1, 0): Rat(1, 2), (0, 2): 3}
        assert first is not second
        first.clear()
        assert s.terms == second
        assert MSeries.zero(2, 3).terms == {} and MSeries.zero(2, 3).trunc == 3

    def test_const_stores_no_term_above_its_truncation(self):
        assert MSeries.const(1, 1, trunc=-1).terms == {}
        assert MSeries.const(2, 3, trunc=-2, nparams=1).terms == {}
        assert MSeries.const(1, 1, trunc=0).terms == {(0,): 1}

    def test_monomial_stores_no_term_above_its_truncation(self):
        assert MSeries.monomial(2, (1, 1), 3, trunc=1).terms == {}
        assert MSeries.monomial(2, (1, 1), 3, trunc=2).terms == {(1, 1): 3}
        # a parameter exponent does not count toward the truncation
        assert MSeries.monomial(1, (1, 4), 2, trunc=1, nparams=1).terms == {(1, 4): 2}


class TestAddMul:
    def test_add_cancels(self):
        z2 = mono(1, (2,))
        assert (z2 + (-z2)).is_zero()

    def test_add_plain(self):
        s = mono(1, (1,), trunc=5) + mono(1, (2,), trunc=5)
        assert s.terms == {(1,): 1, (2,): 1}

    def test_add_truncates_to_min(self):
        a = mono(1, (1,), trunc=3)
        b = series(1, {(3,): 1, (4,): 1}, trunc=4)
        out = a + b
        assert out.trunc == 3
        assert out.terms == {(1,): 1, (3,): 1}

    def test_mul_simple(self):
        z = mono(1, (1,))
        assert (z * z).terms == {(2,): 1}

    def test_mul_telescopes(self):
        # (1 - z)(1 + z + z^2 + z^3) = 1 through degree 3
        a = series(1, {(0,): 1, (1,): -1}, trunc=3)
        b = series(1, {(0,): 1, (1,): 1, (2,): 1, (3,): 1}, trunc=3)
        out = a * b
        assert terms_through(out, 3) == {(0,): 1}

    def test_mul_by_zero(self):
        s = series(2, {(1, 1): 3})
        assert (s * MSeries.zero(2)).is_zero()

    def test_order(self):
        assert MSeries.zero(1, 5).order == math.inf
        assert series(1, {(2,): 1, (5,): 1}).order == 2
        assert mono(2, (1, 1)).order == 2

    def test_order_aware_certification(self):
        # JH-style factor (trunc D-1, order 1) times H (trunc D, order 2)
        # stays certified past D
        a = series(1, {(1,): 2}, trunc=7)
        b = series(1, {(2,): 1}, trunc=8)
        assert a.mul(b).trunc == 9


class TestRingAxioms:
    def test_random_triples(self, rng):
        for _ in range(25):
            n = rng.choice((1, 2))
            a = random_series(rng, n, trunc=5)
            b = random_series(rng, n, trunc=5)
            c = random_series(rng, n, trunc=5)
            assert ((a * b) * c).eq_through(a * (b * c), 5)
            assert (a * (b + c)).eq_through(a * b + a * c, 5)
            assert (a * b).eq_through(b * a, 5)
            assert ((a + b) + c).eq_through(a + (b + c), 5)


class TestCompose:
    def test_square_of_shift(self):
        f = mono(1, (2,), trunc=4)
        g = PolyMap([series(1, {(1,): 1, (2,): 1})])
        out = compose(f, g, cap=4)
        assert terms_through(out, 4) == {(2,): 1, (3,): 2, (4,): 1}

    def test_identity_is_neutral(self, rng):
        f = random_series(rng, 2, trunc=5)
        assert compose(f, PolyMap.identity(2)).eq_through(f, 5)

    def test_swap_variables(self):
        f = mono(2, (1, 1))
        g = PolyMap([MSeries.variable(2, 1), MSeries.variable(2, 0)])
        assert compose(f, g).terms == f.terms

    def test_constant_term_rejected(self):
        f = mono(1, (2,), trunc=4)
        g = PolyMap([series(1, {(0,): 1, (1,): 1})])
        with pytest.raises(SubstitutionError):
            compose(f, g)

    def test_negative_power_rejected(self):
        # a Laurent outer series: there is no power g^-1 to build
        f = series(1, {(-1,): 1, (2,): 1}, trunc=3)
        g = PolyMap([series(1, {(1,): 1, (2,): 1}, trunc=5)])
        with pytest.raises(SubstitutionError):
            compose(f, g, cap=3)
        f2 = PolyMap([series(2, {(1, -2): 1}), series(2, {(2, 0): 1})])
        with pytest.raises(SubstitutionError):
            f2.compose(PolyMap.identity(2))

    def test_associativity(self, rng):
        for _ in range(8):
            n = rng.choice((1, 2))
            f = random_series(rng, n, trunc=6)
            g = PolyMap([random_series(rng, n, min_deg=1, trunc=6) for _ in range(n)])
            h = PolyMap([random_series(rng, n, min_deg=1, trunc=6) for _ in range(n)])
            lhs = compose(compose(f, g, cap=6), h, cap=6)
            gh = g.compose(h, cap=6)
            rhs = compose(f, gh, cap=6)
            assert lhs.eq_through(rhs, min(lhs.trunc, rhs.trunc))


class TestDiff:
    def test_power_rule(self):
        assert mono(1, (3,)).diff(0).terms == {(2,): 3}
        f = series(1, {(1,): 1, (4,): 2})
        assert f.diff(0).terms == {(0,): 1, (3,): 8}

    def test_other_variable(self):
        assert mono(2, (0, 2)).diff(0).is_zero()

    def test_trunc_drops(self):
        assert mono(1, (3,), trunc=5).diff(0).trunc == 4

    def test_mixed_partials_commute(self, rng):
        for _ in range(10):
            f = random_series(rng, 3, max_deg=4, trunc=6)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert f.diff(i).diff(j).terms == f.diff(j).diff(i).terms


class TestJacobian:
    def test_entries(self):
        h = PolyMap([mono(2, (0, 2)), MSeries.zero(2)])
        j = jacobian(h)
        assert j[0][0].is_zero()
        assert j[0][1].terms == {(0, 1): 2}
        assert j[1][0].is_zero() and j[1][1].is_zero()

    def test_identity_map(self):
        j = jacobian(PolyMap.identity(2))
        assert j[0][0].terms == {(0, 0): 1} and j[1][1].terms == {(0, 0): 1}
        assert j[0][1].is_zero() and j[1][0].is_zero()

    def test_euler_formula(self, rng):
        # homogeneous H of degree d: JH . z = d H
        from forminv.series import mat_vec

        for d in (2, 3):
            n = 2
            h = PolyMap(
                [random_series(rng, n, max_deg=d, min_deg=d) for _ in range(n)]
            )
            jh_z = PolyMap(mat_vec(jacobian(h), PolyMap.identity(n).components))
            assert all(
                a.terms == b.terms
                for a, b in zip(jh_z.components, h.scale(d).components)
            )


class TestDeterminant:
    def test_one_variable(self):
        f = PolyMap([series(1, {(1,): 1, (2,): -1})])
        assert jacobian_det(f).terms == {(0,): 1, (1,): -2}

    def test_identity(self):
        assert jacobian_det(PolyMap.identity(3)).terms == {(0, 0, 0): 1}

    def test_triangular(self):
        f = PolyMap(
            [series(2, {(1, 0): 1, (0, 2): -1}), MSeries.variable(2, 1)]
        )
        assert jacobian_det(f).terms == {(0, 0): 1}

    def test_multiplicative_under_composition(self, rng):
        # j(F o G) = (j(F) o G) * j(G)
        for _ in range(6):
            n = 2
            f = PolyMap.identity(n) - PolyMap(
                [random_series(rng, n, min_deg=2, max_deg=3) for _ in range(n)]
            )
            g = PolyMap.identity(n) - PolyMap(
                [random_series(rng, n, min_deg=2, max_deg=3) for _ in range(n)]
            )
            fg = f.compose(g, cap=6)
            lhs = jacobian_det(fg, cap=5)
            rhs = compose(jacobian_det(f), g, cap=5).mul(jacobian_det(g), cap=5)
            assert lhs.eq_through(rhs, 5)

    def test_no_unit_pivot_falls_back(self):
        # all entries have positive order: det via minor expansion
        m = [[mono(2, (1, 0)), mono(2, (0, 1))], [mono(2, (0, 1)), mono(2, (1, 0))]]
        from forminv.series import series_det

        det = series_det(m)
        assert det.terms == {(2, 0): 1, (0, 2): -1}


class TestParameters:
    """Deformation parameters ride along in extra exponent slots."""

    def test_lift_and_shift(self):
        s = mono(1, (2,)).with_params(1)
        assert s.terms == {(2, 0): 1}
        assert s.shift_param(0, 3).terms == {(2, 3): 1}

    def test_param_degree_ignored_by_truncation(self):
        s = mono(1, (2,), trunc=3).with_params(1).shift_param(0, 9)
        assert s.terms == {(2, 9): 1}
        assert s.zdeg((2, 9)) == 2

    def test_eval_param(self):
        s = mono(1, (2,)).with_params(1) + mono(1, (3,)).with_params(1).shift_param(0, 2)
        at2 = s.eval_param(0, 2)
        assert at2.terms == {(2,): 1, (3,): 4}
        assert at2.nparams == 0

    def test_subst_param_sum_binomial(self):
        # t^2 -> (t+s)^2 = t^2 + 2ts + s^2
        s = mono(1, (1,)).with_params(2).shift_param(0, 2)
        out = s.subst_param_sum(0, 1)
        assert out.terms == {(1, 2, 0): 1, (1, 1, 1): 2, (1, 0, 2): 1}

    def test_subst_param_sum_rejects_negative_power(self):
        # (t + s)^-1 has no polynomial expansion; the term was dropped before
        s = MSeries(1, math.inf, {(2, -1, 0): Rat(1)}, 2)
        with pytest.raises(SubstitutionError):
            s.subst_param_sum(0, 1)
        with pytest.raises(SubstitutionError):
            mono(1, (2,)).with_params(2).shift_param(0, -1).subst_param_sum(0, 1)
        assert s.subst_param_sum(1, 0).terms == {(2, -1, 0): 1}
        with pytest.raises(DimensionMismatch):
            s.subst_param_sum(0, 2)

    def test_pdiff(self):
        s = mono(1, (2,)).with_params(1).shift_param(0, 3)
        assert s.pdiff(0).terms == {(2, 2): 3}
        assert s.pdiff(0).trunc == s.trunc

    def test_strip_params(self):
        s = mono(1, (2,)).with_params(1)
        assert s.strip_params().terms == {(2,): 1}
        with pytest.raises(DimensionMismatch):
            s.shift_param(0).strip_params()


class TestMapF:
    def test_from_h(self):
        f = MapF(PolyMap([mono(1, (2,))]))
        assert f.map.components[0].terms == {(1,): 1, (2,): -1}

    def test_from_map_extracts_h(self):
        m = PolyMap([series(1, {(1,): 1, (2,): -1, (3,): 2})])
        f = MapF.from_map(m)
        assert f.h.components[0].terms == {(2,): 1, (3,): -2}

    def test_rejects_low_order_h(self):
        from forminv import CanonicalFormError

        with pytest.raises(CanonicalFormError):
            MapF(PolyMap([mono(1, (1,))]))

    def test_rejects_wrong_linear_part(self):
        from forminv import CanonicalFormError

        with pytest.raises(CanonicalFormError):
            MapF.from_map(PolyMap([series(1, {(1,): 2, (2,): -1})]))

    def test_rejects_constant_term(self):
        from forminv import CanonicalFormError

        with pytest.raises(CanonicalFormError):
            MapF.from_map(PolyMap([series(1, {(0,): 1, (1,): 1})]))

    def test_rejects_cross_linear_term(self):
        from forminv import CanonicalFormError

        with pytest.raises(CanonicalFormError):
            MapF.from_map(
                PolyMap(
                    [
                        series(2, {(1, 0): 1, (0, 1): 1}),
                        MSeries.variable(2, 1),
                    ]
                )
            )


class TestUnitInverse:
    def test_geometric(self):
        s = series(1, {(0,): 1, (1,): -1})
        inv = unit_inverse(s, 5)
        assert inv.terms == {(k,): 1 for k in range(6)}

    def test_product_is_one(self, rng):
        for _ in range(6):
            s = random_series(rng, 2, max_deg=3) + MSeries.const(2, Rat(3, 2))
            inv = unit_inverse(s, 6)
            assert terms_through(s.mul(inv, cap=6), 6) == {(0, 0): 1}

    def test_needs_constant_term(self):
        with pytest.raises(SubstitutionError):
            unit_inverse(mono(1, (1,)), 3)


class TestInversePowers:
    def test_below_degree_zero_is_empty(self):
        h = PolyMap([mono(1, (2,))])
        (factors,) = inverse_power_factors(h, [[1, 2]], -1)
        for factors in (inverse_powers(mono(1, (1,)), [1, 2], -1), factors):
            assert [(s.terms, s.trunc) for s in factors.values()] == [({}, -1)] * 2

    def test_empty_power_bounds_the_truncation(self):
        # x = 0 known only through 1: (1 - x)^(-1) = 1 through 1, not further
        (s,) = inverse_powers(MSeries.zero(1, trunc=1), [1], 5).values()
        assert s.trunc == 1 and s.terms == {(0,): 1}
