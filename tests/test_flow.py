"""Deformation family, transport PDE residual, identity suites, formal
flow, integer powers, the layer-vanishing probe, and symmetry detection."""

import dataclasses

import pytest

from forminv import (
    HomogeneityError,
    MapF,
    MSeries,
    NilpotencyError,
    PolyMap,
    check_bcw_quadratic_nilpotent,
    check_euler_identities,
    check_gpde,
    check_lemma31,
    check_newp,
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
from forminv import flow
from forminv.cli import run_command
from forminv.mapdoc import document_from_polymap, serialize_map
from forminv.randmaps import random_h, random_map
from forminv.rat import Rat

from conftest import mono


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
        assert dinv.at(1).eq_through(g, 6)

    def test_t_zero_is_identity(self, catalan_map):
        dinv = deformation_inverse(catalan_map, 6)
        assert dinv.at(0).is_identity_through(6)

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
            assert dinv.g_t().compose(dinv.f_t(), cap=6).is_identity_through(6)
            assert dinv.f_t().compose(dinv.g_t(), cap=6).is_identity_through(6)


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
        t0 = res.components[0].param_coefficients().get((0,))
        assert t0 is not None and not t0.is_zero()


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
    def test_shear(self, shear_map):
        report = check_bcw_quadratic_nilpotent(shear_map.h, 6)
        assert report.ok
        assert report.data["JH^2"] == "0"

    def test_square_gate(self, catalan_map):
        report = check_bcw_quadratic_nilpotent(catalan_map.h, 6)
        assert report.ok
        assert report.data["JH^2"] == "nonzero"

    def test_euler_bridge_random_cubic(self, rng):
        for _ in range(4):
            h = random_h(rng, 2, homogeneous_degree=3)
            assert check_bcw_quadratic_nilpotent(h, 6).ok

    def test_rejects_inhomogeneous(self):
        with pytest.raises(HomogeneityError):
            check_bcw_quadratic_nilpotent(
                PolyMap([mono(1, (2,)) + mono(1, (3,))]), 5
            )


class TestProp310:
    def test_square_map(self, catalan_map):
        assert check_prop310(catalan_map, 5, 2, 2).ok

    def test_random(self, rng):
        f = random_map(rng, 2, max_deg=3)
        assert check_prop310(f, 4, 3, 3).ok


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

    def test_tpoly_view(self, catalan_map):
        coeffs = formal_flow(catalan_map, 3).tpoly_coefficients()
        assert coeffs[0][(2,)].coeffs == (0, -1)

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
        assert power_map(catalan_map, 0, 5).is_identity_through(5)

    def test_minus_one_is_inverse(self, catalan_map):
        g = power_map(catalan_map, -1, 6)
        assert f"{g.components[0].format()}".startswith("z + z^2 + 2*z^3")

    def test_square(self, catalan_map):
        p2 = power_map(catalan_map, 2, 5)
        assert p2.components[0].terms == {(1,): 1, (2,): -2, (3,): 2, (4,): -1}

    def test_inverse_powers_compose(self, catalan_map):
        p = power_map(catalan_map, 3, 5)
        q = power_map(catalan_map, -3, 5)
        assert p.compose(q, cap=5).is_identity_through(5)


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

    @staticmethod
    def failing(report):
        return [item.name for item in report.items if not item.ok]

    def test_every_suite_fails(self, faulty, tmp_path, capsys):
        d = self.DEGREE
        assert self.failing(check_lemma31(faulty, d)) == [
            "N_t(F_t) = H",
            "H(G_t) = N_t",
            "JN_t(F_t) = sum_k JH^k t^(k-1)",
        ]
        assert self.failing(check_euler_identities(faulty.h, d)) == [
            "N_t = (1/d) JN_t (z - (d-1) t N_t)",
            "JN_t z = d(I + ((d-1)t/d) JN_t) N_t",
            "N_t = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^k z",
            "dN_t/dt = (1/d) sum_k (-(d-1)t/d)^(k-1) JN_t^(k+1) z",
        ]
        assert self.failing(check_prop310(faulty, d, 2, 2)) == [
            "U_{s,t}(V_{s,t}) = z",
            "V_{s,t}(U_{s,t}) = z",
            "U_{s,t} = F_{t+s} o G_t",
            "V_{s,t} = F_t o G_{s+t}",
        ]
        assert self.failing(check_gpde(PolyMap.identity(2), faulty.h, d)) == [
            "dU_t/dt = JU_t . N_t"
        ]
        # dN_t/dt gains z1^4 at t^0; JN_t . N_t changes only above degree 4
        res = pde_residual(flow.deformation_inverse(faulty, d))
        assert [c.truncate(d).terms for c in res.components] == [{(4, 0, 0): 1}, {}]
        doc = tmp_path / "h.json"
        doc.write_text(serialize_map(document_from_polymap(faulty.map, d)))
        assert run_command(["verify", "--suite", "pde", "--input", str(doc)]) == 1
        assert "[FAIL] dN_t/dt - JN_t.N_t = 0" in capsys.readouterr().out
