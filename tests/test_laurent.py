"""Laurent expansions and residues, checked against a naive symbolic
expansion oracle."""

import math

import pytest

from forminv import (
    MapF,
    MSeries,
    PolyMap,
    TruncationError,
    jacobi_coefficient,
    laurent_inv_power,
    residue,
    series_from_terms,
)
from forminv.rat import Rat

from forminv_testing import mono, random_series


def naive_inv_power(h_components, k, depth):
    """Oracle: expand prod_i (z_i - H_i)^{-k_i-1} as
    z^{-k-1} prod_i sum_{m<=depth} C(k_i+m, m) (H_i/z_i)^m
    with plain dict arithmetic and no windowing beyond `depth`."""
    n = len(h_components)

    def dict_mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Rat(0)) + ca * cb
        return {e: c for e, c in out.items() if c}

    total = {tuple(-(x + 1) for x in k): Rat(1)}
    for i in range(n):
        x = {}
        for e, c in h_components[i].terms.items():
            e2 = list(e)
            e2[i] -= 1
            x[tuple(e2)] = c
        factor = {(0,) * n: Rat(1)}
        power = {(0,) * n: Rat(1)}
        for m in range(1, depth + 1):
            power = dict_mul(power, x)
            for e, c in power.items():
                factor[e] = factor.get(e, Rat(0)) + c * math.comb(k[i] + m, m)
        total = dict_mul(total, factor)
    return total


class TestLaurentInvPower:
    def test_one_var_k2(self, catalan_map):
        # z^-3 (1-z)^-3 = z^-3 + 3 z^-2 + 6 z^-1 + ...
        e = laurent_inv_power(catalan_map, (2,), window=0)
        assert e.terms[(-3,)] == 1
        assert e.terms[(-2,)] == 3
        assert e.terms[(-1,)] == 6

    def test_h_zero(self):
        f = MapF(PolyMap.zero(2))
        e = laurent_inv_power(f, (1, 2), window=2)
        assert e.terms == {(-2, -3): 1}

    def test_one_var_k0(self, catalan_map):
        # 1/(z - z^2) = z^-1 + 1 + z + ...
        e = laurent_inv_power(catalan_map, (0,), window=1)
        assert e.terms[(-1,)] == 1
        assert e.terms[(0,)] == 1
        assert e.terms[(1,)] == 1

    def test_against_naive_expansion(self, rng):
        for _ in range(12):
            n = rng.choice((1, 2))
            h = [random_series(rng, n, min_deg=2, max_deg=3) for _ in range(n)]
            f = MapF(PolyMap(h))
            k = tuple(rng.randint(0, 4 // n) for _ in range(n))
            window = 1
            got = laurent_inv_power(f, k, window)
            want = naive_inv_power(h, k, depth=window + sum(k) + n + 2)
            want_windowed = {e: c for e, c in want.items() if sum(e) <= window}
            assert got.terms == want_windowed

    def test_one_var_deep_exponent(self, rng):
        # |k| up to 4 in one variable, deg H <= 3
        for k in range(5):
            h = [random_series(rng, 1, min_deg=2, max_deg=3)]
            f = MapF(PolyMap(h))
            got = laurent_inv_power(f, (k,), window=2)
            want = naive_inv_power(h, (k,), depth=k + 6)
            assert got.terms == {e: c for e, c in want.items() if sum(e) <= 2}


class TestResidue:
    def test_basic(self):
        e = MSeries(1, 0, {(-1,): Rat(1)})
        assert residue(e) == 1
        e = MSeries(1, 0, {(-2,): Rat(1), (-1,): Rat(3)})
        assert residue(e) == 3

    def test_two_variables_at_either_width(self):
        # 2^19 does not fit the default field width, so the keys are wider
        for far in (3, 2**19):
            other = {(-far, far - 2): Rat(1)}
            assert residue(MSeries(2, -2, {(-1, -1): Rat(5, 3), **other})) == Rat(5, 3)
            assert residue(MSeries(2, -2, other)) == 0

    def test_window_guard(self):
        e = MSeries(1, -2, {(-2,): Rat(1)})
        with pytest.raises(TruncationError):
            residue(e)

    def test_worked_example(self, catalan_map):
        # residue of (1-2z) z^-3 (1-z)^-4 = [z^2](1-2z)(1+4z+10z^2) = 2,
        # i.e. j(F) F^{-4} z for F = z - z^2 and k = 3
        e = laurent_inv_power(catalan_map, (3,), window=-2)
        weight = mono(1, (1,), 1) + mono(1, (2,), -2)  # z * (1 - 2z)
        prod = e.mul(weight.truncate(5), cap=-1)
        assert residue(prod) == 2


class TestFormat:
    def test_negative_exponents(self):
        e = MSeries(1, 0, {(-2,): Rat(1), (-1,): Rat(3)})
        assert e.format() == "z^-2 + 3*z^-1"
        assert MSeries(2, 0, {(-1, -1): Rat(2)}).format() == "2*z1^-1*z2^-1"


class TestJacobiCoefficient:
    def test_catalan_values(self, catalan_map):
        assert jacobi_coefficient(catalan_map, 0, (3,)) == 2
        assert jacobi_coefficient(catalan_map, 0, (2,)) == 1

    def test_unit_vector(self, shear_map):
        assert jacobi_coefficient(shear_map, 0, (1, 0)) == 1
        assert jacobi_coefficient(shear_map, 1, (0, 1)) == 1
        assert jacobi_coefficient(shear_map, 0, (0, 1)) == 0


class TestPrecisionGuards:
    def test_window_beyond_truncated_h(self):
        # H known only through degree 3 cannot support a wide window
        h = series_from_terms(1, 3, [((2,), 1)])
        f = MapF(PolyMap([h]))
        with pytest.raises(TruncationError):
            laurent_inv_power(f, (4,), window=2)

    def test_jacobi_insufficient_precision(self):
        h = series_from_terms(1, 3, [((2,), 1)])
        f = MapF(PolyMap([h]))
        with pytest.raises(TruncationError):
            jacobi_coefficient(f, 0, (6,))
