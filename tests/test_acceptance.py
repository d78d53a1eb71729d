"""Acceptance criteria A1-A10.

Every criterion is one test that prints its own pass line; all tolerances
are exact equality of rationals.  Run with:

    pytest tests/test_acceptance.py -v
"""

import itertools
import time

import dataclasses

from forminv import (
    MapF,
    MSeries,
    PolyMap,
    check_euler_identities,
    check_gpde,
    check_newp,
    check_prop310,
    cross_check,
    deformation_inverse,
    formal_flow,
    invert_homogeneous,
    invert_recurrent,
    jacobi_coefficient,
    lagrange_coefficient,
    pde_residual,
    power_map,
)
from forminv.bench import run_bench, to_csv
from forminv.inversion import METHODS
from forminv.randmaps import acceptance_corpus, random_divisible_map, random_h
from forminv.rat import Rat
from forminv.trees import enumerate_trees, order_polynomial, strict_order_count

from forminv_testing import parent_list, terms_through

DEGREE = 8
CORPUS = acceptance_corpus(50)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def _passed(name, detail=""):
    print(f"[PASS] {name}" + (f" - {detail}" if detail else ""))


def test_a1_method_agreement():
    """A1: all applicable methods of the seven agree exactly through
    degree 8 on the 50-map seeded corpus, and invert F on both sides."""
    start = time.perf_counter()
    for f in CORPUS:
        report = cross_check(f, DEGREE, list(METHODS))  # raises on any disagreement
        assert report.inverse is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"A1 exceeded 5 minutes: {elapsed:.1f}s"
    _passed("A1 method agreement", f"50 maps, degree {DEGREE}, {elapsed:.1f}s")


def test_a2_catalan_oracle():
    """A2: F = z - z^2 inverts to the Catalan generating series; every
    method reproduces coefficients k = 1..12."""
    f = MapF(PolyMap([MSeries.monomial(1, (2,), 1)]))
    oracle = METHODS["fixed"](f, 12)
    golden = {(k,): Rat(CATALAN[k - 1]) for k in range(1, 13)}
    assert terms_through(oracle.components[0], 12) == golden
    for name in ("recurrent", "homog", "ag", "bcw"):
        g = METHODS[name](f, 12)
        assert terms_through(g.components[0], 12) == golden, name
    for k in range(1, 13):
        assert jacobi_coefficient(f, 0, (k,)) == CATALAN[k - 1]
        assert lagrange_coefficient(f, 0, (k,)) == CATALAN[k - 1]
    _passed("A2 Catalan oracle", "all 7 methods, k = 1..12")


def increasing_maps(parents, m):
    """The maps V(T) -> {1..m} that increase strictly away from the root,
    counted depth first over the vertices in preorder: each vertex takes
    every value above its parent's."""
    sigma = [0] * len(parents)

    def count(v):
        if v == len(parents):
            return 1
        low = sigma[parents[v]] + 1 if v else 1
        total = 0
        for value in range(low, m + 1):
            sigma[v] = value
            total += count(v + 1)
        return total

    return count(0)


def test_a3_order_polynomials():
    """A3: for all 85 rooted trees with <= 7 vertices the order polynomial
    matches exhaustive counts at m = 1..5, vanishes at 1 for |T| >= 2, and
    equals (-1)^|T| at -1."""
    start = time.perf_counter()
    by_size = enumerate_trees(7)
    total = sum(len(ts) for ts in by_size.values())
    assert total == 85
    for size, trees in by_size.items():
        for tree in trees:
            omega = order_polynomial(tree)
            assert omega.eval_param(0, -1).terms.get((), 0) == (-1) ** tree.size
            if tree.size >= 2:
                assert omega.eval_param(0, 1).terms.get((), 0) == 0
            parents = parent_list(tree)
            for m in range(1, 6):
                counted = increasing_maps(parents, m)
                value = omega.eval_param(0, m).terms.get((), 0)
                assert value == counted == strict_order_count(tree, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"A3 exceeded 1 minute: {elapsed:.1f}s"
    _passed("A3 order polynomials", f"85 trees, exhaustive counts m<=5, {elapsed:.1f}s")


def test_a4_flow_consistency():
    """A4: the flow specializes to the tree inverse at t = -1, to iterates
    at t = 2, 3, and satisfies the integer group law, on the n <= 2 corpus
    subset."""
    subset = [f for f in CORPUS if f.n <= 2]
    assert len(subset) >= 20
    for f in subset:
        fl = formal_flow(f, DEGREE)
        assert fl.at(-1).eq_through(METHODS["bcw"](f, DEGREE), DEGREE)
        for m in (2, 3):
            assert fl.at(m).eq_through(power_map(f, m, DEGREE), DEGREE)
    for f in subset[:8]:
        fl = formal_flow(f, DEGREE)
        for a, b in [(-1, 1), (1, 1), (2, 1), (-1, 2), (1, -2), (0, 3)]:
            if abs(a) + abs(b) > 3:
                continue
            composed = fl.at(a).compose(fl.at(b), cap=DEGREE)
            assert composed.eq_through(fl.at(a + b), DEGREE)
    _passed("A4 flow consistency", f"{len(subset)} maps with n <= 2")


def test_a5_pde_residual():
    """A5: the transport residual dN/dt - JN.N vanishes identically through
    z-degree 8 at every computed t-order, and an injected layer fault is
    detected."""
    for f in CORPUS:
        dinv = deformation_inverse(f, DEGREE + 1)
        res = pde_residual(dinv)
        assert all(c.is_zero_through(DEGREE) for c in res.components), (
            f"nonzero residual for n={f.n}"
        )
    # fault injection: perturb N_[2] by z^3 on the Catalan map
    f = MapF(PolyMap([MSeries.monomial(1, (2,), 1)]))
    dinv = deformation_inverse(f, DEGREE)
    fault = MSeries.monomial(1, (3,), 1)
    layers = list(dinv.layers)
    layers[1] = PolyMap([layers[1].components[0] + fault])
    corrupted = dataclasses.replace(dinv, layers=tuple(layers))
    res = pde_residual(corrupted)
    assert not all(c.is_zero_through(5) for c in res.components)
    _passed("A5 PDE residual", "50 maps zero; injected fault detected")


def test_a6_newp_both_directions():
    """A6: inverse = z + H exactly when JH.H = 0 (with powers z - mH), the
    square map has a nonzero second layer, and JH^2 = 0 homogeneous
    instances pass the Euler bridge JH^2 . z = d JH . H."""
    shear = PolyMap([MSeries.monomial(2, (0, 2), 1), MSeries.zero(2)])
    report = check_newp(shear, DEGREE)
    assert report.ok
    checked = {item.name for item in report.items}
    assert "G = z + H" in checked
    for m in range(1, 5):
        assert f"F^[{m}] = z - {m}H" in checked

    square = PolyMap([MSeries.monomial(1, (2,), 1)])
    report = check_newp(square, DEGREE)
    assert report.ok
    assert "first nonzero higher layer: 2" in report.items[0].detail
    layers = invert_recurrent(MapF(square), DEGREE).layers
    assert layers[1].components[0].terms == {(3,): 2}  # N_[2] = 2z^3 != 0

    report = check_newp(shear, DEGREE)
    assert report.ok and report.data["JH^2"] == "0"
    assert "JH^2 . z = d JH . H" in [item.name for item in report.items]
    # a 3-variable strictly-triangular quadratic instance
    tri = PolyMap(
        [
            MSeries.monomial(3, (0, 1, 1), 1),
            MSeries.zero(3),
            MSeries.zero(3),
        ]
    )
    report = check_newp(tri, DEGREE)
    assert report.ok and report.data["JH^2"] == "0"
    assert "G = z + H" in [item.name for item in report.items]
    _passed("A6 inverse characterization", "both directions + JH^2 = 0 route")


def test_a7_homogeneous_recurrence_equivalence():
    """A7: the differential-free recurrence and the layer recurrence agree
    layer by layer through degree 9 on 20 random homogeneous maps, and each
    layer is homogeneous of degree (d-1)m + 1."""
    import random

    rng = random.Random(424242)
    degree = 9
    cases = 0
    while cases < 20:
        d = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        h = random_h(rng, n, homogeneous_degree=d)
        f = MapF(h)
        a = invert_homogeneous(f, degree=degree)
        b = invert_recurrent(f, degree)
        for m in range(1, len(a.layers) + 1):
            layer = a.layer(m)
            assert layer.truncate(degree).eq_through(b.layer(m), degree)
            degs = {c.zdeg(e) for c in layer.components for e in c.terms}
            assert degs <= {(d - 1) * m + 1}
        # layers beyond the homogeneous cutoff live above the degree bound
        for m in range(len(a.layers) + 1, len(b.layers) + 1):
            assert b.layer(m).order > degree or all(
                c.is_zero_through(degree) for c in b.layer(m).components
            )
        cases += 1
    _passed("A7 homogeneous recurrence equivalence", "20 maps, degree 9")


def test_a8_identity_suites():
    """A8: closure-under-inversion, transported Cauchy problem, and the
    homogeneous Euler identities all hold exactly at z-degree 6."""
    import random

    rng = random.Random(77)
    degree = 6
    for _ in range(3):
        n = rng.choice((1, 2))
        f = MapF(random_h(rng, n, max_deg=3))
        assert check_prop310(f, degree, 3, 3).ok
        u0 = PolyMap([MSeries.monomial(n, tuple(2 if i == 0 else 0 for i in range(n)), 1)
                      for _ in range(n)])
        assert check_gpde(u0, f.h, degree).ok
    for d in (2, 3):
        for n in (1, 2):
            h = random_h(rng, n, homogeneous_degree=d)
            assert check_euler_identities(h, degree).ok
    _passed("A8 identity suites", "prop310/gpde/euler at degree 6")


def test_a9_residue_formulas():
    """A9: the residue formula reproduces the cross-checked inverse
    coefficient-by-coefficient for |k| <= 6 on the n <= 2 corpus, and the
    product-form formula matches on divisible inputs."""
    import random

    subset = [f for f in CORPUS if f.n <= 2]
    for f in subset:
        g = cross_check(f, 6).inverse
        n = f.n
        exps = [
            e
            for total in range(7)
            for e in itertools.product(range(7), repeat=n)
            if sum(e) == total
        ]
        for i in range(n):
            stored = g.components[i]
            for k in exps:
                assert jacobi_coefficient(f, i, k) == stored.terms.get(k, Rat(0))
    rng = random.Random(5150)
    for _ in range(6):
        f = random_divisible_map(rng, rng.choice((1, 2)))
        g = cross_check(f, 5).inverse
        n = f.n
        for i in range(n):
            for k in itertools.product(range(6), repeat=n):
                if sum(k) > 5:
                    continue
                want = g.components[i].terms.get(k, Rat(0))
                assert lagrange_coefficient(f, i, k) == want
                assert jacobi_coefficient(f, i, k) == want
    _passed("A9 residue formulas", "|k| <= 6 jacobi; divisible-case lagrange")


def test_a10_benchmark(tmp_path):
    """A10: the benchmark grid on a dense homogeneous cubic (n = 3) at
    D in {4, 6, 8, 10} finishes, hash-agrees, and emits valid CSV.  The
    ranking is reported, never asserted."""
    start = time.perf_counter()
    n = 3
    pool = [Rat(c) for c in (1, -1, 2, -2, 1, 1, -1, 2, 1, -2)]
    exps = [e for e in itertools.product(range(4), repeat=n) if sum(e) == 3]
    comps = []
    for i in range(n):
        comps.append(
            MSeries(n, float("inf"), {e: pool[(i + j) % len(pool)] for j, e in enumerate(exps)})
        )
    f = MapF(PolyMap(comps))
    records, skips = run_bench(
        [("dense-cubic-n3", f)],
        ("fixed", "recurrent", "homog", "ag", "bcw"),
        (4, 6, 8, 10),
        runs=3,
    )
    assert not skips
    assert len(records) == 20
    csv_text = to_csv(records)
    csv_path = tmp_path / "bench.csv"
    csv_path.write_text(csv_text)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "input_id,method,degree,millis,terms,agree_hash"
    assert len(lines) == 21
    hashes_by_degree = {}
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        float(cells[3])  # millis parse
        int(cells[4])
        hashes_by_degree.setdefault(cells[2], set()).add(cells[5])
    assert all(len(h) == 1 for h in hashes_by_degree.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"A10 exceeded 10 minutes: {elapsed:.1f}s"
    ranking = {}
    for r in records:
        ranking.setdefault(r.degree, []).append((r.millis, r.method))
    summary = "; ".join(
        f"D={d}: " + " < ".join(m for _, m in sorted(v))
        for d, v in sorted(ranking.items())
    )
    _passed("A10 benchmark", f"{elapsed:.1f}s; observed ranking {summary}")
