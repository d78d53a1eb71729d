"""Byte-identity of computed outputs.

Each entry is the sha256 of canonical output text (``serialize_polymap``
for maps, ``rat_to_str`` for coefficients) on fixed corpus maps.  The
digests were recorded before the sparse kernels were folded into one
product loop and one accumulate step, and must never change: a change to
the series core that alters any output byte fails here.  The ``homog``
entries (every layer of ``invert_homogeneous``, with its truncation) were
recorded while the multilinear form was still evaluated by polarization.
The identity-suite reports (``REPORT_GOLDEN``: the JSON of lemma 3.1,
Euler, Prop. 3.10, the transported Cauchy problem and ``forminv verify
--suite pde``) were recorded while every suite still built N_t one degree
past the degree it compares; the Prop. 3.10 entries were recorded again
when that suite gained the computed item F_t(G_t) = z and began to report
U(V) = z and V(U) = z as items derived from it and the two factorizations,
and the transported Cauchy problem and ``verify --suite pde`` entries when
both suites gained the initial-condition item "N_t at t = 0 equals H".
The lemma 3.1, Prop. 3.10 and Euler entries were recorded again when
lemma 3.1 and Prop. 3.10 came to compute only H(G_t) = N_t, as a new first
item, and to report every other composition identity as derived from it,
and the Euler suite to derive its second item from its first: the derived
items name their step and premise in their detail.
The high-precision entries
(``HIGH_PRECISION_GOLDEN``: inverses at D = 30 with coefficients of 100+
bits, a unit inverse whose denominators mix 2, 3, 5 and 7, and a Laurent
expansion) were recorded while products still multiplied ``Rat`` values
term by term.
"""

import hashlib
import itertools
import random

from forminv import (
    METHODS,
    MapF,
    MSeries,
    PolyMap,
    check_euler_identities,
    check_gpde,
    check_lemma31,
    check_prop310,
    cross_check,
    deformation_inverse,
    formal_flow,
    invert_homogeneous,
    jacobi_coefficient,
    laurent_inv_power,
    unit_inverse,
)
from forminv.cli import run_command
from forminv.mapdoc import serialize_polymap
from forminv.randmaps import CORPUS_SEED, acceptance_corpus, random_map
from forminv.rat import Rat, rat_to_str
from forminv.series import INF

CORPUS = acceptance_corpus(12)
SMALL = [f for f in CORPUS if f.n <= 2][:3]


def _dense_cubic():
    """The A10 map: every cubic monomial in n = 3 variables, in every
    component, coefficients cycling through a fixed pool."""
    pool = [Rat(c) for c in (1, -1, 2, -2, 1, 1, -1, 2, 1, -2)]
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    return MapF(
        PolyMap(
            [
                MSeries(3, INF, {e: pool[(i + j) % len(pool)] for j, e in enumerate(exps)})
                for i in range(3)
            ]
        )
    )


def _quadratics():
    """The homogeneous quadratic maps of the 50-map corpus (both n = 1), and
    two seeded homogeneous quadratics with n = 2 and n = 3."""
    corpus = [f for f in acceptance_corpus(50) if f.h.homogeneous_degree() == 2][:2]
    rng = random.Random(CORPUS_SEED)
    return corpus + [random_map(rng, n, homogeneous_degree=2) for n in (2, 3)]


HOMOG = [("dense_cubic", _dense_cubic(), 8)] + [
    (f"quadratic[{idx}]", f, 8) for idx, f in enumerate(_quadratics())
]

# exponents per dimension for the residue (Laurent) coefficients
JACOBI_EXPS = {1: [(2,), (4,), (5,)], 2: [(2, 0), (1, 2), (3, 1)]}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs():
    for idx, f in enumerate(CORPUS):
        yield f"cross_check[{idx}]", serialize_polymap(cross_check(f, 6).inverse, 6)
    for idx, f in enumerate(SMALL):
        yield f"formal_flow[{idx}]", serialize_polymap(formal_flow(f, 5).map, 5)
        yield f"deformation_inverse[{idx}]", serialize_polymap(
            deformation_inverse(f, 6).n_t, 6
        )
        coeffs = [
            rat_to_str(jacobi_coefficient(f, i, k))
            for i in range(f.n)
            for k in JACOBI_EXPS[f.n]
        ]
        yield f"jacobi[{idx}]", " ".join(coeffs)
    for name, f, degree in HOMOG:
        layers = invert_homogeneous(f, degree).layers
        yield f"homog.{name}", "\n".join(
            f"{layer.trunc} {serialize_polymap(layer, degree)}" for layer in layers
        )


GOLDEN = {
    "cross_check[0]": "7dba651e998e4a819243e6fcad3c4a934ae84ff02c52d50fa5d31b29ab6b6b37",
    "cross_check[1]": "2b3ffe5ffe5009959c066df0d5e0fe57f4c650c76cf1e57351a1a85be2e4eed6",
    "cross_check[2]": "869ac8feccfe1fddb37be20a06d099856401e862e2b18a8e39225565e8e78031",
    "cross_check[3]": "49f4516dc2f2f226c9a6124678bfba4f09a5f6fc52ff59d703781482b314719e",
    "cross_check[4]": "66f3f7de2590ad7017ff7fb57f02cd0478a1233c1883b8f7ef2a81a9fbe75319",
    "cross_check[5]": "c3b9a3f62d8d9777ec5f6051b7ac9df69706677409af168f23dcc8cbea2fa3d8",
    "cross_check[6]": "355930abb1778e6b83baef50e379e0495ad0a2d4d1fa58dde723663f479177b8",
    "cross_check[7]": "fd71248ddad3c086c920483b6880b5a2fa564cefe329a6ca48e40a6ead77e6fb",
    "cross_check[8]": "8071e080903d4455885f528d5aa1e1bd1feebcf5171b8b239233c95ec6e395b1",
    "cross_check[9]": "075bd727c2e5ed61cb090e6521255fa6ee0e2bae7ecb789a39f375ead85d6bc7",
    "cross_check[10]": "ccbcaee36fbd4ff6bb53ece145fba0c774c30207e5d78c9659158dcaaa5d5148",
    "cross_check[11]": "63f3a571e1b5c75629b4fe2c3b507289812912067acaee15c58917edfb73b11e",
    "formal_flow[0]": "d0da0b653a43a1b43f9c850753faeed3f36b9a212a671169d76e3b58023ca63b",
    "deformation_inverse[0]": "6fa09f88ca14f4aad79179291778c3fae68163a37b7a8545d3b1439e8c96e4e5",
    "jacobi[0]": "eeca68bdcbb939e056d1ebc822c1ff3e96959c25bf0c4964a96c80eaad919138",
    "formal_flow[1]": "bdfd5b8448543aa223d3dd6e2db1429661c69c006cc1fa3e5d1950267cf9cd10",
    "deformation_inverse[1]": "1aeae8db51e1eb1bcab07e494aadb4977dc6468e30cab788b044bf9c874d0c83",
    "jacobi[1]": "f91ed0878284c53ed6c481e9c044a5fb086565518257ab7b7e80fae5450944fd",
    "formal_flow[2]": "5c41c97d100d5f38eb7fc96bcebd8e1a952aa6a263b16924f5eee6e931023a6e",
    "deformation_inverse[2]": "3518b3551ccffcbfa694b245462e2797ec121d1d959a5b3fab92ca111fab1af8",
    "jacobi[2]": "0650d67eb25510d050b33b76aa1691a53e8657d45a4bcbd2ee74ec6c70cb532e",
    "homog.dense_cubic": "03fa9d2ab3ccac149d4606ee6a6a031a447784be913daf52ed8c59fc7401284e",
    "homog.quadratic[0]": "1acfbc55ff9203709be04959e07cab821cf39e1b418a671a62d1465da749ff52",
    "homog.quadratic[1]": "855978edca21d0e9ea3cd2b33ec7e1a02c43ec8c5fb9d79f8f1d6041e37dda6c",
    "homog.quadratic[2]": "cf8158375b72bf3581012b03d3d1f75052bb89dddb5189e397dea7c1a9d0658e",
    "homog.quadratic[3]": "32fb770bcaf70bdf75915b531969a81f51dc689189ca00aa485d6724672d181e",
}


def test_output_digests_are_unchanged():
    assert {name: _sha(text) for name, text in _outputs()} == GOLDEN


# -- identity-suite reports --------------------------------------------------


def _report_maps():
    """Seeded homogeneous maps with (n, d) in {2, 3}^2, and the n = 3 cubic
    whose lemma-3.1 nilpotency item fails by truncation."""
    rng = random.Random(CORPUS_SEED)
    seeded = [
        (f"n{n}d{d}", random_map(rng, n, homogeneous_degree=d))
        for n in (2, 3)
        for d in (2, 3)
    ]
    h = [{(0, 2, 1): Rat(-2)}, {(3, 0, 0): Rat(1, 2)},
         {(1, 1, 1): Rat(-1), (2, 0, 1): Rat(1, 2), (3, 0, 0): Rat(-1)}]
    defect = MapF(PolyMap([MSeries(3, INF, comp) for comp in h]))
    return seeded + [("lemma31_defect", defect)]


REPORT_DEGREES = (1, 4, 6)


def _report_outputs(tmp_path, capsys):
    """Per suite and map, the suite's JSON report at each degree, one block
    per degree; for ``verify``, its exit code and output."""
    for name, f in _report_maps():
        doc = tmp_path / f"{name}.json"
        doc.write_text(serialize_polymap(f.map, 6))
        suites = {
            "lemma31": lambda d: check_lemma31(f, d).to_json(),
            "euler": lambda d: check_euler_identities(f.h, d).to_json(),
            "prop310": lambda d: check_prop310(f, d, 2, 2).to_json(),
            "gpde": lambda d: check_gpde(PolyMap.identity(f.n), f.h, d).to_json(),
        }
        for suite, run in suites.items():
            yield f"{suite}.{name}", "\n".join(run(d) for d in REPORT_DEGREES)
        blocks = []
        for d in REPORT_DEGREES:
            code = run_command(["verify", "--suite", "pde", "--deg", str(d),
                                "--format", "json", "--input", str(doc)])
            out = capsys.readouterr()
            blocks.append(f"{code}\n{out.out}{out.err}")
        yield f"verify_pde.{name}", "\n".join(blocks)


REPORT_GOLDEN = {
    "lemma31.n2d2": "823dd1ebc360246c6472d1ebb379e2289b86c06cc16a235ac4dbd529df46eb01",
    "euler.n2d2": "1ef584aacbe32f541b165c5281c377c1f557f2b9c8dd9f5b8853eeb471100f50",
    "prop310.n2d2": "d41ecedb7aad75eb26658ad0cb2ca1fd6867f3de1dd513d0638d12082c8c53b8",
    "gpde.n2d2": "d3974f5599c42cdb420f1e1aa374f3d647e889aeb8a6fdce113adaa9d9125e7b",
    "verify_pde.n2d2": "2bfb7e5f69eb332786080e5a55e762b4b3b0b78978d5eb0572f230ebecc16370",
    "lemma31.n2d3": "4df8f27a5e2dc8589adb3e82635a8c6b758643b20d30b052151a301e28a0e608",
    "euler.n2d3": "3d7144f5623dabf148a154fdc120e84c053f301245afc75af39e744f0aefef40",
    "prop310.n2d3": "d41ecedb7aad75eb26658ad0cb2ca1fd6867f3de1dd513d0638d12082c8c53b8",
    "gpde.n2d3": "d3974f5599c42cdb420f1e1aa374f3d647e889aeb8a6fdce113adaa9d9125e7b",
    "verify_pde.n2d3": "2bfb7e5f69eb332786080e5a55e762b4b3b0b78978d5eb0572f230ebecc16370",
    "lemma31.n3d2": "823dd1ebc360246c6472d1ebb379e2289b86c06cc16a235ac4dbd529df46eb01",
    "euler.n3d2": "1ef584aacbe32f541b165c5281c377c1f557f2b9c8dd9f5b8853eeb471100f50",
    "prop310.n3d2": "d41ecedb7aad75eb26658ad0cb2ca1fd6867f3de1dd513d0638d12082c8c53b8",
    "gpde.n3d2": "d3974f5599c42cdb420f1e1aa374f3d647e889aeb8a6fdce113adaa9d9125e7b",
    "verify_pde.n3d2": "2bfb7e5f69eb332786080e5a55e762b4b3b0b78978d5eb0572f230ebecc16370",
    "lemma31.n3d3": "cb45aa9ce2290a2763cd74f84dfd77407fbf6dc644344fd384b1f4c1689b0109",
    "euler.n3d3": "3d7144f5623dabf148a154fdc120e84c053f301245afc75af39e744f0aefef40",
    "prop310.n3d3": "d41ecedb7aad75eb26658ad0cb2ca1fd6867f3de1dd513d0638d12082c8c53b8",
    "gpde.n3d3": "d3974f5599c42cdb420f1e1aa374f3d647e889aeb8a6fdce113adaa9d9125e7b",
    "verify_pde.n3d3": "2bfb7e5f69eb332786080e5a55e762b4b3b0b78978d5eb0572f230ebecc16370",
    "lemma31.lemma31_defect": "cb45aa9ce2290a2763cd74f84dfd77407fbf6dc644344fd384b1f4c1689b0109",
    "euler.lemma31_defect": "3d7144f5623dabf148a154fdc120e84c053f301245afc75af39e744f0aefef40",
    "prop310.lemma31_defect": "d41ecedb7aad75eb26658ad0cb2ca1fd6867f3de1dd513d0638d12082c8c53b8",
    "gpde.lemma31_defect": "d3974f5599c42cdb420f1e1aa374f3d647e889aeb8a6fdce113adaa9d9125e7b",
    "verify_pde.lemma31_defect": "2bfb7e5f69eb332786080e5a55e762b4b3b0b78978d5eb0572f230ebecc16370",
}


def test_report_digests_are_unchanged(tmp_path, capsys):
    digests = {name: _sha(text) for name, text in _report_outputs(tmp_path, capsys)}
    assert digests == REPORT_GOLDEN


# -- high-precision outputs ---------------------------------------------------

# n = 1 maps whose inverses at D = 30 carry coefficients of 100+ bits
DEEP_H = {
    "d234a": {(2,): Rat(2, 3), (3,): Rat(1, 2), (4,): Rat(1, 2)},
    "d235": {(2,): Rat(-2, 3), (3,): Rat(1, 2), (5,): Rat(2, 3)},
    "d234b": {(2,): Rat(-2, 3), (3,): Rat(1, 2), (4,): Rat(-1, 3)},
}


def _series_text(s):
    return f"{s.trunc} " + " ".join(
        f"{e}:{rat_to_str(c)}" for e, c in s.sorted_terms()
    )


def _high_precision_outputs():
    for name, h in DEEP_H.items():
        f = MapF(PolyMap([MSeries(1, INF, h)]))
        for method in ("fixed", "recurrent", "ag"):
            yield f"{method}.{name}", serialize_polymap(METHODS[method](f, 30), 30)
    s = MSeries(2, INF, {(0, 0): Rat(1), (1, 0): Rat(1, 2), (0, 1): Rat(-1, 3),
                         (1, 1): Rat(2, 5), (0, 2): Rat(-3, 7), (3, 0): Rat(1, 5)})
    yield "unit_inverse", _series_text(unit_inverse(s, 12))
    f = MapF(PolyMap([MSeries(2, INF, {(0, 2): Rat(1, 2), (1, 1): Rat(-1, 3)}),
                      MSeries(2, INF, {(2, 0): Rat(2, 3), (2, 1): Rat(1, 5)})]))
    yield "laurent_inv_power", _series_text(laurent_inv_power(f, (1, 2), 6))


HIGH_PRECISION_GOLDEN = {
    "fixed.d234a": "e3d55e1a0d39060edbe28dcce65d8454efd74e4fac82772c3907adbf16cf5bc6",
    "recurrent.d234a": "e3d55e1a0d39060edbe28dcce65d8454efd74e4fac82772c3907adbf16cf5bc6",
    "ag.d234a": "e3d55e1a0d39060edbe28dcce65d8454efd74e4fac82772c3907adbf16cf5bc6",
    "fixed.d235": "d85f578bbdfd3dbc5fdc53fb117e18237837215e205a5cda84c636364053fb84",
    "recurrent.d235": "d85f578bbdfd3dbc5fdc53fb117e18237837215e205a5cda84c636364053fb84",
    "ag.d235": "d85f578bbdfd3dbc5fdc53fb117e18237837215e205a5cda84c636364053fb84",
    "fixed.d234b": "c534b75fb64dcfb7b51745b92d84305ec19b3b48a0569e034a10e69433efde94",
    "recurrent.d234b": "c534b75fb64dcfb7b51745b92d84305ec19b3b48a0569e034a10e69433efde94",
    "ag.d234b": "c534b75fb64dcfb7b51745b92d84305ec19b3b48a0569e034a10e69433efde94",
    "unit_inverse": "195475c88b9eba3efe90ea21f877aa01392f97d56c77ce4a12ebf24fa306829a",
    "laurent_inv_power": "25189fb154873d53320b7f4d5ed3548559836d412888bc641ca7045b88363274",
}


def test_high_precision_digests_are_unchanged():
    digests = {name: _sha(text) for name, text in _high_precision_outputs()}
    assert digests == HIGH_PRECISION_GOLDEN
