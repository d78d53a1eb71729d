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
past the degree it compares.
"""

import hashlib
import itertools
import random

from forminv import (
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
)
from forminv.cli import run_command
from forminv.mapdoc import document_from_polymap, serialize_map, serialize_polymap
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
        doc.write_text(serialize_map(document_from_polymap(f.map, 6)))
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
    "lemma31.n2d2": "6a210cac7faca80862a807c022250977e7f25db1762758133092ce3d67ab37ab",
    "euler.n2d2": "4503d4157a90d6861610973224de6db8768290ac9dccf7a932f18c13bfde6a76",
    "prop310.n2d2": "804574cb3c52f70509149bb88c12b5af5aa357443aa4a6fe169bd85fda6baf18",
    "gpde.n2d2": "75b808e9e07b139400598eb10fff973721756e4cff1984a731303e8c48282537",
    "verify_pde.n2d2": "9414c4a245bf00bb21b316afad69cc7455784859534689214c2b52af4c57dec4",
    "lemma31.n2d3": "e495eda1ba1fc324c5f82fbf731477d46de0ee852bdaa083fd90005db0773c48",
    "euler.n2d3": "f378e05acae902565afa3e6ad78cff41939385c981a473fe1d73e6d72efc09c5",
    "prop310.n2d3": "804574cb3c52f70509149bb88c12b5af5aa357443aa4a6fe169bd85fda6baf18",
    "gpde.n2d3": "75b808e9e07b139400598eb10fff973721756e4cff1984a731303e8c48282537",
    "verify_pde.n2d3": "9414c4a245bf00bb21b316afad69cc7455784859534689214c2b52af4c57dec4",
    "lemma31.n3d2": "6a210cac7faca80862a807c022250977e7f25db1762758133092ce3d67ab37ab",
    "euler.n3d2": "4503d4157a90d6861610973224de6db8768290ac9dccf7a932f18c13bfde6a76",
    "prop310.n3d2": "804574cb3c52f70509149bb88c12b5af5aa357443aa4a6fe169bd85fda6baf18",
    "gpde.n3d2": "75b808e9e07b139400598eb10fff973721756e4cff1984a731303e8c48282537",
    "verify_pde.n3d2": "9414c4a245bf00bb21b316afad69cc7455784859534689214c2b52af4c57dec4",
    "lemma31.n3d3": "97b4fc174581732803f0c7a2dd60115f9bd9cdf2a384b61857d5738db66b7619",
    "euler.n3d3": "f378e05acae902565afa3e6ad78cff41939385c981a473fe1d73e6d72efc09c5",
    "prop310.n3d3": "804574cb3c52f70509149bb88c12b5af5aa357443aa4a6fe169bd85fda6baf18",
    "gpde.n3d3": "75b808e9e07b139400598eb10fff973721756e4cff1984a731303e8c48282537",
    "verify_pde.n3d3": "9414c4a245bf00bb21b316afad69cc7455784859534689214c2b52af4c57dec4",
    "lemma31.lemma31_defect": "97b4fc174581732803f0c7a2dd60115f9bd9cdf2a384b61857d5738db66b7619",
    "euler.lemma31_defect": "f378e05acae902565afa3e6ad78cff41939385c981a473fe1d73e6d72efc09c5",
    "prop310.lemma31_defect": "804574cb3c52f70509149bb88c12b5af5aa357443aa4a6fe169bd85fda6baf18",
    "gpde.lemma31_defect": "75b808e9e07b139400598eb10fff973721756e4cff1984a731303e8c48282537",
    "verify_pde.lemma31_defect": "9414c4a245bf00bb21b316afad69cc7455784859534689214c2b52af4c57dec4",
}


def test_report_digests_are_unchanged(tmp_path, capsys):
    digests = {name: _sha(text) for name, text in _report_outputs(tmp_path, capsys)}
    assert digests == REPORT_GOLDEN
