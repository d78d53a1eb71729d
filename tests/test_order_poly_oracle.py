"""`order_polynomial` against sympy's interpolation of the same counts.

For every rooted tree with at most 8 vertices, sympy interpolates the
strict order counts at m = 0..|T| and the coefficients must equal those
of `order_polynomial`, which builds the polynomial by Newton's forward
differences inside `MSeries`.  Past the nodes, the polynomial must still
count: its values at m = |T|+1..|T|+3 are checked against
`strict_order_count`.
"""

import sympy

from forminv.rat import Rat
from forminv.trees import enumerate_trees, order_polynomial, strict_order_count

T = sympy.Symbol("t")


def sympy_coefficients(tree):
    points = [(m, strict_order_count(tree, m)) for m in range(tree.size + 1)]
    poly = sympy.Poly(sympy.interpolate(points, T), T)
    return {k: Rat(int(c.p), int(c.q)) for (k,), c in poly.terms() if c}


def test_coefficients_match_sympy_interpolation():
    checked = 0
    for trees in enumerate_trees(8).values():
        for tree in trees:
            omega = order_polynomial(tree)
            coeffs = {e[0]: c for e, c in omega.terms.items()}
            assert coeffs == sympy_coefficients(tree), tree.key
            for m in range(tree.size + 1, tree.size + 4):
                value = omega.eval_param(0, m).terms.get((), 0)
                assert value == strict_order_count(tree, m), (tree.key, m)
            checked += 1
    assert checked == 1 + 1 + 2 + 4 + 9 + 20 + 48 + 115
