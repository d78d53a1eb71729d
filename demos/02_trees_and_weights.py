"""Rooted trees, automorphisms, order polynomials, and the tree-expansion
inverse.

The inverse of z - H can be organized as a sum over rooted trees: each
tree T contributes a differential polynomial P_T (labelings of vertices by
coordinates, one derivative per child), weighted by 1/|Aut(T)|.  The same
tree data, weighted instead by strict order polynomials, produces the
formal flow (demo 03).

Run:  python demos/02_trees_and_weights.py
"""

from forminv import (
    MapF,
    MSeries,
    PolyMap,
    RootedTree,
    enumerate_trees,
    invert_bcw,
    order_polynomial,
    tree_poly,
)
from forminv.rat import Rat

# ---------------------------------------------------------------------------
# Enumeration: one representative per isomorphism class
# ---------------------------------------------------------------------------
by_size = enumerate_trees(6)
print("rooted trees by size:", {s: len(ts) for s, ts in by_size.items()})
print()
print("the size-4 classes, with automorphism order and strict order polynomial:")
for t in by_size[4]:
    print(f"  {t.key:12s} |Aut| = {t.aut}   omega(t) = {order_polynomial(t).format()}")
print()

# Two sanity identities satisfied by the order polynomials:
#   omega(1)  = 0 for any tree with >= 2 vertices (no strict map into {1})
#   omega(-1) = (-1)^{|T|}
# omega is a series with no variables and one parameter t; eval_param
# substitutes a value for t and leaves a constant.
t = by_size[5][3]
omega = order_polynomial(t)
print(
    f"spot check on {t.key}: omega(1) = {omega.eval_param(0, 1)}, "
    f"omega(-1) = {omega.eval_param(0, -1)}"
)
print()

# ---------------------------------------------------------------------------
# Tree polynomials against a concrete H
# ---------------------------------------------------------------------------
h = PolyMap([MSeries.monomial(1, (2,), 1)])  # H = z^2, one variable
print("contributions of small trees for H = z^2:")
for size in range(1, 5):
    for t in by_size[size]:
        p = tree_poly(t, h, 0)
        print(f"  |T|={size}  {t.key:10s} P_T = {p.format()}")
print()

# Summing tree contributions up to size D-1 rebuilds the inverse through
# degree D (each tree of size s contributes only at degrees >= s+1).
f = MapF(h)
print("tree-expansion inverse through degree 6:", invert_bcw(f, 6).format())
print()

# ---------------------------------------------------------------------------
# Cayley cross-check: sum over size-s trees of s!/|Aut(T)| = s^{s-1}
# ---------------------------------------------------------------------------
import math

for s in range(1, 7):
    total = sum(Rat(math.factorial(s), t.aut) for t in by_size[s])
    print(f"  s={s}: sum s!/|Aut| = {total}  (s^(s-1) = {s ** (s - 1)})")
