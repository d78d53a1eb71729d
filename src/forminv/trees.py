"""Rooted-tree combinatorics for the tree-expansion inversion formula and
the formal flow.

Trees are kept in a canonical form (children recursively sorted by size,
then by canonical encoding), so each isomorphism class has exactly one
representative and the parenthesis encoding is a usable dictionary key.
The automorphism order, the labeled differential polynomials, and the
strict order polynomial are all computed against that canonical form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import DimensionMismatch
from .rat import ONE, Rat
from .series import INF, MSeries, PolyMap, dot, series_sum


class RootedTree:
    """Canonical rooted tree.  `key` is the parenthesis encoding, e.g.
    "(()())" for a root with two leaf children; `aut` is the order of the
    root-preserving automorphism group."""

    __slots__ = ("children", "size", "aut", "key")

    def __init__(self, children: Iterable["RootedTree"] = ()):
        children = tuple(sorted(children, key=lambda c: (c.size, c.key)))
        self.children = children
        self.size = 1 + sum(c.size for c in children)
        aut = 1
        run_key, run_len = None, 0
        for c in children:
            aut *= c.aut
            if c.key == run_key:
                run_len += 1
            else:
                run_key, run_len = c.key, 1
            aut *= run_len
        self.aut = aut
        self.key = "(" + "".join(c.key for c in children) + ")"

    @classmethod
    def leaf(cls) -> "RootedTree":
        return cls(())

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RootedTree({self.key}, size={self.size}, aut={self.aut})"


def enumerate_trees(max_size: int) -> dict[int, list[RootedTree]]:
    """All rooted trees with 1..max_size vertices, one canonical
    representative per isomorphism class, grouped by size, each group in
    deterministic (encoding) order.  Counts follow 1, 1, 2, 4, 9, 20, 48, ...
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    by_size: dict[int, list[RootedTree]] = {1: [RootedTree.leaf()]}
    for s in range(2, max_size + 1):
        found = _child_multisets(by_size, s - 1, s - 1, len(by_size[s - 1]) - 1)
        by_size[s] = sorted(map(RootedTree, found), key=lambda t: t.key)
    return by_size


def _child_multisets(by_size, remaining, size_cap, idx_cap):
    """Every multiset of the trees in `by_size` with `remaining` vertices
    in all, as a tuple with non-increasing (size, index) keys no larger
    than (size_cap, idx_cap), so each multiset is produced exactly once.
    Module-level, not a closure that calls itself: such a closure is a
    reference cycle that only the cyclic garbage collector frees."""
    if remaining == 0:
        yield ()
        return
    for sz in range(min(remaining, size_cap), 0, -1):
        pool = by_size[sz]
        top = idx_cap if sz == size_cap else len(pool) - 1
        for idx in range(min(top, len(pool) - 1), -1, -1):
            for rest in _child_multisets(by_size, remaining - sz, sz, idx):
                yield (pool[idx],) + rest


# -- strict order polynomials -----------------------------------------------


def strict_order_count(tree: RootedTree, m: int) -> int:
    """Number of maps sigma: V(T) -> {1..m} that are strictly increasing
    away from the root (x below y implies sigma(x) < sigma(y)).

    Dynamic programming over the tree: for each vertex the vector of counts
    by assigned value, children combined by suffix sums.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0
    return sum(_strict_counts(tree, m))


def _strict_counts(t: RootedTree, m: int) -> list:
    """For each value r in 1..m, the number of strict maps on the subtree
    `t` that send its root to r; children combined by suffix sums."""
    out = [1] * m
    for c in t.children:
        child = _strict_counts(c, m)
        # suffix[r] = number of child maps with sigma(child root) > r+1
        suffix = [0] * m
        acc = 0
        for r in range(m - 1, -1, -1):
            suffix[r] = acc
            acc += child[r]
        out = [a * b for a, b in zip(out, suffix)]
    return out


@lru_cache(maxsize=None)
def order_polynomial(tree: RootedTree, n: int = 0) -> MSeries:
    """The unique degree-|T| polynomial in t agreeing with
    strict_order_count at m = 0..|T|, as a series in `n` variables (none
    by default) and one parameter.  Newton's forward form: the sum over k of the k-th
    difference of the counts at 0 times the binomial C(t, k).  Takes the
    value 0 at t = 1 for trees with >= 2 vertices and (-1)^{|T|} at -1."""
    diffs = [strict_order_count(tree, m) for m in range(tree.size + 1)]
    basis = MSeries.const(n, ONE, nparams=1)  # C(t, 0)
    parts = []
    for k in range(tree.size + 1):
        if k:  # C(t, k) = C(t, k-1) (t - (k-1)) / k
            basis = (basis.shift_param(0) + basis.scale(1 - k)).scale(Rat(1, k))
        parts.append(basis.scale(diffs[0]))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return series_sum(parts)


# -- labeled tree polynomials -------------------------------------------------


class TreePolyCache:
    """Bottom-up evaluation of labeled tree sums against a fixed H, shared
    across trees so isomorphic subtrees are computed once.

    For a subtree S with root label j, q(S, j) is the sum over all
    labelings of S with that root label of the product over vertices v of
    H_{l(v)} differentiated once per child of v, in the child's label.

    The sum is a fold, then a contraction.  The children's part does not
    depend on the root label.  For a child prefix (c_1, ..., c_k) the
    states map each sorted tuple alpha of child root labels to the sum of
    q(c_1, l_1) ... q(c_k, l_k) over the labels with that multiset.  Keyed
    by the prefix's child encodings, they are folded from the states of
    (c_1, ..., c_{k-1}) and the root sums of c_k by ``fold``.
    Children are sorted canonically, so every tree that starts with the
    same children reuses their states.  ``contract`` then pairs the states
    with the mixed partials of H_j, which are memoized, in one ``dot``.
    ``BForm`` evaluates the multilinear form with the same fold and
    contraction.  A factor or a state is left out only when zero through
    the cap, so sums and truncations equal those of ``series_sum`` over the
    capped ``mul``s of the same pairs.

    ``fold`` builds only the multisets of ``live``, those alpha with some
    d^alpha H_i not exactly zero (no terms and truncation INF); every
    extension of such a dead alpha is dead too, so no contraction reads
    its state.  A partial with no terms but a finite truncation keeps its
    state: that state's order bounds the truncation certified by a
    contraction with the partials that extend it.
    """

    def __init__(self, h: PolyMap, cap=None):
        self.h = h
        self.n = h.n
        self.cap = cap
        self._q: dict = {}
        self._deriv: dict = {}
        self._states: dict = {(): {(): MSeries.const(self.n, ONE)}}
        self._live: dict = {0: {()}}

    def deriv(self, i: int, alpha: tuple) -> MSeries:
        """Mixed partial of H_i by the (sorted) tuple of variable indices."""
        if not alpha:
            return self.h.components[i]
        key = (i, alpha)
        hit = self._deriv.get(key)
        if hit is None:
            hit = self.deriv(i, alpha[:-1]).diff(alpha[-1])
            self._deriv[key] = hit
        return hit

    def live(self, size: int) -> set:
        """The sorted label tuples alpha of length `size` with some
        d^alpha H_i not exactly zero, memoized per size; each extends one
        of size - 1, since a dead alpha has only dead extensions."""
        hit = self._live.get(size)
        if hit is None:
            ends = {tuple(sorted(a + (k,))) for a in self.live(size - 1) for k in range(self.n)}
            hit = self._live[size] = {
                a for a in ends
                if any(not self.deriv(i, a).known_zero(INF) for i in range(self.n))
            }
        return hit

    def fold(self, states: dict, vec, size: int, cap=None) -> dict:
        """The states of length `size` from those one shorter and a vector
        of series: each sorted alpha + (k,) of ``live(size)`` maps to the
        sum of states[alpha] * vec[k], one ``dot`` per multiset."""
        limit = INF if cap is None else cap
        keys = self.live(size)
        live = [(k, u) for k, u in enumerate(vec) if not u.known_zero(limit)]
        pairs: dict = {}
        for alpha, state in states.items():
            for k, u in live:
                key = tuple(sorted(alpha + (k,)))
                if key in keys:
                    pairs.setdefault(key, []).append((state, u))
        folded = {a: dot(ps, cap) for a, ps in pairs.items()}
        return {a: s for a, s in folded.items() if not s.known_zero(limit)}

    def contract(self, states: dict, i: int, cap=None) -> MSeries:
        """sum_alpha states[alpha] * d^alpha H_i as one ``dot``.  A partial
        is left out only when ``known_zero`` through the cap; with no pair
        left the sum is zero, certified through the cap."""
        limit = INF if cap is None else cap
        pairs = [(s, self.deriv(i, a)) for a, s in states.items()]
        pairs = [(s, d) for s, d in pairs if not d.known_zero(limit)]
        return dot(pairs, cap) if pairs else MSeries.zero(self.n, limit)

    def _child_states(self, children: tuple) -> dict:
        """The states of a child prefix (see the class docstring), folded
        from those of children[:-1] and the last child's root sums."""
        key = tuple(c.key for c in children)
        hit = self._states.get(key)
        if hit is not None:
            return hit
        prev = self._child_states(children[:-1])
        child = children[-1]
        vec = [self.labeled_root_sum(child, k) for k in range(self.n)] if prev else []
        states = self._states[key] = self.fold(prev, vec, len(children), self.cap)
        return states

    def labeled_root_sum(self, tree: RootedTree, i: int) -> MSeries:
        key = (tree.key, i)
        hit = self._q.get(key)
        if hit is None:
            states = self._child_states(tree.children)
            hit = self._q[key] = self.contract(states, i, self.cap)
        return hit


def tree_poly(tree: RootedTree, h: PolyMap, i: int, cap=None) -> MSeries:
    """The i-th component of the tree's differential polynomial: the sum of
    the labeled products over all labelings fixing the root label i,
    divided by the automorphism order."""
    if not 0 <= i < h.n:
        raise DimensionMismatch(f"root label {i} out of range for n={h.n}")
    return TreePolyCache(h, cap=cap).labeled_root_sum(tree, i).scale(Rat(1, tree.aut))


def graded_cutoff(h: PolyMap, degree: int) -> int:
    """The largest m >= 0 with (o - 1)m + 1 <= degree, where o = o(H) is
    the least ``known_order`` of H's components; at most degree - 1.

    Each graded quantity of grade m built from H has order >= (o - 1)m + 1:
    the layer N_[m], the tree term P_T with |T| = m, and ag's part
    (D^m / m!)(z_i j(F) H^m) with |m| = m.  Past the cutoff
    each is zero through `degree`, certified so by the ops that would
    build it.  An exact zero H (o = INF) has cutoff 0; an H certified only
    through degree 0 (o <= 1) is bounded as if o = 2."""
    order = min(c.known_order for c in h.components)
    if order == INF:
        return 0
    return max(0, (degree - 1) // (max(order, 2) - 1))


def tree_sums(h: PolyMap, degree: int):
    """Yield (tree, [labeled_root_sum(tree, i) for each root label i]) for
    every tree with at most ``graded_cutoff(h, degree)`` vertices, by size
    and then encoding.  o(P_T) >= (o - 1)|T| + 1 with o = o(H), so larger
    trees only reach degrees above `degree`.  All sums come from one cache
    capped at `degree`, so subtrees and child-prefix states are computed
    once for the whole pass."""
    top = graded_cutoff(h, degree)
    if top < 1:
        return
    cache = TreePolyCache(h, cap=degree)
    by_size = enumerate_trees(top)
    for size in range(1, top + 1):
        for tree in by_size[size]:
            yield tree, [cache.labeled_root_sum(tree, i) for i in range(h.n)]


def tree_expansion(sums, n: int, degree: int, weight, nparams: int = 0) -> PolyMap:
    """z + sum over trees T of weight(T) * q_T through `degree`, for the
    (tree, q_T) pairs `sums` of ``tree_sums`` on an H in `n` variables,
    with weight(T) a series of n variables and `nparams` parameters.  Each
    component is one ``dot``.  A root sum is left out only when
    ``known_zero`` through `degree`, and weight(T) is called only for trees
    with one left in.  ``invert_bcw`` is the expansion with the constant
    weights 1/aut(T); the formal flow runs it with weights in a parameter
    t (``FlowSeries.map``) or at a point (``FlowSeries.at``) on one pass
    of sums."""
    one = MSeries.const(n, ONE, nparams=nparams)
    pairs = [[(z_i, one)] for z_i in PolyMap.identity(n, trunc=degree, nparams=nparams)]
    for tree, qs in sums:
        live = [(i, q) for i, q in enumerate(qs) if not q.known_zero(degree)]
        if live:
            w = weight(tree)
            for i, q in live:
                pairs[i].append((q.with_params(nparams), w))
    return PolyMap([dot(ps, degree) for ps in pairs])
