"""Rooted-tree enumeration, automorphisms, order polynomials, and labeled
tree polynomials, each validated against an independent brute-force
oracle."""

import gc
import itertools
import math

from forminv import (
    MSeries,
    PolyMap,
    RootedTree,
    enumerate_trees,
    order_polynomial,
    strict_order_count,
    tree_poly,
)
from forminv.inversion import recurrent_layers
from forminv.rat import Rat
from forminv.trees import tree_sums

from forminv_testing import mono, parent_list, random_series

LEAF = RootedTree.leaf()
CHAIN2 = RootedTree((LEAF,))  # a root with one child
CHERRY = RootedTree((LEAF, LEAF))  # a root with two leaf children


# -- oracles -------------------------------------------------------------------


def oracle_tree_counts(max_size):
    """Independent enumeration: grow trees by attaching a leaf at every
    vertex, deduplicate by a locally computed canonical form (sorted nested
    tuples, a different encoding than the library's)."""

    def canon(adj, root):
        return tuple(sorted(canon(adj, c) for c in adj[root]))

    # trees as parent tuples; root = index 0 with parent -1
    current = {(): (-1,)}
    counts = [1]
    for _ in range(max_size - 1):
        nxt = {}
        for parents in current.values():
            size = len(parents)
            for attach in range(size):
                new_parents = parents + (attach,)
                adj = {i: [] for i in range(size + 1)}
                for child, parent in enumerate(new_parents):
                    if parent >= 0:
                        adj[parent].append(child)
                key = canon(adj, 0)
                nxt.setdefault(key, new_parents)
        counts.append(len(nxt))
        current = nxt
    return counts


def oracle_strict_count(tree, m):
    """Filtered exhaustive enumeration of all maps V(T) -> [m]."""
    parents = parent_list(tree)
    size = len(parents)
    count = 0
    for sigma in itertools.product(range(1, m + 1), repeat=size):
        if all(
            sigma[p] < sigma[v] for v, p in enumerate(parents) if p >= 0
        ):
            count += 1
    return count


def oracle_tree_poly(tree, h, i):
    """Direct sum over labelings: for each l: V(T) -> [n] with l(root) = i,
    multiply H_{l(v)} differentiated once per child in the child's label;
    divide by |Aut|."""
    parents = parent_list(tree)
    size = len(parents)
    n = h.n
    children = [[] for _ in range(size)]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    total = MSeries.zero(n)
    for labels in itertools.product(range(n), repeat=size):
        if labels[0] != i:
            continue
        prod = MSeries.const(n, 1)
        for v in range(size):
            factor = h.components[labels[v]]
            for c in children[v]:
                factor = factor.diff(labels[c])
            prod = prod * factor
        total = total + prod
    return total.scale(Rat(1, tree.aut))


# -- enumeration ----------------------------------------------------------------


class TestEnumeration:
    def test_single_vertex(self):
        by_size = enumerate_trees(1)
        assert [t.key for t in by_size[1]] == ["()"]

    def test_counts_match_oracle(self):
        by_size = enumerate_trees(7)
        got = [len(by_size[s]) for s in range(1, 8)]
        assert got == oracle_tree_counts(7)
        assert got == [1, 1, 2, 4, 9, 20, 48]

    def test_size_seven_is_48(self):
        assert len(enumerate_trees(7)[7]) == 48

    def test_no_duplicates(self):
        by_size = enumerate_trees(6)
        keys = [t.key for s in by_size for t in by_size[s]]
        assert len(keys) == len(set(keys))

    def test_deterministic_order(self):
        a = enumerate_trees(6)
        b = enumerate_trees(6)
        assert [t.key for s in a for t in a[s]] == [t.key for s in b for t in b[s]]

    def test_cayley_identity(self):
        # sum over size-s trees of s!/|Aut| = s^(s-1): ties enumeration and
        # automorphism counts to the labeled-tree count
        by_size = enumerate_trees(7)
        for s, trees in by_size.items():
            total = sum(Rat(math.factorial(s), t.aut) for t in trees)
            assert total == s ** (s - 1)


    def test_calls_leave_no_reference_cycle(self):
        """Enumerating trees and counting strict maps, then dropping the
        results, leaves nothing for the cyclic garbage collector."""
        gc.collect()
        gc.disable()
        try:
            by_size = enumerate_trees(6)
            counts = [strict_order_count(t, 4) for s in by_size for t in by_size[s]]
            del by_size, counts
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAut:
    def test_examples(self):
        assert RootedTree.leaf().aut == 1
        assert CHERRY.aut == 2
        assert RootedTree((CHAIN2,)).aut == 1
        assert RootedTree((LEAF,) * 4).aut == 24

    def test_nested(self):
        # root with two identical 2-chain children: swap + nothing inside
        t = RootedTree((CHAIN2, CHAIN2))
        assert t.aut == 2


class TestStrictOrderCount:
    def test_single_vertex(self):
        assert strict_order_count(RootedTree.leaf(), 5) == 5

    def test_chain(self):
        t = CHAIN2
        assert strict_order_count(t, 4) == 6
        for m in range(7):
            assert strict_order_count(t, m) == m * (m - 1) // 2

    def test_cherry(self):
        assert strict_order_count(CHERRY, 3) == 5

    def test_against_bruteforce(self):
        for s, trees in enumerate_trees(5).items():
            for t in trees:
                for m in range(4):
                    assert strict_order_count(t, m) == oracle_strict_count(t, m)


class TestOrderPolynomial:
    def test_single_vertex_is_t(self):
        assert order_polynomial(RootedTree.leaf()).terms == {(1,): 1}

    def test_chain2(self):
        # t(t-1)/2
        assert order_polynomial(CHAIN2).terms == {
            (1,): Rat(-1, 2),
            (2,): Rat(1, 2),
        }

    def test_interpolation_extends_past_nodes(self):
        for s, trees in enumerate_trees(6).items():
            for t in trees:
                omega = order_polynomial(t)
                for m in range(1, t.size + 4):
                    value = omega.eval_param(0, m).terms.get((), 0)
                    assert value == strict_order_count(t, m)

    def test_value_at_one_and_minus_one(self):
        for s, trees in enumerate_trees(7).items():
            for t in trees:
                omega = order_polynomial(t)
                assert omega.eval_param(0, -1).terms.get((), 0) == (-1) ** t.size
                if t.size >= 2:
                    assert omega.eval_param(0, 1).terms.get((), 0) == 0


class TestTreePoly:
    def test_single_vertex_gives_h(self, rng):
        h = PolyMap([random_series(rng, 2, min_deg=2) for _ in range(2)])
        for i in range(2):
            assert tree_poly(RootedTree.leaf(), h, i).terms == h.components[i].terms

    def test_chain2_one_var(self):
        h = PolyMap([mono(1, (2,))])
        assert tree_poly(CHAIN2, h, 0).terms == {(3,): 2}

    def test_cherry_one_var(self):
        h = PolyMap([mono(1, (2,))])
        assert tree_poly(CHERRY, h, 0).terms == {(4,): 1}

    def test_one_var_equals_unlabeled_product(self):
        # n = 1: the single labeling gives P_T / |Aut| directly
        h = PolyMap([mono(1, (2,)) + mono(1, (3,), Rat(1, 2))])
        for s, trees in enumerate_trees(5).items():
            for t in trees:
                got = tree_poly(t, h, 0)
                want = oracle_tree_poly(t, h, 0)
                assert got.terms == want.terms

    def test_against_labeling_oracle(self, rng):
        h = PolyMap([random_series(rng, 2, min_deg=2, max_deg=3) for _ in range(2)])
        for s, trees in enumerate_trees(4).items():
            for t in trees:
                for i in range(2):
                    assert tree_poly(t, h, i).terms == oracle_tree_poly(t, h, i).terms


class TestTreeSums:
    """One `tree_sums` pass shares its cache across every tree it yields,
    so these tests check each yielded sum, not a fresh cache per tree."""

    @staticmethod
    def mixed_map(rng, n):
        """A non-homogeneous H: every component has terms of degree 2 and 3."""
        return PolyMap(
            [
                random_series(rng, n, min_deg=2, max_deg=2, max_terms=2)
                + random_series(rng, n, min_deg=3, max_deg=3, max_terms=2)
                for _ in range(n)
            ]
        )

    def test_shared_cache_matches_labeling_oracle(self, rng):
        degree = 6  # every tree with at most 5 vertices
        h = self.mixed_map(rng, 3)
        seen = []
        for tree, sums in tree_sums(h, degree):
            seen.append(tree.key)
            for i, got in enumerate(sums):
                want = oracle_tree_poly(tree, h, i).scale(tree.aut).truncate(degree)
                assert (got.terms, got.trunc) == (want.terms, want.trunc), (tree.key, i)
        by_size = enumerate_trees(degree - 1)
        assert seen == [t.key for s in sorted(by_size) for t in by_size[s]]

    def test_size_graded_sums_are_the_recurrent_layers(self, rng):
        # G(sH) = z + sum_m s^m N_[m] = z + sum_T s^|T| P_T / |Aut T|: the
        # identity holds for each tree size m on its own
        for n, degree in ((2, 7), (3, 6), (3, 6)):
            h = self.mixed_map(rng, n)
            layers = recurrent_layers(h, degree - 1, cap=degree)
            by_size = [[MSeries.zero(n, degree)] * n for _ in range(degree - 1)]
            for tree, sums in tree_sums(h, degree):
                acc = by_size[tree.size - 1]
                for i, q in enumerate(sums):
                    acc[i] = acc[i] + q.scale(Rat(1, tree.aut))
            for m, (got, layer) in enumerate(zip(by_size, layers), start=1):
                for i, want in enumerate(layer.components):
                    want = want.truncate(degree)
                    assert (got[i].terms, got[i].trunc) == (want.terms, want.trunc), (n, m, i)
