"""Unit tests for the d-dimensional endpoint tree (paper Sections 4, 6)."""

import random

import pytest

from repro import Rect
from repro.core.endpoint_tree import (
    EndpointTree,
    build_skeleton,
    canonical_nodes,
)
from repro.core.engine import WorkCounters
from repro.core.geometry import PLUS_INFINITY, Interval


def keys_of(*values):
    return [(float(v), 0) for v in values]


class TestSkeleton:
    def test_empty(self):
        assert build_skeleton([]) is None

    def test_single_key_leaf_extends_to_infinity(self):
        root = build_skeleton(keys_of(5))
        assert root.is_leaf
        assert root.lo == (5.0, 0) and root.hi == PLUS_INFINITY

    def test_jurisdictions_partition_the_range(self):
        keys = keys_of(1, 3, 5, 8, 13)
        root = build_skeleton(keys)
        leaves = []

        def collect(node):
            if node.is_leaf:
                leaves.append(node)
            else:
                collect(node.left)
                collect(node.right)

        collect(root)
        assert [leaf.lo for leaf in leaves] == keys
        for a, b in zip(leaves, leaves[1:]):
            assert a.hi == b.lo  # no gap, no overlap
        assert leaves[-1].hi == PLUS_INFINITY

    def test_internal_jurisdiction_is_union_of_children(self):
        root = build_skeleton(keys_of(1, 2, 3, 4, 5, 6, 7, 8))

        def check(node):
            if node.is_leaf:
                return
            assert node.lo == node.left.lo and node.hi == node.right.hi
            assert node.left.hi == node.right.lo
            check(node.left)
            check(node.right)

        check(root)

    def test_balanced_height(self):
        keys = keys_of(*range(128))
        root = build_skeleton(keys)

        def height(node):
            if node.is_leaf:
                return 0
            return 1 + max(height(node.left), height(node.right))

        assert height(root) == 7  # log2(128)


def brute_canonical(root, lo, hi):
    out = []

    def rec(node):
        if node is None or node.lo >= hi or node.hi <= lo:
            return
        if lo <= node.lo and node.hi <= hi:
            out.append(node)
            return
        rec(node.left)
        rec(node.right)

    rec(root)
    return out


class TestCanonicalNodes:
    def test_paper_figure1_example(self):
        # Figure 1: endpoints 2,3,5,8,9,13,15,16; query q5 = [5, 16).
        keys = keys_of(2, 3, 5, 8, 9, 13, 15, 16)
        root = build_skeleton(keys)
        nodes = canonical_nodes(root, (5.0, 0), (16.0, 0))
        regions = sorted((n.lo, n.hi) for n in nodes)
        # Minimum decomposition: [5,9) (subtree), [9,13)+[13,15)... depends
        # on the balanced shape; verify the defining properties instead.
        assert regions[0][0] == (5.0, 0) and regions[-1][1] == (16.0, 0)
        for (alo, ahi), (blo, bhi) in zip(regions, regions[1:]):
            assert ahi == blo

    def test_covers_exactly_and_disjointly(self):
        rnd = random.Random(7)
        for _ in range(300):
            vals = sorted(rnd.sample(range(100), rnd.randint(2, 30)))
            keys = keys_of(*vals)
            root = build_skeleton(keys)
            i, j = sorted(rnd.sample(range(len(keys)), 2))
            lo, hi = keys[i], keys[j]
            nodes = canonical_nodes(root, lo, hi)
            regions = sorted((n.lo, n.hi) for n in nodes)
            assert regions[0][0] == lo and regions[-1][1] == hi
            for (alo, ahi), (blo, bhi) in zip(regions, regions[1:]):
                assert ahi == blo

    def test_matches_brute_force(self):
        rnd = random.Random(11)
        for _ in range(300):
            vals = sorted(rnd.sample(range(100), rnd.randint(1, 25)))
            keys = keys_of(*vals)
            root = build_skeleton(keys)
            i = rnd.randrange(len(keys))
            hi = PLUS_INFINITY if rnd.random() < 0.2 else None
            if hi is None:
                j = rnd.randrange(len(keys))
                if i == j:
                    continue
                lo, hi = min(keys[i], keys[j]), max(keys[i], keys[j])
            else:
                lo = keys[i]
            fast = canonical_nodes(root, lo, hi)
            slow = brute_canonical(root, lo, hi)
            assert {id(n) for n in fast} == {id(n) for n in slow}

    def test_minimality_whole_subtree(self):
        # A range equal to an internal node's jurisdiction must return
        # exactly that node, not its children.
        keys = keys_of(0, 1, 2, 3, 4, 5, 6, 7)
        root = build_skeleton(keys)
        nodes = canonical_nodes(root, (0.0, 0), (4.0, 0))
        assert len(nodes) == 1 and nodes[0] is root.left

    def test_at_most_two_nodes_per_level(self):
        rnd = random.Random(13)
        for _ in range(100):
            vals = sorted(rnd.sample(range(1000), 64))
            keys = keys_of(*vals)
            root = build_skeleton(keys)
            i, j = sorted(rnd.sample(range(64), 2))
            nodes = canonical_nodes(root, keys[i], keys[j])
            assert len(nodes) <= 2 * 7  # 2 per level, height log2(64)+1

    def test_empty_range(self):
        root = build_skeleton(keys_of(1, 2, 3))
        assert canonical_nodes(root, (2.0, 0), (2.0, 0)) == []
        assert canonical_nodes(None, (1.0, 0), (2.0, 0)) == []


def brute_count(elements, rect):
    return sum(w for p, w in elements if rect.contains(p))


class TestEndpointTree1D:
    def _tree(self, rects):
        sinks = [[] for _ in rects]
        tree = EndpointTree(list(zip(rects, sinks)), 0, 1, WorkCounters())
        return tree, sinks

    def test_counters_give_exact_range_weight(self):
        rnd = random.Random(5)
        rects = [
            Rect([Interval.half_open(a, a + rnd.randint(1, 10))])
            for a in rnd.sample(range(50), 12)
        ]
        tree, sinks = self._tree(rects)
        elements = []
        for _ in range(500):
            p = (rnd.uniform(-5, 70),)
            w = rnd.randint(1, 5)
            elements.append((p, w))
            tree.update(p, w)
        for rect, sink in zip(rects, sinks):
            assert sum(int(tree.cnts[n.idx]) for n in sink) == brute_count(elements, rect)
            assert tree.range_count(rect) == brute_count(elements, rect)

    def test_element_below_leftmost_endpoint_ignored(self):
        tree, sinks = self._tree([Rect([Interval.half_open(10, 20)])])
        touched = tree.update((5.0,), 1)
        assert len(touched) == 0

    def test_element_above_all_queries_still_counted_in_tree(self):
        # Elements above the rightmost endpoint land in the rightmost
        # leaf's jurisdiction [max, +inf) but belong to no query.
        rect = Rect([Interval.half_open(10, 20)])
        tree, sinks = self._tree([rect])
        tree.update((25.0,), 3)
        assert tree.range_count(rect) == 0

    def test_empty_rect_has_no_canonical_nodes(self):
        tree, sinks = self._tree([Rect([Interval.half_open(5, 5)])])
        assert sinks[0] == []

    def test_at_least_query_covers_to_infinity(self):
        rect = Rect([Interval.at_least(10)])
        tree, sinks = self._tree([rect])
        tree.update((1e9,), 7)
        assert tree.range_count(rect) == 7


class TestEndpointTreeMultiDim:
    def test_2d_counters_exact(self):
        rnd = random.Random(9)
        rects = []
        for _ in range(10):
            a, b = rnd.randint(0, 40), rnd.randint(0, 40)
            rects.append(
                Rect(
                    [
                        Interval.half_open(min(a, b), max(a, b) + 1),
                        Interval.half_open(
                            min(a, b) - 3, min(a, b) + rnd.randint(1, 9)
                        ),
                    ]
                )
            )
        sinks = [[] for _ in rects]
        tree = EndpointTree(list(zip(rects, sinks)), 0, 2, WorkCounters())
        elements = []
        for _ in range(400):
            p = (rnd.uniform(-5, 50), rnd.uniform(-10, 50))
            w = rnd.randint(1, 4)
            elements.append((p, w))
            tree.update(p, w)
        for rect, sink in zip(rects, sinks):
            assert sum(int(tree.cnts[n.idx]) for n in sink) == brute_count(elements, rect)

    def test_2d_regions_disjoint(self):
        # No element may bump two canonical nodes of the same query.
        rnd = random.Random(21)
        rects = [
            Rect.half_open([(0, 30), (0, 30)]),
            Rect.half_open([(5, 25), (10, 20)]),
            Rect.half_open([(0, 10), (0, 40)]),
        ]
        sinks = [[] for _ in rects]
        tree = EndpointTree(list(zip(rects, sinks)), 0, 2, WorkCounters())
        for _ in range(300):
            p = (rnd.uniform(0, 35), rnd.uniform(0, 45))
            touched = set(tree.update(p, 1).tolist())
            for sink in sinks:
                hits = sum(1 for n in sink if n.idx in touched)
                assert hits <= 1

    def test_3d_counters_exact(self):
        rnd = random.Random(33)
        rects = [
            Rect.half_open([(0, 10), (2, 8), (1, 9)]),
            Rect.half_open([(3, 7), (0, 10), (0, 5)]),
        ]
        sinks = [[] for _ in rects]
        tree = EndpointTree(list(zip(rects, sinks)), 0, 3, WorkCounters())
        elements = []
        for _ in range(300):
            p = tuple(rnd.uniform(0, 11) for _ in range(3))
            elements.append((p, 1))
            tree.update(p, 1)
        for rect, sink in zip(rects, sinks):
            assert sum(int(tree.cnts[n.idx]) for n in sink) == brute_count(elements, rect)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            EndpointTree([], 2, 2)

    def test_canonical_size_polylog(self):
        # |U_q| = O(log^d m): for 2D with 64 queries it stays far below m.
        rnd = random.Random(17)
        rects = [
            Rect.half_open(
                [
                    (a, a + rnd.randint(1, 20)),
                    (b, b + rnd.randint(1, 20)),
                ]
            )
            for a, b in zip(rnd.sample(range(100), 64), rnd.sample(range(100), 64))
        ]
        sinks = [[] for _ in rects]
        EndpointTree(list(zip(rects, sinks)), 0, 2, WorkCounters())
        sizes = [len(sink) for sink in sinks]
        assert max(sizes) <= 4 * 8 * 8  # loose c * log^2(m) bound
