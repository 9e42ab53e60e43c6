"""Unit tests for the d-dimensional endpoint tree (paper Sections 4, 6)."""

import random

import pytest

from repro import Rect
from repro.core.endpoint_tree import EndpointTree, Skeleton, skeleton
from repro.core.engine import WorkCounters
from repro.core.geometry import PLUS_INFINITY, Interval


def keys_of(*values):
    return [(float(v), 0) for v in values]


def flat_tree(keys):
    """The one-tree forest of a one-dimensional endpoint tree over sorted
    distinct boundary keys (one ``[key, +inf)`` query per key)."""
    rects = [Rect([Interval(k, PLUS_INFINITY)]) for k in keys]
    return EndpointTree(rects, 1).forests[0]


def leaves_in_key_order(tree):
    return tree.skels[0].leaf_ids.tolist()


def canon(tree, i):
    """Query ``i``'s canonical store columns."""
    return tree.qcols[tree.qptr[i] : tree.qptr[i + 1]].tolist()


class TestSkeleton:
    def test_empty(self):
        with pytest.raises(ValueError):
            Skeleton(0)
        assert EndpointTree([], 1).forests == []

    def test_single_key_leaf_extends_to_infinity(self):
        tree = flat_tree(keys_of(5))
        assert tree.n == 1 and tree.skels[0].left[0] == -1
        assert tree.jurisdiction(0) == ((5.0, 0), PLUS_INFINITY)

    def test_jurisdictions_partition_the_range(self):
        keys = keys_of(1, 3, 5, 8, 13)
        tree = flat_tree(keys)
        leaves = [tree.jurisdiction(u) for u in leaves_in_key_order(tree)]
        assert [lo for lo, _ in leaves] == keys
        for (_, a_hi), (b_lo, _) in zip(leaves, leaves[1:]):
            assert a_hi == b_lo  # no gap, no overlap
        assert leaves[-1][1] == PLUS_INFINITY

    def test_internal_jurisdiction_is_union_of_children(self):
        tree = flat_tree(keys_of(1, 2, 3, 4, 5, 6, 7, 8))
        sk = tree.skels[0]
        for u in range(tree.n):
            if sk.left[u] < 0:
                continue
            lo, hi = tree.jurisdiction(u)
            l_lo, l_hi = tree.jurisdiction(int(sk.left[u]))
            r_lo, r_hi = tree.jurisdiction(int(sk.right[u]))
            assert lo == l_lo and hi == r_hi and l_hi == r_lo

    def test_balanced_height(self):
        assert skeleton(128).height == 7  # log2(128)
        assert int(skeleton(128).depth.max()) == 7


def brute_canonical(tree, lo, hi):
    """Nodes whose jurisdiction lies inside [lo, hi) while their parent's
    does not."""
    sk = tree.skels[0]

    def inside(u):
        u_lo, u_hi = tree.jurisdiction(u)
        return lo <= u_lo and u_hi <= hi

    return {
        u
        for u in range(tree.n)
        if inside(u) and (sk.parent[u] < 0 or not inside(int(sk.parent[u])))
    }


class TestCanonicalNodes:
    def test_paper_figure1_example(self):
        # Figure 1: endpoints 2,3,5,8,9,13,15,16; query q5 = [5, 16).
        tree = flat_tree(keys_of(2, 3, 5, 8, 9, 13, 15, 16))
        nodes = tree.canonical(0, (5.0, 0), (16.0, 0))
        regions = sorted(tree.jurisdiction(u) for u in nodes)
        assert regions[0][0] == (5.0, 0) and regions[-1][1] == (16.0, 0)
        for (alo, ahi), (blo, bhi) in zip(regions, regions[1:]):
            assert ahi == blo

    def test_covers_exactly_and_disjointly(self):
        rnd = random.Random(7)
        for _ in range(300):
            vals = sorted(rnd.sample(range(100), rnd.randint(2, 30)))
            keys = keys_of(*vals)
            tree = flat_tree(keys)
            i, j = sorted(rnd.sample(range(len(keys)), 2))
            lo, hi = keys[i], keys[j]
            regions = sorted(tree.jurisdiction(u) for u in tree.canonical(0, lo, hi))
            assert regions[0][0] == lo and regions[-1][1] == hi
            for (alo, ahi), (blo, bhi) in zip(regions, regions[1:]):
                assert ahi == blo

    def test_matches_brute_force(self):
        rnd = random.Random(11)
        for _ in range(300):
            vals = sorted(rnd.sample(range(100), rnd.randint(1, 25)))
            keys = keys_of(*vals)
            tree = flat_tree(keys)
            i = rnd.randrange(len(keys))
            hi = PLUS_INFINITY if rnd.random() < 0.2 else None
            if hi is None:
                j = rnd.randrange(len(keys))
                if i == j:
                    continue
                lo, hi = min(keys[i], keys[j]), max(keys[i], keys[j])
            else:
                lo = keys[i]
            fast = tree.canonical(0, lo, hi)
            assert len(fast) == len(set(fast))
            assert set(fast) == brute_canonical(tree, lo, hi)

    def test_minimality_whole_subtree(self):
        # A range equal to an internal node's jurisdiction must return
        # exactly that node, not its children.
        tree = flat_tree(keys_of(0, 1, 2, 3, 4, 5, 6, 7))
        nodes = tree.canonical(0, (0.0, 0), (4.0, 0))
        assert nodes == [int(tree.skels[0].left[0])]

    def test_at_most_two_nodes_per_level(self):
        rnd = random.Random(13)
        for _ in range(100):
            keys = keys_of(*sorted(rnd.sample(range(1000), 64)))
            tree = flat_tree(keys)
            i, j = sorted(rnd.sample(range(64), 2))
            nodes = tree.canonical(0, keys[i], keys[j])
            depths = [int(tree.skels[0].depth[u]) for u in nodes]
            assert max(depths.count(d) for d in set(depths)) <= 2
            assert len(nodes) <= 2 * 7  # 2 per level, height log2(64)+1

    def test_empty_range(self):
        tree = flat_tree(keys_of(1, 2, 3))
        assert tree.canonical(0, (2.0, 0), (2.0, 0)) == []
        assert EndpointTree([], 1).canonical_columns(Rect.half_open([(1, 2)])) == []


def brute_count(elements, rect):
    return sum(w for p, w in elements if rect.contains(p))


class TestEndpointTree1D:
    def _tree(self, rects):
        tree = EndpointTree(rects, 1, WorkCounters())
        return tree, [canon(tree, i) for i in range(len(rects))]

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
            assert sum(int(tree.cnts[c]) for c in sink) == brute_count(elements, rect)
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
        tree = EndpointTree(rects, 2, WorkCounters())
        sinks = [canon(tree, i) for i in range(len(rects))]
        elements = []
        for _ in range(400):
            p = (rnd.uniform(-5, 50), rnd.uniform(-10, 50))
            w = rnd.randint(1, 4)
            elements.append((p, w))
            tree.update(p, w)
        for rect, sink in zip(rects, sinks):
            assert sum(int(tree.cnts[c]) for c in sink) == brute_count(elements, rect)

    def test_2d_regions_disjoint(self):
        # No element may bump two canonical nodes of the same query.
        rnd = random.Random(21)
        rects = [
            Rect.half_open([(0, 30), (0, 30)]),
            Rect.half_open([(5, 25), (10, 20)]),
            Rect.half_open([(0, 10), (0, 40)]),
        ]
        tree = EndpointTree(rects, 2, WorkCounters())
        sinks = [canon(tree, i) for i in range(len(rects))]
        for _ in range(300):
            p = (rnd.uniform(0, 35), rnd.uniform(0, 45))
            touched = set(tree.update(p, 1).tolist())
            for sink in sinks:
                hits = sum(1 for c in sink if c in touched)
                assert hits <= 1

    def test_3d_counters_exact(self):
        rnd = random.Random(33)
        rects = [
            Rect.half_open([(0, 10), (2, 8), (1, 9)]),
            Rect.half_open([(3, 7), (0, 10), (0, 5)]),
        ]
        tree = EndpointTree(rects, 3, WorkCounters())
        sinks = [canon(tree, i) for i in range(len(rects))]
        elements = []
        for _ in range(300):
            p = tuple(rnd.uniform(0, 11) for _ in range(3))
            elements.append((p, 1))
            tree.update(p, 1)
        for rect, sink in zip(rects, sinks):
            assert sum(int(tree.cnts[c]) for c in sink) == brute_count(elements, rect)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            EndpointTree([], 0)

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
        tree = EndpointTree(rects, 2, WorkCounters())
        sizes = [len(canon(tree, i)) for i in range(len(rects))]
        assert max(sizes) <= 4 * 8 * 8  # loose c * log^2(m) bound
