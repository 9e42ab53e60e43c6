"""Tests for endpoint-tree introspection helpers and multi-dim counting."""

import random

import pytest

from repro import Rect
from repro.core.endpoint_tree import EndpointTree
from repro.core.engine import WorkCounters
from repro.core.geometry import Interval


def build(rects, dims):
    tree = EndpointTree(rects, dims, WorkCounters())
    return tree, [tree.qcols[tree.qptr[i] : tree.qptr[i + 1]] for i in range(len(rects))]


class TestIterAndHeight:
    def test_iter_nodes_visits_whole_skeleton(self):
        rects = [Rect([Interval.half_open(i, i + 2)]) for i in range(8)]
        tree, _ = build(rects, 1)
        sk = tree.primary()
        nodes = list(range(sk.n))
        leaves = [u for u in nodes if sk.left[u] < 0]
        internals = [u for u in nodes if sk.left[u] >= 0]
        # K distinct endpoint keys -> K leaves, K-1 internal nodes.
        assert len(leaves) == len(internals) + 1
        assert len(nodes) == 2 * len(leaves) - 1

    def test_height_logarithmic(self):
        rects = [Rect([Interval.half_open(i, i + 1)]) for i in range(64)]
        tree, _ = build(rects, 1)
        assert tree.height() <= 8

    def test_empty_tree(self):
        tree, _ = build([], 1)
        assert tree.forests == [] and tree.primary() is None and len(tree.cnts) == 0
        assert tree.height() == 0


class TestRangeCountMultiDim:
    def test_2d_range_count_equals_brute_force(self):
        rnd = random.Random(3)
        rects = [
            Rect.half_open([(a, a + 10), (b, b + 10)])
            for a, b in zip(rnd.sample(range(40), 8), rnd.sample(range(40), 8))
        ]
        tree, _ = build(rects, 2)
        elements = []
        for _ in range(300):
            p = (rnd.uniform(0, 55), rnd.uniform(0, 55))
            w = rnd.randint(1, 5)
            elements.append((p, w))
            tree.update(p, w)
        for rect in rects:
            brute = sum(w for p, w in elements if rect.contains(p))
            assert tree.range_count(rect) == brute

    def test_range_count_empty_rect_is_zero(self):
        tree, _ = build([Rect([Interval.half_open(0, 10)])], 1)
        tree.update((5.0,), 3)
        assert tree.range_count(Rect([Interval.half_open(4, 4)])) == 0


class TestCountersAccounting:
    def test_rebuild_counter_incremented_per_level(self):
        counters = WorkCounters()
        rects = [Rect.half_open([(0, 10), (0, 10)]), Rect.half_open([(5, 15), (5, 15)])]
        EndpointTree(rects, 2, counters)
        # one primary build + one secondary build per assigned node
        assert counters.rebuilds >= 2
