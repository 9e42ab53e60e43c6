"""Micro-benchmarks of the search-structure substrates."""

import random

import pytest

from repro import Interval, Rect
from repro.structures.heap import MIN_CAP, HeapArena
from repro.structures.interval_tree import CenteredIntervalTree
from repro.structures.rtree import RTree
from repro.structures.seg_intv_tree import SegIntvTree
from repro.structures.segment_tree import SegmentTree

N = 5_000


@pytest.mark.parametrize("scan", [False, True], ids=["heap", "scan"])
def test_heap_push_pop(benchmark, scan):
    import numpy as np

    rnd = random.Random(0)
    keys = [rnd.randint(0, 10**6) for _ in range(2_000)]

    def run():
        # Build one heap holding every key, remove half by id, then
        # drain the rest minimum first.
        mins = np.full(1, MIN_CAP, dtype=np.int64)
        arena = HeapArena([0] * len(keys), keys, [None] * len(keys), [1] * len(keys), mins, scan)
        arena.remove_run(0, len(keys) // 2)
        while arena.top(0) is not None:
            arena.remove(arena.first_due(0, MIN_CAP))

    benchmark.pedantic(run, rounds=1, iterations=1)


def _intervals(n, seed=0):
    rnd = random.Random(seed)
    out = []
    for _ in range(n):
        a = rnd.uniform(0, 1e5)
        out.append(Interval.half_open(a, a + rnd.uniform(1, 1e4)))
    return out


@pytest.mark.parametrize("cls", [CenteredIntervalTree, SegmentTree])
def test_1d_stab_structures(benchmark, cls):
    tree = cls([(iv, i) for i, iv in enumerate(_intervals(N))])
    rnd = random.Random(1)
    probes = [rnd.uniform(0, 1e5) for _ in range(500)]

    def run():
        hits = 0
        for v in probes:
            hits += sum(1 for _ in tree.stab(v))
        return hits

    hits = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["hits"] = hits


def _rects(n, seed=0):
    rnd = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rnd.uniform(0, 9e4), rnd.uniform(0, 9e4)
        out.append(Rect.half_open([(x, x + 1e4), (y, y + 1e4)]))
    return out


def test_seg_intv_stab(benchmark):
    tree = SegIntvTree([(r, i) for i, r in enumerate(_rects(N))])
    rnd = random.Random(1)
    probes = [(rnd.uniform(0, 1e5), rnd.uniform(0, 1e5)) for _ in range(300)]
    benchmark.pedantic(
        lambda: sum(1 for p in probes for _ in tree.stab(p)),
        rounds=1,
        iterations=1,
    )


def test_rtree_insert_delete_churn(benchmark):
    rects = _rects(2_000)

    def run():
        tree = RTree()
        handles = [tree.insert(r, i) for i, r in enumerate(rects)]
        for h in handles[::2]:
            tree.remove(h)
        return len(tree)

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 1_000


@pytest.mark.parametrize("split", ["quadratic", "rstar"])
def test_rtree_split_strategies_hot_area(benchmark, split):
    """Overlapping hot-area churn: the workload that separates the splits."""
    rnd = random.Random(3)
    rects = []
    for _ in range(2_000):
        cx, cy = rnd.gauss(5e4, 7.5e3), rnd.gauss(5e4, 7.5e3)
        rects.append(Rect.half_open([(cx - 1.5e4, cx + 1.5e4), (cy - 1.5e4, cy + 1.5e4)]))

    def run():
        tree = RTree(split=split)
        handles = [tree.insert(r, i) for i, r in enumerate(rects)]
        hits = 0
        for i in range(500):
            hits += sum(1 for _ in tree.stab((5e4, 5e4)))
            tree.remove(handles[i])
        return hits

    benchmark.pedantic(run, rounds=1, iterations=1)
