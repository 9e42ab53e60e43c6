"""A dropped endpoint tree is freed by reference counting alone.

Trackers hold no reference back to the heap arena and the flat trees
hold no parent pointers, so discarding a tree — directly, or when a
logarithmic-method merge empties the lower slots — leaves nothing for
the cyclic garbage collector.
"""

import gc
import random

import pytest

from repro import Query, StreamElement
from repro.core.dt_engine import TreeInstance
from repro.core.engine import WorkCounters
from repro.core.logmethod import DTEngine


def _queries(dims, count, seed=5):
    rnd = random.Random(seed)
    out = []
    for i in range(count):
        bounds = []
        for _ in range(dims):
            a = rnd.uniform(0, 100)
            bounds.append((a, a + rnd.uniform(1, 40)))
        out.append(Query(bounds, rnd.choice([3, 50, 10_000]), query_id=i))
    return out


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("dims", [1, 2])
def test_dropped_tree_leaves_no_cycles(dims, collector_off):
    queries = _queries(dims, 50)
    inst = TreeInstance([(q, q.threshold, 0) for q in queries], dims, WorkCounters())
    rnd = random.Random(1)
    for _ in range(40):
        inst.process(StreamElement(tuple(rnd.uniform(0, 140) for _ in range(dims)), 2))
    inst.terminate(3)
    del inst
    assert gc.collect() == 0


@pytest.mark.parametrize("dims", [1, 2])
def test_merged_trees_leave_no_cycles(dims, collector_off):
    engine = DTEngine(dims)
    queries = _queries(dims, 40, seed=9)
    rnd = random.Random(2)
    for t, query in enumerate(queries):
        engine.register(query)  # every carry merges and discards lower trees
        engine.process(StreamElement(tuple(rnd.uniform(0, 140) for _ in range(dims)), 1), t)
    assert engine.tree_count < len(queries)
    assert gc.collect() == 0
    del engine
    assert gc.collect() == 0
