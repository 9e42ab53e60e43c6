"""Unit tests for the per-query distributed-tracking state machine."""

import numpy as np
import pytest

from repro import Query, Rect
from repro.core.endpoint_tree import COUNTER_MAX, ETNode
from repro.core.engine import WorkCounters
from repro.core.geometry import Interval
from repro.core.tracker import FINAL_PHASE_FACTOR, QueryTracker, TrackerState


def make_nodes(count):
    """Stand-alone leaf nodes usable as DT participants (columns 0..)."""
    nodes = [ETNode((float(i), 0), (float(i) + 1, 0)) for i in range(count)]
    for i, node in enumerate(nodes):
        node.idx = i
    return nodes


def store(size=8):
    """A fresh counter store: zero counters, every heap minimum empty."""
    return np.zeros(size, dtype=np.int64), np.full(size, COUNTER_MAX, dtype=np.int64)


def attach(tracker, nodes):
    tracker.nodes = list(nodes)
    tracker.start(*store(), WorkCounters())
    for node in nodes:
        if node.heap is not None:
            node.heap.heapify()


def bump(tracker, node, weight, counters):
    """Simulate one element hitting ``node``: counter bump + heap drain."""
    tracker.cnts[node.idx] += weight
    c = int(tracker.cnts[node.idx])
    heap = node.heap
    matured = None
    while heap is not None:
        entry = heap.first_due(c)
        if entry is None:
            break
        result = entry.payload.on_signal(node, entry, c, counters)
        if result is not None:
            matured = result
    return matured


class TestStartStates:
    def test_inert_without_nodes(self):
        tracker = QueryTracker(Query([(0, 1)], 5), 5)
        tracker.start(*store(), WorkCounters())
        assert tracker.state is TrackerState.INERT
        assert not tracker.is_live

    def test_small_tau_enters_final_phase_immediately(self):
        tracker = QueryTracker(Query([(0, 1)], 5), 5)
        nodes = make_nodes(2)
        tracker.nodes = nodes
        tracker.start(*store(), WorkCounters())
        assert tracker.state is TrackerState.FINAL  # tau=5 <= 6*2
        # sigma is c(u)+1 = 1 on every node
        assert all(e.key == 1 for e in tracker.entries)

    def test_large_tau_opens_round_with_paper_slack(self):
        tau = 1000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(4)
        tracker.nodes = nodes
        tracker.start(*store(), WorkCounters())
        assert tracker.state is TrackerState.ROUND
        assert tracker.lam == tau // (2 * 4)  # Eq. (2)
        assert all(e.key == tracker.lam for e in tracker.entries)

    def test_boundary_exactly_6h_is_final(self):
        h = 3
        tau = FINAL_PHASE_FACTOR * h
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        tracker.nodes = make_nodes(h)
        tracker.start(*store(), WorkCounters())
        assert tracker.state is TrackerState.FINAL

    def test_double_start_rejected(self):
        tracker = QueryTracker(Query([(0, 1)], 100), 100)
        tracker.nodes = make_nodes(2)
        tracker.start(*store(), WorkCounters())
        with pytest.raises(RuntimeError):
            tracker.start(*store(), WorkCounters())

    def test_invalid_tau_and_consumed(self):
        with pytest.raises(ValueError):
            QueryTracker(Query([(0, 1)], 5), 0)
        with pytest.raises(ValueError):
            QueryTracker(Query([(0, 1)], 5), 5, consumed=-1)


class TestExactMaturity:
    def test_unit_increments_mature_exactly_at_tau(self):
        counters = WorkCounters()
        tau = 57
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(3)
        tracker.nodes = nodes
        attach_nodes = nodes
        tracker.start(*store(), counters)
        for node in attach_nodes:
            node.heap.heapify()
        total = 0
        matured_at = None
        i = 0
        while matured_at is None:
            node = nodes[i % 3]
            result = bump(tracker, node, 1, counters)
            total += 1
            if result is not None:
                matured_at = total
                assert result == tau
        assert matured_at == tau  # never early, never late

    def test_weighted_increments_mature_on_crossing_element(self):
        counters = WorkCounters()
        tau = 500
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(2)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        for node in nodes:
            node.heap.heapify()
        weights = [123, 40, 300, 5, 90]  # cumsum crosses 500 at index 4
        results = []
        for i, w in enumerate(weights):
            results.append(bump(tracker, nodes[i % 2], w, counters))
        assert results[:4] == [None, None, None, None]
        assert results[4] == sum(weights)  # W(q) at maturity

    def test_single_huge_increment(self):
        counters = WorkCounters()
        tau = 10_000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(4)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        for node in nodes:
            node.heap.heapify()
        assert bump(tracker, nodes[0], 1_000_000, counters) == 1_000_000

    def test_consumed_offset_reported_in_maturity(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 20), 5, consumed=15)
        nodes = make_nodes(1)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        nodes[0].heap.heapify()
        assert bump(tracker, nodes[0], 5, counters) == 20  # 15 + 5

    def test_round_count_is_logarithmic(self):
        counters = WorkCounters()
        tau = 100_000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(4)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        for node in nodes:
            node.heap.heapify()
        i = 0
        while tracker.state is not TrackerState.DONE:
            bump(tracker, nodes[i % 4], 1, counters)
            i += 1
        assert tracker.rounds_run <= 40  # O(log tau), log2(1e5) ~ 17


class TestDetach:
    def test_detach_removes_all_heap_entries(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 100), 100)
        nodes = make_nodes(3)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        for node in nodes:
            node.heap.heapify()
        tracker.detach(counters)
        assert tracker.state is TrackerState.DONE
        assert all(len(node.heap) == 0 for node in nodes)

    def test_maturity_detaches(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 3), 3)
        nodes = make_nodes(1)
        tracker.nodes = nodes
        tracker.start(*store(), counters)
        nodes[0].heap.heapify()
        bump(tracker, nodes[0], 3, counters)
        assert tracker.state is TrackerState.DONE
        assert len(nodes[0].heap) == 0

    def test_collected_weight_sums_counters(self):
        tracker = QueryTracker(Query([(0, 1)], 1000), 1000)
        nodes = make_nodes(3)
        tracker.nodes = nodes
        tracker.start(*store(), WorkCounters())
        for node in nodes:
            node.heap.heapify()
        tracker.cnts[nodes[0].idx] += 5
        tracker.cnts[nodes[2].idx] += 11
        assert tracker.collected_weight() == 16


class TestSharedNodes:
    def test_two_queries_on_one_node_mature_independently(self):
        counters = WorkCounters()
        node = make_nodes(1)[0]
        t1 = QueryTracker(Query([(0, 1)], 10, query_id="a"), 10)
        t2 = QueryTracker(Query([(0, 1)], 25, query_id="b"), 25)
        cnts, mins = store()
        for t in (t1, t2):
            t.nodes = [node]
            t.start(cnts, mins, counters)
        node.heap.heapify()
        matured = []
        for step in range(1, 30):
            cnts[node.idx] += 1
            c = int(cnts[node.idx])
            heap = node.heap
            while True:
                entry = heap.first_due(c)
                if entry is None:
                    break
                result = entry.payload.on_signal(node, entry, c, counters)
                if result is not None:
                    matured.append((entry.payload.query.query_id, step, result))
        assert matured == [("a", 10, 10), ("b", 25, 25)]
