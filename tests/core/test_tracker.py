"""Unit tests for the per-query distributed-tracking state machine."""

import numpy as np
import pytest

from repro import Query
from repro.core.endpoint_tree import COUNTER_MAX
from repro.core.engine import WorkCounters
from repro.core.tracker import (
    FINAL_PHASE_FACTOR,
    QueryTracker,
    TrackerState,
    start_trackers,
)


def make_nodes(count):
    """Stand-alone participant columns 0 .. count-1."""
    return list(range(count))


def store(size=8):
    """A fresh counter store: zero counters, every heap minimum empty."""
    return np.zeros(size, dtype=np.int64), np.full(size, COUNTER_MAX, dtype=np.int64)


def attach(trackers_nodes, counters=None, size=8):
    """Start trackers on the given columns; returns ``(arena, cnts)``."""
    counters = WorkCounters() if counters is None else counters
    cnts, mins = store(size)
    qptr, qcols = [0], []
    for _tracker, nodes in trackers_nodes:
        qcols.extend(nodes)
        qptr.append(len(qcols))
    arena = start_trackers(
        [t for t, _ in trackers_nodes],
        cnts,
        mins,
        qptr,
        np.array(qcols, dtype=np.intp),
        counters,
    )
    return arena, cnts


def keys_of(arena, tracker):
    return [arena.key(e) for e in range(tracker.first, tracker.first + len(tracker.cols))]


def bump(arena, node, weight, counters, cnts):
    """Simulate one element hitting ``node``: counter bump + heap drain."""
    cnts[node] += weight
    c = int(cnts[node])
    matured = None
    while True:
        entry = arena.first_due(node, c)
        if entry < 0:
            break
        result = arena.payload(entry).on_signal(arena, entry, c, counters)
        if result is not None:
            matured = result
    return matured


class TestStartStates:
    def test_inert_without_nodes(self):
        tracker = QueryTracker(Query([(0, 1)], 5), 5)
        attach([(tracker, [])])
        assert tracker.state is TrackerState.INERT
        assert not tracker.is_live

    def test_small_tau_enters_final_phase_immediately(self):
        tracker = QueryTracker(Query([(0, 1)], 5), 5)
        arena, _ = attach([(tracker, make_nodes(2))])
        assert tracker.state is TrackerState.FINAL  # tau=5 <= 6*2
        # sigma is c(u)+1 = 1 on every node
        assert keys_of(arena, tracker) == [1, 1]

    def test_large_tau_opens_round_with_paper_slack(self):
        tau = 1000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        arena, _ = attach([(tracker, make_nodes(4))])
        assert tracker.state is TrackerState.ROUND
        assert tracker.lam == tau // (2 * 4)  # Eq. (2)
        assert keys_of(arena, tracker) == [tracker.lam] * 4

    def test_boundary_exactly_6h_is_final(self):
        h = 3
        tau = FINAL_PHASE_FACTOR * h
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        attach([(tracker, make_nodes(h))])
        assert tracker.state is TrackerState.FINAL

    def test_double_start_rejected(self):
        tracker = QueryTracker(Query([(0, 1)], 100), 100)
        tracker.cols = make_nodes(2)
        tracker.start(store()[0], WorkCounters())
        with pytest.raises(RuntimeError):
            tracker.start(store()[0], WorkCounters())

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
        arena, cnts = attach([(tracker, nodes)], counters)
        total = 0
        matured_at = None
        while matured_at is None:
            result = bump(arena, nodes[total % 3], 1, counters, cnts)
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
        arena, cnts = attach([(tracker, nodes)], counters)
        weights = [123, 40, 300, 5, 90]  # cumsum crosses 500 at index 4
        results = []
        for i, w in enumerate(weights):
            results.append(bump(arena, nodes[i % 2], w, counters, cnts))
        assert results[:4] == [None, None, None, None]
        assert results[4] == sum(weights)  # W(q) at maturity

    def test_single_huge_increment(self):
        counters = WorkCounters()
        tau = 10_000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(4)
        arena, cnts = attach([(tracker, nodes)], counters)
        assert bump(arena, nodes[0], 1_000_000, counters, cnts) == 1_000_000

    def test_consumed_offset_reported_in_maturity(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 20), 5, consumed=15)
        nodes = make_nodes(1)
        arena, cnts = attach([(tracker, nodes)], counters)
        assert bump(arena, nodes[0], 5, counters, cnts) == 20  # 15 + 5

    def test_round_count_is_logarithmic(self):
        counters = WorkCounters()
        tau = 100_000
        tracker = QueryTracker(Query([(0, 1)], tau), tau)
        nodes = make_nodes(4)
        arena, cnts = attach([(tracker, nodes)], counters)
        i = 0
        while tracker.state is not TrackerState.DONE:
            bump(arena, nodes[i % 4], 1, counters, cnts)
            i += 1
        assert tracker.rounds_run <= 40  # O(log tau), log2(1e5) ~ 17


class TestDetach:
    def test_detach_removes_all_heap_entries(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 100), 100)
        nodes = make_nodes(3)
        arena, _ = attach([(tracker, nodes)], counters)
        tracker.detach(arena, counters)
        assert tracker.state is TrackerState.DONE
        assert len(arena) == 0
        assert all(arena.top(node) is None for node in nodes)

    def test_maturity_detaches(self):
        counters = WorkCounters()
        tracker = QueryTracker(Query([(0, 1)], 3), 3)
        nodes = make_nodes(1)
        arena, cnts = attach([(tracker, nodes)], counters)
        bump(arena, nodes[0], 3, counters, cnts)
        assert tracker.state is TrackerState.DONE
        assert len(arena) == 0

    def test_collected_weight_sums_counters(self):
        tracker = QueryTracker(Query([(0, 1)], 1000), 1000)
        nodes = make_nodes(3)
        _arena, cnts = attach([(tracker, nodes)])
        cnts[nodes[0]] += 5
        cnts[nodes[2]] += 11
        assert tracker.collected_weight() == 16


class TestSharedNodes:
    def test_two_queries_on_one_node_mature_independently(self):
        counters = WorkCounters()
        node = make_nodes(1)[0]
        t1 = QueryTracker(Query([(0, 1)], 10, query_id="a"), 10)
        t2 = QueryTracker(Query([(0, 1)], 25, query_id="b"), 25)
        arena, cnts = attach([(t1, [node]), (t2, [node])], counters)
        matured = []
        for step in range(1, 30):
            cnts[node] += 1
            c = int(cnts[node])
            while True:
                entry = arena.first_due(node, c)
                if entry < 0:
                    break
                owner = arena.payload(entry)
                result = owner.on_signal(arena, entry, c, counters)
                if result is not None:
                    matured.append((owner.query.query_id, step, result))
        assert matured == [("a", 10, 10), ("b", 25, 25)]
