"""Unit tests for the per-query distributed-tracking state machine."""

import numpy as np
import pytest

from repro import Query
from repro.core.endpoint_tree import COUNTER_MAX
from repro.core.engine import WorkCounters
from repro.core.tracker import (
    DONE,
    FINAL,
    FINAL_PHASE_FACTOR,
    INERT,
    ROUND,
    TrackerColumns,
)


def make_nodes(count):
    """Stand-alone participant columns 0 .. count-1."""
    return list(range(count))


def store(size=8):
    """A fresh counter store: zero counters, every heap minimum empty."""
    return np.zeros(size, dtype=np.int64), np.full(size, COUNTER_MAX, dtype=np.int64)


def attach(entries_nodes, counters=None, size=8):
    """Start one slot per ``((query, tau, consumed), columns)`` pair;
    returns ``(trackers, cnts)``."""
    counters = WorkCounters() if counters is None else counters
    cnts, mins = store(size)
    qptr, qcols = [0], []
    for _entry, nodes in entries_nodes:
        qcols.extend(nodes)
        qptr.append(len(qcols))
    trackers = TrackerColumns([e for e, _ in entries_nodes])
    trackers.start(qptr, np.array(qcols, dtype=np.intp), cnts, mins, counters)
    return trackers, cnts


def entry(tau, threshold=None, consumed=0, query_id=None):
    """A ``(query, remaining threshold, consumed)`` tree entry."""
    return (Query([(0, 1)], threshold or tau, query_id=query_id), tau, consumed)


def keys_of(trackers, slot=0):
    qptr = trackers.qptr
    return [trackers.arena.key(e) for e in range(qptr[slot], qptr[slot + 1])]


def bump(trackers, node, weight, cnts):
    """Simulate one element hitting ``node``: counter bump + heap drain."""
    cnts[node] += weight
    c = int(cnts[node])
    arena = trackers.arena
    matured = None
    while True:
        e = arena.first_due(node, c)
        if e < 0:
            break
        result = trackers.signal(arena.payload(e), e, c)
        if result is not None:
            matured = result
    return matured


class TestStartStates:
    def test_inert_without_nodes(self):
        trackers, _ = attach([(entry(5), [])])
        assert trackers.state[0] == INERT
        assert trackers.state[0] not in (ROUND, FINAL)  # not live

    def test_small_tau_enters_final_phase_immediately(self):
        trackers, _ = attach([(entry(5), make_nodes(2))])
        assert trackers.state[0] == FINAL  # tau=5 <= 6*2
        # sigma is c(u)+1 = 1 on every node
        assert keys_of(trackers) == [1, 1]

    def test_large_tau_opens_round_with_paper_slack(self):
        tau = 1000
        trackers, _ = attach([(entry(tau), make_nodes(4))])
        assert trackers.state[0] == ROUND
        assert trackers.lam[0] == tau // (2 * 4)  # Eq. (2)
        assert keys_of(trackers) == [trackers.lam[0]] * 4

    def test_boundary_exactly_6h_is_final(self):
        h = 3
        tau = FINAL_PHASE_FACTOR * h
        trackers, _ = attach([(entry(tau), make_nodes(h))])
        assert trackers.state[0] == FINAL

    def test_double_start_rejected(self):
        trackers = TrackerColumns([entry(100)])
        cols = np.array(make_nodes(2), dtype=np.intp)
        trackers.start([0, 2], cols, *store(), WorkCounters())
        with pytest.raises(RuntimeError):
            trackers.start([0, 2], cols, *store(), WorkCounters())

    def test_invalid_tau_and_consumed(self):
        with pytest.raises(ValueError):
            TrackerColumns([entry(0, threshold=5)])
        with pytest.raises(ValueError):
            TrackerColumns([entry(5, consumed=-1)])


class TestExactMaturity:
    def test_unit_increments_mature_exactly_at_tau(self):
        counters = WorkCounters()
        tau = 57
        nodes = make_nodes(3)
        trackers, cnts = attach([(entry(tau), nodes)], counters)
        total = 0
        matured_at = None
        while matured_at is None:
            result = bump(trackers, nodes[total % 3], 1, cnts)
            total += 1
            if result is not None:
                matured_at = total
                assert result == tau
        assert matured_at == tau  # never early, never late

    def test_weighted_increments_mature_on_crossing_element(self):
        counters = WorkCounters()
        tau = 500
        nodes = make_nodes(2)
        trackers, cnts = attach([(entry(tau), nodes)], counters)
        weights = [123, 40, 300, 5, 90]  # cumsum crosses 500 at index 4
        results = []
        for i, w in enumerate(weights):
            results.append(bump(trackers, nodes[i % 2], w, cnts))
        assert results[:4] == [None, None, None, None]
        assert results[4] == sum(weights)  # W(q) at maturity

    def test_single_huge_increment(self):
        counters = WorkCounters()
        tau = 10_000
        nodes = make_nodes(4)
        trackers, cnts = attach([(entry(tau), nodes)], counters)
        assert bump(trackers, nodes[0], 1_000_000, cnts) == 1_000_000

    def test_consumed_offset_reported_in_maturity(self):
        counters = WorkCounters()
        nodes = make_nodes(1)
        trackers, cnts = attach([(entry(5, threshold=20, consumed=15), nodes)], counters)
        assert bump(trackers, nodes[0], 5, cnts) == 20  # 15 + 5

    def test_round_count_is_logarithmic(self):
        counters = WorkCounters()
        tau = 100_000
        nodes = make_nodes(4)
        trackers, cnts = attach([(entry(tau), nodes)], counters)
        i = 0
        while trackers.state[0] != DONE:
            bump(trackers, nodes[i % 4], 1, cnts)
            i += 1
        assert trackers.rounds[0] <= 40  # O(log tau), log2(1e5) ~ 17


class TestDetach:
    def test_detach_removes_all_heap_entries(self):
        counters = WorkCounters()
        nodes = make_nodes(3)
        trackers, _ = attach([(entry(100), nodes)], counters)
        trackers.detach(0)
        assert trackers.state[0] == DONE
        assert len(trackers.arena) == 0
        assert all(trackers.arena.top(node) is None for node in nodes)

    def test_maturity_detaches(self):
        counters = WorkCounters()
        nodes = make_nodes(1)
        trackers, cnts = attach([(entry(3), nodes)], counters)
        bump(trackers, nodes[0], 3, cnts)
        assert trackers.state[0] == DONE
        assert len(trackers.arena) == 0

    def test_collected_weight_sums_counters(self):
        nodes = make_nodes(3)
        trackers, cnts = attach([(entry(1000), nodes)])
        cnts[nodes[0]] += 5
        cnts[nodes[2]] += 11
        assert trackers.collected(0) == 16


class TestSharedNodes:
    def test_two_queries_on_one_node_mature_independently(self):
        counters = WorkCounters()
        node = make_nodes(1)[0]
        trackers, cnts = attach(
            [(entry(10, query_id="a"), [node]), (entry(25, query_id="b"), [node])], counters
        )
        arena = trackers.arena
        matured = []
        for step in range(1, 30):
            cnts[node] += 1
            c = int(cnts[node])
            while True:
                e = arena.first_due(node, c)
                if e < 0:
                    break
                slot = arena.payload(e)
                result = trackers.signal(slot, e, c)
                if result is not None:
                    matured.append((trackers.query[slot].query_id, step, result))
        assert matured == [("a", 10, 10), ("b", 25, 25)]
