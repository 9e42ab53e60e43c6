"""Seeded-corruption tests: each sanitizer class catches an injected bug.

Every test builds a healthy system, verifies it is clean, injects one
specific corruption (a broken jurisdiction, a dangling heap handle, an
impossible slack, an exceeded message bound, ...), and asserts the
matching validator reports it.  This is the proof that the sanitizer
would catch real regressions, not just that it stays quiet.
"""

import pytest

from repro import RTSSystem
from repro.core.tracker import TrackerState
from repro.dt.coordinator import Coordinator
from repro.dt.network import StarNetwork
from repro.dt.participant import Participant
from repro.sanitize import SanitizeError, collect
from repro.structures.heap import AddressableMinHeap


def _invariants(obj, level="full"):
    return {v.invariant for v in collect(obj, level)}


def _dt_system(engine="dt"):
    """A DT system with live trackers in the normal-round state."""
    system = RTSSystem(dims=1, engine=engine)
    system.register([(0, 10)], threshold=1000, query_id="a")
    system.register([(5, 20)], threshold=800, query_id="b")
    system.register([(2, 8)], threshold=900, query_id="c")
    for i in range(20):
        system.process(float(i % 21))
    assert collect(system) == []
    return system


def _first_instance(system):
    return next(t for t in system.engine._trees if t is not None)


def _round_tracker(system):
    for tree in system.engine._trees:
        if tree is None:
            continue
        for tracker in tree.trackers.values():
            if tracker.state is TrackerState.ROUND:
                return tracker
    raise AssertionError("expected a tracker in the ROUND state")


class TestTreeSanitizer:
    def test_broken_jurisdiction_tiling_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        root = inst.tree.root
        assert root.left is not None, "expected an internal root"
        root.left.hi = root.left.lo  # child interval collapses: tiling breaks
        found = _invariants(system)
        assert "jurisdiction-tiling" in found or "jurisdiction-empty" in found

    def test_negative_counter_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        node = inst.tree.root
        while node.left is not None:
            node = node.left
        node.counter = -3
        assert "counter-negative" in _invariants(system)

    def test_canonical_set_mismatch_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        tracker = next(
            t for t in inst.trackers.values() if t.state is not TrackerState.DONE
        )
        tracker.nodes = tracker.nodes[:-1]  # drop one canonical node
        found = _invariants(system)
        assert "canonical-consistency" in found or "tracker-entries" in found


class TestHeapSanitizer:
    def test_corrupt_handle_detected(self):
        heap = AddressableMinHeap()
        heap.push(3, "x")
        entry = heap.push(7, "y")
        assert collect(heap) == []
        entry._pos = 99  # dangling handle: DELETE would corrupt the array
        assert "heap-handle" in _invariants(heap)
        with pytest.raises(SanitizeError):
            heap.check_invariants()

    def test_order_violation_detected(self):
        heap = AddressableMinHeap()
        root = heap.push(1, "x")
        heap.push(5, "y")
        root.key = 100  # min-heap order now broken at the root
        assert "heap-order" in _invariants(heap)

    def test_corruption_inside_live_system_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        tracker = _round_tracker(system)
        tracker.entries[0]._pos = 1234
        assert "heap-handle" in _invariants(system)


class TestTrackerSanitizer:
    def test_corrupt_round_slack_detected(self):
        tracker = _round_tracker(_dt_system())
        tracker.lam = 1  # impossible: rounds only open while tau' > 6h
        assert "tracker-slack" in _invariants(tracker)

    def test_oversized_slack_detected(self):
        tracker = _round_tracker(_dt_system())
        tracker.lam = tracker.tau  # far above floor(tau/(2h))
        assert "tracker-slack" in _invariants(tracker)

    def test_signal_overflow_detected(self):
        tracker = _round_tracker(_dt_system())
        tracker.signals = len(tracker.nodes)  # h-th signal must end the round
        assert "tracker-signals" in _invariants(tracker)


class TestDTBoundSanitizer:
    def test_message_bound_violation_detected(self):
        tracker = _round_tracker(_dt_system())
        tracker.msgs = 10**9  # way past O(h log tau)
        assert "dt-message-bound" in _invariants(tracker)

    def test_round_bound_violation_detected(self):
        tracker = _round_tracker(_dt_system())
        tracker.rounds_run = 10**6
        assert "dt-round-bound" in _invariants(tracker)

    def test_coordinator_round_bound_detected(self):
        network = StarNetwork()
        coordinator = Coordinator(h=4, tau=1000, network=network)
        participants = [Participant(i, network) for i in range(4)]
        coordinator.start()
        participants[0].increase(5)
        assert collect(coordinator) == []
        coordinator.rounds = 10**6
        assert "dt-round-bound" in _invariants(coordinator)


class TestEngineSanitizers:
    @pytest.mark.parametrize("engine_name", ["dt", "dt-static"])
    def test_locator_corruption_detected(self, engine_name):
        system = _dt_system(engine_name)
        engine = system.engine
        qid = next(iter(engine._locator))
        engine._locator[qid] = len(engine._trees) + 5  # point at no tree
        found = _invariants(system)
        assert "locator-consistency" in found or "alive-count" in found

    def test_baseline_remaining_corruption_detected(self):
        system = RTSSystem(dims=1, engine="baseline")
        system.register([(0, 10)], threshold=50, query_id="a")
        assert collect(system) == []
        system.engine._alive["a"][1] = 0  # should have matured already
        assert "baseline-remaining" in _invariants(system)

    def test_stabbing_baseline_handle_corruption_detected(self):
        system = RTSSystem(dims=1, engine="interval-tree")
        system.register([(0, 10)], threshold=50, query_id="a")
        assert collect(system) == []
        system.engine._records["a"].handle.alive = False
        found = _invariants(system)
        assert "baseline-handle" in found

    def test_system_status_divergence_detected(self):
        system = _dt_system()
        from repro.core.query import QueryStatus

        # Mark a query terminated behind the engine's back.
        qid = next(
            q for q, st in system._status.items() if st is QueryStatus.ALIVE
        )
        system._status[qid] = QueryStatus.TERMINATED
        assert "alive-count" in _invariants(system)


class TestBasicLevel:
    def test_basic_skips_structural_traversals(self):
        system = _dt_system()
        inst = _first_instance(system)
        tracker = _round_tracker(system)
        tracker.entries[0]._pos = 1234  # full-level corruption only
        assert "heap-handle" not in _invariants(system, level="basic")
        assert "heap-handle" in _invariants(system, level="full")

    def test_basic_still_catches_protocol_state(self):
        tracker = _round_tracker(_dt_system())
        tracker.lam = 1
        assert "tracker-slack" in _invariants(tracker, level="basic")
