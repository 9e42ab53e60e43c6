"""Seeded-corruption tests: each sanitizer class catches an injected bug.

Every test builds a healthy system, verifies it is clean, injects one
specific corruption (a broken jurisdiction, a dangling heap handle, an
impossible slack, an exceeded message bound, ...), and asserts the
matching validator reports it.  This is the proof that the sanitizer
would catch real regressions, not just that it stays quiet.
"""

import numpy as np
import pytest

from repro import RTSSystem
from repro.core.tracker import DONE, ROUND
from repro.dt.coordinator import Coordinator
from repro.dt.network import StarNetwork
from repro.dt.participant import Participant
from repro.sanitize import SanitizeError, check, collect
from repro.structures.heap import MIN_CAP, HeapArena


def _invariants(obj, level="full"):
    return {v.invariant for v in collect(obj, level)}


def _dt_system(engine="dt"):
    """A DT system with live queries in the normal-round state."""
    system = RTSSystem(dims=1, engine=engine)
    system.register([(0, 10)], threshold=1000, query_id="a")
    system.register([(5, 20)], threshold=800, query_id="b")
    system.register([(2, 8)], threshold=900, query_id="c")
    for i in range(20):
        system.process(float(i % 21))
    assert collect(system) == []
    return system


def _dt_system_2d():
    """A 2-D DT system whose largest tree has several secondary trees."""
    system = RTSSystem(dims=2, engine="dt")
    for i in range(8):
        system.register([(i, i + 6), (8 - i, 14 - i)], threshold=1000, query_id=i)
    for i in range(30):
        system.process((float(i % 13), float((5 * i) % 15)))
    assert collect(system) == []
    return system


def _largest_instance(system):
    return max((t for t in system.engine._trees if t is not None), key=lambda t: t.built_count)


def _first_instance(system):
    return next(t for t in system.engine._trees if t is not None)


def _leaf(inst, side):
    """Store column of the leftmost (side=0) or rightmost (-1) leaf."""
    sk = inst.tree.primary()
    return int(sk.leaf_ids[side])


def _arena(keys):
    """A one-column standalone arena with one entry per key."""
    mins = np.full(1, MIN_CAP, dtype=np.int64)
    return HeapArena([0] * len(keys), keys, list(keys), [1] * len(keys), mins)


def _round_tracker(system):
    """``(tree, slot)`` of a query in the ROUND state."""
    for tree in system.engine._trees:
        if tree is None:
            continue
        for slot, state in enumerate(tree.state):
            if state == ROUND:
                return tree, slot
    raise AssertionError("expected a query in the ROUND state")


class TestTreeSanitizer:
    def test_broken_jurisdiction_tiling_detected(self):
        system = _dt_system()
        forest = _first_instance(system).tree.forests[0]
        assert forest.left[0] >= 0, "expected an internal root"
        khi = forest.khi.copy()  # a private copy: shapes are shared
        khi[forest.left[0]] = khi[0]  # left child swallows the right: tiling breaks
        forest.khi = khi
        found = _invariants(system)
        assert "jurisdiction-tiling" in found or "jurisdiction-empty" in found

    def test_keys_out_of_order_in_a_secondary_tree_detected(self):
        system = _dt_system_2d()
        forest = _largest_instance(system).tree.forests[1]
        t = int((forest.ks >= 2).argmax())
        assert forest.ks[t] >= 2, "expected a secondary tree with two keys"
        vals = forest.vals.copy()
        k0 = int(forest.kbase[t])
        vals[k0 : k0 + 2] = vals[k0 + 1], vals[k0]  # keys out of order
        forest.vals = vals
        assert "jurisdiction-empty" in _invariants(system)

    def test_owner_map_out_of_order_detected(self):
        system = _dt_system_2d()
        forest = _largest_instance(system).tree.forests[0]
        owner = forest.owner.copy()
        owned = np.flatnonzero(owner >= 0)
        assert owned.size >= 2, "expected two secondary trees"
        owner[owned[:2]] = owner[owned[1::-1]]  # two trees swap their owners
        forest.owner = owner
        assert "dimension-layering" in _invariants(system)

    def test_negative_counter_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        inst.cnts[_leaf(inst, 0)] = -3
        assert "counter-negative" in _invariants(system)

    def test_counter_sum_break_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        inst.cnts[_leaf(inst, -1)] += 5  # a leaf bump its ancestors never saw
        found = _invariants(system)
        assert "counter-sum" in found
        assert "counter-negative" not in found

    def test_stale_min_column_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        col = next(c for c in range(len(inst.mins)) if inst.arena.top(c) is not None)
        inst.mins[col] += 1  # the slack checks would now read high
        found = _invariants(system)
        assert "min-column" in found
        assert "counter-sum" not in found

    def test_canonical_set_mismatch_detected(self):
        system = _dt_system()
        inst = _first_instance(system)
        slot = next(s for s, state in enumerate(inst.state) if state != DONE)
        inst.qptr[slot + 1] -= 1  # drop one canonical node
        found = _invariants(system)
        assert "canonical-consistency" in found or "tracker-entries" in found

    def test_tracker_range_off_its_columns_detected(self):
        system = _dt_system()
        inst, slot = _round_tracker(system)
        assert inst.qptr[slot + 1] - inst.qptr[slot] >= 1
        inst.qptr[slot] += 1  # the id range slides onto a neighbour's entries
        inst.qptr[slot + 1] += 1
        assert "tracker-entries" in _invariants(system)


class TestHeapSanitizer:
    def test_corrupt_handle_detected(self):
        arena = _arena([3, 7])
        assert collect(arena) == []
        arena._pos[1] = 99  # dangling slot: a removal would corrupt the segment
        assert "heap-handle" in _invariants(arena)
        with pytest.raises(SanitizeError):
            check(arena)

    def test_order_violation_detected(self):
        arena = _arena([1, 5])
        arena._ekey[arena.first_due(0, 10)] = 100  # heap order broken at the top
        assert "heap-order" in _invariants(arena)

    def test_corruption_inside_live_system_detected(self):
        system = _dt_system()
        inst, slot = _round_tracker(system)
        inst.arena._pos[inst.qptr[slot]] = 1234
        assert "heap-handle" in _invariants(system)


class TestTrackerSanitizer:
    def test_corrupt_round_slack_detected(self):
        inst, slot = _round_tracker(_dt_system())
        inst.lam[slot] = 1  # impossible: rounds only open while tau' > 6h
        assert "tracker-slack" in _invariants(inst)

    def test_oversized_slack_detected(self):
        inst, slot = _round_tracker(_dt_system())
        inst.lam[slot] = inst.tau[slot]  # far above floor(tau/(2h))
        assert "tracker-slack" in _invariants(inst)

    def test_signal_overflow_detected(self):
        inst, slot = _round_tracker(_dt_system())
        # the h-th signal must end the round
        inst.signals[slot] = inst.qptr[slot + 1] - inst.qptr[slot]
        assert "tracker-signals" in _invariants(inst)


class TestDTBoundSanitizer:
    def test_message_bound_violation_detected(self):
        inst, slot = _round_tracker(_dt_system())
        inst.msgs[slot] = 10**9  # way past O(h log tau)
        assert "dt-message-bound" in _invariants(inst)

    def test_round_bound_violation_detected(self):
        inst, slot = _round_tracker(_dt_system())
        inst.rounds[slot] = 10**6
        assert "dt-round-bound" in _invariants(inst)

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
        inst, slot = _round_tracker(system)
        inst.arena._pos[inst.qptr[slot]] = 1234  # full-level corruption only
        assert "heap-handle" not in _invariants(system, level="basic")
        assert "heap-handle" in _invariants(system, level="full")

    def test_basic_still_catches_protocol_state(self):
        inst, slot = _round_tracker(_dt_system())
        inst.lam[slot] = 1
        assert "tracker-slack" in _invariants(inst, level="basic")
