"""Unit tests for the logarithmic-method engine (paper Section 5)."""

import random

import pytest

from repro import Query, StreamElement
from repro.core.engine import EngineError
from repro.core.logmethod import DTEngine
from repro.core.tracker import DONE


def q(lo, hi, tau, qid):
    return Query([(lo, hi)], tau, query_id=qid)


class TestStructuralProperties:
    def test_p3_capacity_respected_under_churn(self):
        """m_alive(i) <= 2^(i-1) after every operation (property P3)."""
        rnd = random.Random(4)
        engine = DTEngine(dims=1)
        alive = []
        t = 0
        for step in range(400):
            move = rnd.random()
            if move < 0.5:
                qid = f"q{step}"
                engine.register(q(rnd.randint(0, 50), rnd.randint(51, 99), 30, qid))
                alive.append(qid)
            elif move < 0.7 and alive:
                victim = alive.pop(rnd.randrange(len(alive)))
                engine.terminate(victim)
            else:
                t += 1
                for ev in engine.process(StreamElement(float(rnd.randint(0, 99)), 1), t):
                    alive.remove(ev.query.query_id)
            for slot, size in enumerate(engine.slot_sizes()):
                assert size <= 2**slot, f"P3 violated at slot {slot}: {size}"

    def test_p1_tree_count_logarithmic(self):
        engine = DTEngine(dims=1)
        for i in range(300):
            engine.register(q(i, i + 1, 10, f"q{i}"))
        # g = O(log m): 300 queries need no more than ~10 trees.
        assert engine.tree_count <= 10

    def test_p2_every_alive_query_in_exactly_one_tree(self):
        engine = DTEngine(dims=1)
        for i in range(50):
            engine.register(q(i, i + 10, 100, f"q{i}"))
        seen = {}
        for slot, tree in enumerate(engine._trees):
            if tree is None:
                continue
            for qid, slot in tree.slot.items():
                if tree.state[slot] != DONE:
                    assert qid not in seen
                    seen[qid] = slot
        assert len(seen) == 50

    def test_eq8_first_registration_lands_in_slot_zero(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 1, 5, "a"))
        assert engine.slot_sizes()[0] == 1

    def test_merges_move_queries_upward_only(self):
        engine = DTEngine(dims=1)
        history = {}
        for i in range(64):
            engine.register(q(i, i + 1, 10, f"q{i}"))
            for qid, slot in engine._locator.items():
                if qid in history:
                    assert slot >= history[qid], "query moved to a lower tree"
                history[qid] = slot


class TestSemantics:
    def test_moved_query_threshold_rebased(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 10, 10, "a"))
        for t in range(1, 5):
            engine.process(StreamElement(5.0, 1), t)
        # Registering "b" merges "a" into a fresh tree with threshold 6.
        engine.register(q(20, 30, 5, "b"))
        events = []
        for t in range(5, 20):
            events.extend(engine.process(StreamElement(5.0, 1), t))
        assert [(e.query.query_id, e.timestamp, e.weight_seen) for e in events] == [
            ("a", 10, 10)
        ]

    def test_registration_does_not_see_past_elements(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 10, 3, "a"))
        engine.process(StreamElement(5.0, 1), 1)
        engine.register(q(0, 10, 3, "b"))
        events = []
        for t in range(2, 10):
            events.extend(engine.process(StreamElement(5.0, 1), t))
        assert [(e.query.query_id, e.timestamp) for e in events] == [
            ("a", 3),
            ("b", 4),
        ]

    def test_register_batch_single_merge(self):
        engine = DTEngine(dims=1)
        engine.register_batch([q(i, i + 1, 5, f"q{i}") for i in range(100)])
        assert engine.alive_count == 100
        assert engine.tree_count == 1  # one bulk-built tree

    def test_register_batch_after_singles_merges_all(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 1, 5, "x"))
        engine.register_batch([q(i, i + 1, 5, f"q{i}") for i in range(10)])
        assert engine.alive_count == 11
        assert engine.tree_count == 1

    def test_register_batch_on_loaded_engine_follows_eq8(self):
        """A small batch merges only the slots Eq. 8 picks: the bulk tree stays."""
        from repro.sanitize import collect

        engine = DTEngine(dims=1)
        engine.register_batch([q(i, i + 5, 50, f"q{i}") for i in range(1000)])
        (big_slot,) = [s for s, t in enumerate(engine._trees) if t is not None]
        big = engine._trees[big_slot]
        engine.process(StreamElement(3.0, 7), 1)
        engine.register_batch([q(0, 10, 5, "new")])
        assert engine._trees[big_slot] is big
        assert engine._locator["new"] == 0
        assert engine.alive_count == 1001
        assert collect(engine, "full") == []

    def test_terminate_unknown_returns_false(self):
        assert DTEngine(dims=1).terminate("ghost") is False

    def test_duplicate_registration_rejected(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 1, 5, "a"))
        with pytest.raises(EngineError):
            engine.register(q(0, 1, 5, "a"))

    def test_empty_slot_after_everything_dies(self):
        engine = DTEngine(dims=1)
        for i in range(4):
            engine.register(q(0, 10, 2, f"q{i}"))
        for t in range(1, 4):
            engine.process(StreamElement(5.0, 1), t)
        assert engine.alive_count == 0
        assert engine.tree_count == 0  # rebuilt away to placeholders

    def test_weighted_maturity_through_merges(self):
        engine = DTEngine(dims=1)
        engine.register(q(0, 100, 1000, "big"))
        t = 0
        for _ in range(3):
            t += 1
            engine.process(StreamElement(50.0, 100), t)
        engine.register(q(200, 300, 5, "other"))  # forces a merge
        events = []
        while not events:
            t += 1
            events = engine.process(StreamElement(50.0, 100), t)
        assert events[0].query.query_id == "big"
        assert events[0].timestamp == 10  # 1000 / 100 elements
        assert events[0].weight_seen == 1000
