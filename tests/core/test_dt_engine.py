"""Unit tests for TreeInstance and the static (Section 4) DT engine."""

import pickle

import pytest

from repro import Observability, Query, RTSSystem, StreamElement
from repro.core.dt_engine import TreeInstance
from repro.core.engine import EngineError, WorkCounters
from repro.core.logmethod import StaticDTEngine
from repro.core.system import make_engine


def q(lo, hi, tau, qid):
    return Query([(lo, hi)], tau, query_id=qid)


class TestTreeInstance:
    def test_process_reports_maturity_with_weight(self):
        counters = WorkCounters()
        inst = TreeInstance([(q(0, 10, 5, "a"), 5, 0)], 1, counters)
        out = []
        for _ in range(5):
            out.extend(inst.process(StreamElement(5.0, 1)))
        assert out == [(inst.trackers["a"].query, 5)]
        assert inst.alive == 0

    def test_terminate_is_idempotent(self):
        counters = WorkCounters()
        inst = TreeInstance([(q(0, 10, 5, "a"), 5, 0)], 1, counters)
        assert inst.terminate("a") is True
        assert inst.terminate("a") is False
        assert inst.terminate("ghost") is False
        assert inst.alive == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EngineError):
            TreeInstance(
                [(q(0, 1, 5, "a"), 5, 0), (q(2, 3, 5, "a"), 5, 0)],
                1,
                WorkCounters(),
            )

    def test_alive_entries_rebase_thresholds(self):
        counters = WorkCounters()
        inst = TreeInstance([(q(0, 10, 100, "a"), 100, 0)], 1, counters)
        for _ in range(30):
            inst.process(StreamElement(5.0, 1))
        entries = inst.alive_entries()
        assert entries == [(inst.trackers["a"].query, 70, 30)]

    def test_needs_rebuild_at_half(self):
        counters = WorkCounters()
        entries = [(q(i, i + 1, 1000, f"q{i}"), 1000, 0) for i in range(4)]
        inst = TreeInstance(entries, 1, counters)
        assert not inst.needs_rebuild
        inst.terminate("q0")
        assert not inst.needs_rebuild
        inst.terminate("q1")
        assert inst.needs_rebuild

    def test_rebuilt_instance_continues_exactly(self):
        counters = WorkCounters()
        inst = TreeInstance([(q(0, 10, 100, "a"), 100, 0)], 1, counters)
        for _ in range(60):
            inst.process(StreamElement(3.0, 1))
        inst2 = TreeInstance(inst.alive_entries(), 1, counters)
        matured = []
        for i in range(61, 120):
            for query, w in inst2.process(StreamElement(3.0, 1)):
                matured.append((query.query_id, i, w))
        assert matured == [("a", 100, 100)]


class TestStaticDTEngine:
    def test_register_batch_then_stream(self):
        engine = StaticDTEngine(dims=1)
        engine.register_batch([q(0, 10, 3, "a"), q(5, 15, 4, "b")])
        assert engine.alive_count == 2
        events = []
        for t in range(1, 10):
            events.extend(engine.process(StreamElement(7.0, 1), t))
            if len(events) == 2:
                break
        assert [(e.query.query_id, e.timestamp) for e in events] == [
            ("a", 3),
            ("b", 4),
        ]

    def test_midstream_register_full_rebuild_counts_fresh(self):
        engine = StaticDTEngine(dims=1)
        engine.register(q(0, 10, 5, "a"))
        engine.process(StreamElement(5.0, 1), 1)
        engine.process(StreamElement(5.0, 1), 2)
        # "b" registered after two elements: those must not count for it.
        engine.register(q(0, 10, 5, "b"))
        events = []
        for t in range(3, 10):
            events.extend(engine.process(StreamElement(5.0, 1), t))
        assert [(e.query.query_id, e.timestamp) for e in events] == [
            ("a", 5),
            ("b", 7),
        ]

    def test_duplicate_registration_rejected(self):
        engine = StaticDTEngine(dims=1)
        engine.register(q(0, 10, 5, "a"))
        with pytest.raises(EngineError):
            engine.register(q(1, 2, 3, "a"))
        with pytest.raises(EngineError):
            engine.register_batch([q(1, 2, 3, "a")])

    def test_dims_validation(self):
        engine = StaticDTEngine(dims=2)
        with pytest.raises(ValueError):
            engine.register(q(0, 1, 1, "a"))  # 1-D query into 2-D engine
        with pytest.raises(ValueError):
            engine.process(StreamElement(1.0, 1), 1)  # 1-D element

    def test_empty_engine_processes_quietly(self):
        engine = StaticDTEngine(dims=1)
        assert engine.process(StreamElement(1.0, 1), 1) == []
        assert engine.alive_count == 0
        assert engine.terminate("nope") is False

    def test_global_rebuild_happens_and_preserves_results(self):
        engine = StaticDTEngine(dims=1)
        queries = [q(0, 100, 50, f"q{i}") for i in range(8)]
        engine.register_batch(queries)
        rebuilds_before = engine.counters.rebuilds
        # Terminate most queries: rebuild must trigger.
        for i in range(6):
            engine.terminate(f"q{i}")
        assert engine.counters.rebuilds > rebuilds_before
        # The survivors still mature exactly on time.
        events = []
        for t in range(1, 60):
            events.extend(engine.process(StreamElement(50.0, 1), t))
        assert sorted(e.query.query_id for e in events) == ["q6", "q7"]
        assert all(e.timestamp == 50 for e in events)

    def test_never_maturing_query_stays_alive(self):
        engine = StaticDTEngine(dims=1)
        engine.register(q(0, 10, 10**9, "a"))
        for t in range(1, 100):
            assert engine.process(StreamElement(5.0, 1000), t) == []
        assert engine.alive_count == 1

    def test_midstream_register_records_static_rebuild(self):
        obs = Observability()
        system = RTSSystem(dims=1, engine="dt-static", observability=obs)
        system.register([(0, 10)], threshold=5, query_id="a")
        assert obs.metrics.family_total("rts_rebuilds_total") == 0
        system.register([(2, 8)], threshold=5, query_id="b")
        assert obs.metrics.value("rts_rebuilds_total", kind="static-register") == 1
        assert system.engine.tree_count == 1


class TestSameElementDispatchOrder:
    """Pins the order of maturity events that fire at one element.

    Four queries mature at t=4: a, b registered up front, c, d after two
    elements.  The order follows each engine's tree layout and heap
    tie-breaks; both engines must keep it, scalar and batched.
    """

    @pytest.mark.parametrize(
        "engine, expected",
        [("dt", ["a", "c", "b", "d"]), ("dt-static", ["c", "a", "b", "d"])],
    )
    @pytest.mark.parametrize("batched", [False, True])
    def test_order_at_one_element(self, engine, expected, batched):
        eng = make_engine(engine, 1)
        eng.register_batch([q(0, 10, 4, "a"), q(2, 8, 4, "b")])
        events = []
        for t in (1, 2):
            events.extend(eng.process(StreamElement(5.0, 1), t))
        eng.register(q(0, 10, 2, "c"))
        eng.register(q(4, 6, 2, "d"))
        if batched:
            events.extend(eng.process_batch([StreamElement(5.0, 1)] * 3, 3))
        else:
            for t in (3, 4, 5):
                events.extend(eng.process(StreamElement(5.0, 1), t))
        assert [(e.query.query_id, e.timestamp) for e in events] == [
            (qid, 4) for qid in expected
        ]


def test_dt_engine_classes_are_module_level():
    for name in ("dt", "dt-static", "dt-scan"):
        a = RTSSystem(dims=1, engine=name)
        b = RTSSystem(dims=1, engine=name)
        assert type(a.engine) is type(b.engine)
        assert pickle.loads(pickle.dumps(type(a.engine))) is type(a.engine)
