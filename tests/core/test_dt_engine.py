"""Unit tests for TreeInstance and the static (Section 4) DT engine."""

import pickle

import pytest

from repro import Observability, Query, RTSSystem, StreamElement
from repro.core.dt_engine import TreeInstance
from repro.core.endpoint_tree import COUNTER_MAX
from repro.core.engine import EngineError, WorkCounters
from repro.core.logmethod import StaticDTEngine
from repro.core.system import make_engine
from repro.core.tracker import TrackerState


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


class TestPrecomputedDueSet:
    """One element drains several touched nodes; its due nodes are picked
    once, before the first drain, and ``mins`` follows every re-key.

    Dimension-0 keys 0, 10, 20, 40: an element at 15 descends root ->
    [0,20) -> [10,20), one at 25 reaches [20,40).  q = [0,40) (tau 20,
    lambda 5) owns [0,20) and [20,40); r = [10,20) (tau 4, final phase)
    and s = [10,20) (tau 30) share [10,20).  In 2-D every rectangle spans
    [0,100) in dimension 1, so the same nodes sit in secondary trees.

    * Key element 2 (weight 13 at 15) drains [0,20) first: q's second
      signal ends its round and, with 2 left of tau, opens the final
      phase — re-keying q at [0,20) and at the untouched [20,40) — while
      r, due at the later-touched [10,20), matures on the same element.
    * That re-key *lowers* q's sigma at [20,40) from 10 to 6; key
      element 3 (weight 2 at 25) takes the counter to 7 and matures q.
      A ``mins`` entry left at 10 would miss it, scalar or batched.
    * Key element 4 matures s at [10,20).

    Fillers at 45 touch no heap, so batched runs also apply ranges in
    bulk between the key elements.
    """

    KEYS = [(25.0, 5), (15.0, 13), (25.0, 2), (15.0, 20)]

    def _stream(self, dims):
        elements, at = [], []
        for x, w in self.KEYS:
            elements.extend(self._element(45.0, 1, dims) for _ in range(9))
            at.append(len(elements) + 1)  # 1-based timestamp
            elements.append(self._element(x, w, dims))
        return elements, at

    @staticmethod
    def _element(x, w, dims):
        return StreamElement(x if dims == 1 else (x, 50.0), w)

    @staticmethod
    def _queries(dims):
        def rect(lo, hi):
            return [(lo, hi)] if dims == 1 else [(lo, hi), (0, 100)]

        return [
            Query(rect(0, 40), 20, query_id="q"),
            Query(rect(10, 20), 4, query_id="r"),
            Query(rect(10, 20), 30, query_id="s"),
        ]

    def _events(self, engine, dims, batched):
        eng = make_engine(engine, dims)
        eng.register_batch(self._queries(dims))
        elements, _at = self._stream(dims)
        if batched:
            events = eng.process_batch(elements, 1)
        else:
            events = []
            for t, element in enumerate(elements, 1):
                events.extend(eng.process(element, t))
        return [(e.query.query_id, e.timestamp, e.weight_seen) for e in events]

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("engine", ["dt", "dt-static", "dt-scan"])
    def test_events_match_naive(self, engine, batched, dims):
        _elements, at = self._stream(dims)
        expected = [("r", at[1], 13), ("q", at[2], 20), ("s", at[3], 33)]
        assert self._events("baseline", dims, False) == expected
        assert self._events(engine, dims, batched) == expected

    @pytest.mark.parametrize("dims", [1, 2])
    def test_round_ends_on_the_shared_element(self, dims):
        eng = make_engine("dt", dims)
        eng.register_batch(self._queries(dims))
        elements, at = self._stream(dims)
        tracker = eng._trees[eng._locator["q"]].trackers["q"]
        events = []
        for t, element in enumerate(elements[: at[1]], 1):
            events.extend(eng.process(element, t))
        assert [e.query.query_id for e in events] == ["r"]
        assert tracker.rounds_run == 1 and tracker.state is TrackerState.FINAL


class TestCounterBound:
    """Counters live in int64 columns: no tree's running total may pass
    COUNTER_MAX.  An ingest that would carry a tree past it rebuilds that
    tree first (counters restart at zero, thresholds re-based); one that
    is heavier than the bound itself raises before any state changes."""

    @staticmethod
    def _replay(engine, dims, queries, ops, obs=None):
        system = RTSSystem(dims=dims, engine=engine, observability=obs)
        system.register_batch(queries)
        events = []
        for op in ops:
            if isinstance(op, list):
                events.extend(system.process_batch(op))
            else:
                events.extend(system.process(op))
        return [(e.query.query_id, e.timestamp, e.weight_seen) for e in events]

    @staticmethod
    def _setup(dims, heavy):
        def rect(lo, hi):
            return [(lo, hi)] if dims == 1 else [(lo, hi), (0, 100)]

        def el(x, w):
            return StreamElement(x if dims == 1 else (x, 50.0), w)

        queries = [
            Query(rect(0, 10), 2 * heavy + 10, query_id="a"),
            Query(rect(5, 20), heavy + 30, query_id="b"),
            Query(rect(0, 30), 2 * heavy + 25, query_id="c"),
        ]
        return queries, el

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("engine", ["dt", "dt-static"])
    def test_scalar_ingest_rebuilds_before_overflow(self, engine, dims):
        heavy = 1 << 62
        queries, el = self._setup(dims, heavy)
        ops = [el(7.0, heavy), el(15.0, heavy - 1), el(7.0, heavy)]
        ops += [el(x, 3) for x in (7.0, 15.0, 25.0) * 6]
        obs = Observability()
        got = self._replay(engine, dims, queries, ops, obs)
        assert got == self._replay("baseline", dims, queries, ops)
        assert {qid for qid, _t, _w in got} == {"a", "b", "c"}
        # 2^62 + (2^62 - 1) is the bound exactly; the third element
        # would pass it.
        assert obs.metrics.value("rts_rebuilds_total", kind="overflow") == 1

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("engine", ["dt", "dt-static"])
    def test_batched_ingest_rebuilds_before_overflow(self, engine, dims):
        # Two scalar elements leave the tree 11 below the bound; the next
        # batch weighs 40 and is vectorizable, so it descends in bulk.
        heavy = (COUNTER_MAX - 11) // 2
        queries, el = self._setup(dims, heavy)
        batch = [el(x, 1) for x in (7.0, 15.0, 25.0, 45.0) * 10]
        ops = [el(7.0, heavy), el(15.0, heavy), batch, batch]
        obs = Observability()
        got = self._replay(engine, dims, queries, ops, obs)
        assert got == self._replay("baseline", dims, queries, ops)
        assert {qid for qid, _t, _w in got} == {"b", "c"}
        assert obs.metrics.value("rts_rebuilds_total", kind="overflow") == 1

    @pytest.mark.parametrize("engine", ["dt", "dt-static"])
    def test_overweight_ingest_raises_before_any_change(self, engine):
        system = RTSSystem(dims=1, engine=engine)
        system.register([(0, 10)], threshold=50, query_id="a")
        system.process(StreamElement(5.0, 3))

        def state():
            return system.now, system.progress("a"), system.work_counters.snapshot()

        before = state()
        too_heavy = COUNTER_MAX + 1
        with pytest.raises(EngineError, match="counter bound"):
            system.process(StreamElement(5.0, too_heavy))
        with pytest.raises(EngineError, match="counter bound"):
            system.process_batch([StreamElement(5.0, 1), StreamElement(5.0, too_heavy)])
        assert state() == before
        assert system.process_batch([StreamElement(5.0, 47)])[0].timestamp == 2


def test_dt_engine_classes_are_module_level():
    for name in ("dt", "dt-static", "dt-scan"):
        a = RTSSystem(dims=1, engine=name)
        b = RTSSystem(dims=1, engine=name)
        assert type(a.engine) is type(b.engine)
        assert pickle.loads(pickle.dumps(type(a.engine))) is type(a.engine)


class TestFirstCrossingSplit:
    """A batch is bulk-applied up to each first crossing — the first
    element at which some node's counter reaches its heap minimum — and
    only that element runs through ``DTEngine.process``.  Every case is
    checked against the element-at-a-time replay of the baseline."""

    @staticmethod
    def _point(x, dims):
        return StreamElement(x if dims == 1 else (x, 5.0), 1)

    @staticmethod
    def _rect(lo, hi, dims):
        return [(lo, hi)] if dims == 1 else [(lo, hi), (0, 10)]

    @staticmethod
    def _run(engine, dims, queries, batches, register_one_by_one=False):
        """Events of ``batches`` (lists of elements) and the number of
        ``process`` calls the batched path made."""
        eng = make_engine(engine, dims)
        if register_one_by_one:
            for query in queries:
                eng.register(query)
        else:
            eng.register_batch(queries)
        calls = []
        scalar = eng.process

        def counted(element, timestamp):
            calls.append(timestamp)
            return scalar(element, timestamp)

        eng.process = counted
        events, ts = [], 1
        for batch in batches:
            events.extend(eng.process_batch(batch, ts))
            ts += len(batch)
        return [(e.query.query_id, e.timestamp, e.weight_seen) for e in events], calls, eng

    def _check(self, engine, dims, queries, batches, crossings, register_one_by_one=False):
        got, calls, eng = self._run(engine, dims, queries, batches, register_one_by_one)
        want, _calls, _eng = self._run("baseline", dims, queries, batches)
        assert got == want
        assert calls == crossings
        return got, eng

    @pytest.mark.parametrize("dims", [1, 2])
    def test_process_runs_exactly_the_crossings(self, dims):
        # tau 6 <= 6h: the query starts in the final phase, so each of
        # the k elements inside its range signals and none of the
        # fillers (right of every endpoint) touches a heap.
        k_at = [0, 13, 20, 27, 39]
        batch = [self._point(50.0, dims) for _ in range(40)]
        for i in k_at:
            batch[i] = self._point(5.0, dims)
        query = Query(self._rect(0, 10, dims), 6, query_id="q")
        got, _eng = self._check("dt", dims, [query], [batch], [1 + i for i in k_at])
        assert got == []  # five of six: still alive

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("engine", ["dt", "dt-static", "dt-scan"])
    def test_final_phase_storm(self, engine, dims):
        # Ten unit ranges, each query in its final phase (tau <= 6h with
        # h = 1), and the elements cycle through them: every element of
        # the batch signals.  q0 matures on its fifth element (41).
        queries = [
            Query(self._rect(j, j + 1, dims), 5 if j == 0 else 6, query_id=f"q{j}")
            for j in range(10)
        ]
        batch = [self._point((i % 10) + 0.5, dims) for i in range(50)]
        got, _eng = self._check(engine, dims, queries, [batch], list(range(1, 51)))
        assert got == [("q0", 41, 5)]

    @pytest.mark.parametrize("dims", [1, 2])
    def test_crossings_in_different_trees(self, dims):
        # Registered one at a time, the logarithmic method keeps three
        # queries in two live trees: a alone in slot 0, b and c merged
        # into slot 1.  Elements 11 and 13 are crossings in both trees at
        # once (a and b), element 12, between them, in slot 1 only (c).
        queries = [
            Query(self._rect(0, 2, dims), 3, query_id="b"),
            Query(self._rect(2, 4, dims), 3, query_id="c"),
            Query(self._rect(0, 1, dims), 3, query_id="a"),
        ]
        batch = [self._point(50.0, dims) for _ in range(24)]
        batch[10] = self._point(0.5, dims)
        batch[11] = self._point(2.5, dims)
        batch[12] = self._point(0.5, dims)
        got, eng = self._check(
            "dt", dims, queries, [batch], [11, 12, 13], register_one_by_one=True
        )
        assert eng.slot_sizes() == [1, 2]
        assert got == []

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("engine", ["dt", "dt-static"])
    def test_maturities_on_first_and_last_element(self, engine, dims):
        # "first" matures on the first element of the second batch, which
        # halves its tree (a rebuild mid-batch); "last" on the last one.
        queries = [
            Query(self._rect(0, 1, dims), 2, query_id="first"),
            Query(self._rect(3, 4, dims), 2, query_id="last"),
        ]
        one = [self._point(50.0, dims) for _ in range(9)] + [self._point(0.5, dims)]
        two = [self._point(0.5, dims)] + [self._point(50.0, dims) for _ in range(8)]
        two[3] = self._point(3.5, dims)
        two.append(self._point(3.5, dims))
        got, _eng = self._check(engine, dims, queries, [one, two], [10, 11, 14, 20])
        assert got == [("first", 11, 2), ("last", 20, 2)]
