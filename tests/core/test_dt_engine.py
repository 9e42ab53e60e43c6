"""Unit tests for TreeInstance and the static (Section 4) DT engine."""

import pickle
import random

import pytest

from repro import Observability, Query, RTSSystem, StreamElement
from repro.core.dt_engine import TreeInstance
from repro.core.endpoint_tree import COUNTER_MAX, EndpointTree
from repro.core.engine import EngineError, WorkCounters
from repro.core.geometry import Interval, Rect
from repro.core.logmethod import StaticDTEngine
from repro.core.system import make_engine
from repro.core.tracker import FINAL


def q(lo, hi, tau, qid):
    return Query([(lo, hi)], tau, query_id=qid)


class TestTreeInstance:
    def test_process_reports_maturity_with_weight(self):
        counters = WorkCounters()
        inst = TreeInstance([(q(0, 10, 5, "a"), 5, 0)], 1, counters)
        out = []
        for _ in range(5):
            out.extend(inst.process(StreamElement(5.0, 1)))
        assert out == [(inst.query[inst.slot["a"]], 5)]
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
        assert entries == [(inst.query[inst.slot["a"]], 70, 30)]

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


class TestRebasing:
    """A merge re-bases every alive query by the weight its old tree
    collected.  The trees it takes in hold an inert query (an empty
    region: no canonical node, so an empty range of counters) and slots
    whose queries matured or were terminated; each alive query's
    remaining threshold and offset must follow from the weight that fell
    in its region since the tree was built."""

    @staticmethod
    def _queries(dims, rng):
        def rect():
            out = []
            for _ in range(dims):
                lo = rng.uniform(0, 70)
                out.append((lo, lo + rng.uniform(5, 30)))
            return out

        empty = Rect([Interval.half_open(40.0, 40.0)] * dims)
        queries = [Query(empty, 7, query_id="inert")]
        for i in range(40):
            tau = rng.choice((3, 25, 400, 10**6))
            queries.insert(rng.randrange(len(queries) + 1), Query(rect(), tau, query_id=f"q{i}"))
        return queries

    @pytest.mark.parametrize("dims", [1, 2])
    def test_alive_entries_skip_dead_and_inert_slots(self, dims):
        rng = random.Random(dims)
        queries = self._queries(dims, rng)
        entries = [(query, query.threshold, 5) for query in queries]
        inst = TreeInstance(entries, dims, WorkCounters())
        weight = {query.query_id: 0 for query in queries}
        dead = set()
        for step in range(300):
            v = tuple(rng.uniform(0, 100) for _ in range(dims))
            w = rng.choice((1, 2, 5))
            for query, _seen in inst.process(StreamElement(v[0] if dims == 1 else v, w)):
                dead.add(query.query_id)
            for query in queries:
                if query.rect.contains(v):
                    weight[query.query_id] += w
            if step % 50 == 49:
                qid = rng.choice(queries).query_id
                if inst.terminate(qid):
                    dead.add(qid)
        assert dead and "inert" not in dead
        want = [
            (query, query.threshold - weight[query.query_id], 5 + weight[query.query_id])
            for query in queries
            if query.query_id not in dead
        ]
        assert weight["inert"] == 0
        assert inst.alive_entries() == want

    @pytest.mark.parametrize("engine", ["dt", "dt-static", "dt-scan"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_merges_keep_every_collected_weight(self, engine, dims):
        rng = random.Random(10 + dims)
        eng = make_engine(engine, dims)
        queries = {}
        weight = {}
        for i, query in enumerate(self._queries(dims, rng)):
            eng.register(query)  # each register merges the low slots
            queries[query.query_id] = query
            weight[query.query_id] = 0
            for _ in range(rng.choice((0, 3, 12))):
                v = tuple(rng.uniform(0, 100) for _ in range(dims))
                w = rng.choice((1, 2, 5))
                for event in eng.process(StreamElement(v[0] if dims == 1 else v, w), i):
                    del weight[event.query.query_id]
                for qid in weight:
                    if queries[qid].rect.contains(v):
                        weight[qid] += w
            if i % 7 == 6:
                qid = rng.choice(sorted(weight))
                assert eng.terminate(qid)
                del weight[qid]
            assert {qid: eng.collected_weight(qid) for qid in weight} == weight
        assert "inert" in weight and len(weight) < len(queries)


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
        inst = eng._trees[eng._locator["q"]]
        slot = inst.slot["q"]
        events = []
        for t, element in enumerate(elements[: at[1]], 1):
            events.extend(eng.process(element, t))
        assert [e.query.query_id for e in events] == ["r"]
        assert inst.rounds[slot] == 1 and inst.state[slot] == FINAL


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


class TestSignalDenseBatches:
    """Batched ingestion of a signal-dense stream — 1% of the queries at a
    small threshold among queries that never mature, as in the static
    benchmark — against the element-at-a-time replay on the same engine:
    the same events and the same per-query collected weights after every
    batch, the same protocol work, and no more counter bumps."""

    DOMAIN = 1000.0
    BATCH = 240

    def _queries(self, rng, dims, count=300):
        queries = []
        for i in range(count):
            rect = []
            for _ in range(dims):
                lo = rng.uniform(0, self.DOMAIN * 0.9)
                rect.append((lo, lo + rng.uniform(1, self.DOMAIN * 0.3)))
            # Every hundredth query signals often: rounds, then a final
            # phase, then maturity inside the stream.
            tau = rng.randint(30, 150) if i % 100 == 7 else 10**9
            queries.append(Query(rect, tau, query_id=f"q{i}"))
        return queries

    def _stream(self, rng, dims, batches=8):
        def point():
            if dims == 1:
                return rng.uniform(0, self.DOMAIN)
            return tuple(rng.uniform(0, self.DOMAIN) for _ in range(dims))

        return [
            [StreamElement(point(), rng.choice((1, 1, 1, 2, 5))) for _ in range(self.BATCH)]
            for _ in range(batches)
        ]

    def _replay(self, engine, dims, queries, batches, batched, singles):
        """Per-batch events and alive queries' collected weights, the
        engine's work counters and the timestamps ``process`` ran at."""
        eng = make_engine(engine, dims)
        eng.register_batch(queries[singles:])
        for query in queries[:singles]:
            eng.register(query)
        calls = []
        scalar = eng.process

        def counted(element, timestamp):
            calls.append(timestamp)
            return scalar(element, timestamp)

        eng.process = counted
        alive = [query.query_id for query in queries]
        trace, ts = [], 1
        for batch in batches:
            if batched:
                events = eng.process_batch(batch, ts)
            else:
                events = []
                for i, element in enumerate(batch):
                    events.extend(eng.process(element, ts + i))
            ts += len(batch)
            done = {e.query.query_id for e in events}
            alive = [qid for qid in alive if qid not in done]
            trace.append(
                (
                    [(e.query.query_id, e.timestamp, e.weight_seen) for e in events],
                    [eng.collected_weight(qid) for qid in alive],
                )
            )
        return trace, eng.counters.snapshot(), calls, eng

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize(
        "engine, singles",
        [("dt", 0), ("dt-static", 0), ("dt-scan", 0), ("dt", 3)],
        ids=["dt", "dt-static", "dt-scan", "dt-two-trees"],
    )
    def test_batched_matches_scalar_replay(self, engine, singles, dims):
        rng = random.Random(20 + dims)
        queries = self._queries(rng, dims)
        batches = self._stream(rng, dims)
        got, work, calls, eng = self._replay(engine, dims, queries, batches, True, singles)
        want, scalar_work, _calls, _eng = self._replay(
            engine, dims, queries, batches, False, singles
        )
        if singles:
            assert sum(1 for size in eng.slot_sizes() if size) >= 2
        assert got == want
        assert any(events for events, _weights in got)
        for name in ("heap_ops", "messages", "rounds", "rebuilds"):
            assert work[name] == scalar_work[name], name
        assert work["counter_bumps"] <= scalar_work["counter_bumps"]
        # Crossings fall in the first, middle and last third of a batch.
        thirds = {(t - 1) % self.BATCH * 3 // self.BATCH for t in calls}
        assert thirds == {0, 1, 2}
        assert len(calls) > 2 * len(batches)


def _replay_batches(engine, dims, up_front, singles, batches, batched):
    """Per-batch events and alive queries' collected weights, plus the
    final work counters, of ``batches`` fed batched or one element at a
    time to a fresh engine (``up_front`` registered together, then
    ``singles`` one by one)."""
    eng = make_engine(engine, dims)
    if up_front:
        eng.register_batch(up_front)
    for query in singles:
        eng.register(query)
    alive = [query.query_id for query in up_front + singles]
    trace, ts = [], 1
    for batch in batches:
        if batched:
            events = eng.process_batch(batch, ts)
        else:
            events = []
            for i, element in enumerate(batch):
                events.extend(eng.process(element, ts + i))
        ts += len(batch)
        done = {e.query.query_id for e in events}
        alive = [qid for qid in alive if qid not in done]
        trace.append(
            (
                [(e.query.query_id, e.timestamp, e.weight_seen) for e in events],
                [eng.collected_weight(qid) for qid in alive],
            )
        )
    return trace, eng.counters.snapshot()


class TestCrossingDrainOrder:
    """Crossings drained through the split against the element-at-a-time
    replay in two and three dimensions: several queries maturing on one
    element through nested secondary trees (their canonical nodes lie in
    different last-dimension trees, drained in the descent's nested
    order), a maturity that halves the tree in the middle of a batch, and
    a signal-dense random stream after them."""

    #: Inside every nested query; the random stream stays left of 16 in
    #: dimension 0, so only the key elements reach the nested queries.
    POINT = (22.5, 2.5, 2.5)

    @staticmethod
    def _rect(dims, first, rest):
        return [first] + [rest] * (dims - 1)

    def _queries(self, dims):
        # Nested ranges around POINT, each in its final phase (tau 2):
        # all five mature on the second element at POINT.  Four wide
        # queries that never mature keep the tree alive, so the five
        # maturities halve it (5 of 9) and rebuild it mid-batch.
        nested = [
            self._rect(dims, (16, 32), (0, 16)),
            self._rect(dims, (16, 24), (0, 8)),
            self._rect(dims, (20, 24), (2, 4)),
            self._rect(dims, (22, 23), (0, 3)),
            self._rect(dims, (22, 24), (2, 3)),
        ]
        queries = [Query(r, 2, query_id=f"n{i}") for i, r in enumerate(nested)]
        queries += [
            Query(self._rect(dims, (i, 16), (0, 16)), 10**9, query_id=f"w{i}")
            for i in range(4)
        ]
        return queries

    def _dense(self, rng, dims, count=40):
        queries = []
        for i in range(count):
            rect = []
            for _ in range(dims):
                lo = rng.randrange(0, 9)
                rect.append((lo, lo + rng.randrange(4, 8)))
            # Final phase from the start, rounds first, or never.
            tau = (10**9, rng.randint(40, 150), rng.randint(2, 12), rng.randint(2, 12))[i % 4]
            queries.append(Query(rect, tau, query_id=f"d{i}"))
        return queries

    def _batches(self, rng, dims):
        point = StreamElement(self.POINT[:dims], 1)

        def element():
            return StreamElement(tuple(rng.uniform(0, 12) for _ in range(dims)), rng.choice((1, 1, 2, 3)))

        first = [element() for _ in range(30)]
        first[7] = point
        first[15] = point  # the five nested queries mature here
        rest = [[element() for _ in range(64)] for _ in range(6)]
        return [first] + rest

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("engine", ["dt", "dt-static", "dt-scan"])
    def test_batched_matches_scalar_replay(self, engine, dims):
        rng = random.Random(100 + dims)
        queries = self._queries(dims) + self._dense(rng, dims)
        batches = self._batches(rng, dims)
        got, work = _replay_batches(engine, dims, queries, [], batches, True)
        want, scalar_work = _replay_batches(engine, dims, queries, [], batches, False)
        assert got == want
        for name in ("heap_ops", "messages", "rounds", "rebuilds"):
            assert work[name] == scalar_work[name], name
        assert work["counter_bumps"] <= scalar_work["counter_bumps"]
        # The nested five mature together, on the batch's 16th element.
        assert sorted(qid for qid, t, _w in got[0][0] if t == 16) == [f"n{i}" for i in range(5)]
        # Maturities rebuild the tree in the middle of batches.
        registered = make_engine(engine, dims)
        registered.register_batch(queries)
        assert work["rebuilds"] > registered.counters.rebuilds
        assert work["rounds"] > 0
        assert sum(len(events) for events, _weights in got) > 10

    @pytest.mark.parametrize("dims", [2, 3])
    def test_descents_visit_columns_in_increasing_order(self, dims):
        # The split drains a crossing's due columns in column order, which
        # is the order of the descent through nested secondary trees.
        rng = random.Random(dims)
        queries = self._queries(dims) + self._dense(rng, dims)
        tree = EndpointTree([query.rect for query in queries], dims)
        points = [self.POINT[:dims]]
        points += [tuple(rng.uniform(0, 32) for _ in range(dims)) for _ in range(200)]
        for point in points:
            cols = tree.columns(point).tolist()
            assert cols == sorted(set(cols))
        assert len(tree.columns(self.POINT[:dims])) > 2 * dims

    @pytest.mark.parametrize("dims", [2, 3])
    def test_rebuild_in_the_middle_of_a_batch(self, dims):
        eng = make_engine("dt-static", dims)
        eng.register_batch(self._queries(dims))
        built = eng.counters.rebuilds
        filler = StreamElement((10.0,) * dims, 1)
        point = StreamElement(self.POINT[:dims], 1)
        elements = [filler, point, filler, point, point, filler]
        events = eng.process_batch(elements, 1)
        got = [(e.query.query_id, e.timestamp) for e in events]
        assert got == [(f"n{i}", 4) for i in (1, 0, 2, 4, 3)]
        scalar = make_engine("dt-static", dims)
        scalar.register_batch(self._queries(dims))
        want = []
        for t, element in enumerate(elements, 1):
            want.extend((e.query.query_id, e.timestamp) for e in scalar.process(element, t))
        assert got == want
        assert eng.counters.rebuilds > built
        assert sum(eng.slot_sizes()) == 4 and eng.tree_count == 1
        assert [eng.collected_weight(f"w{i}") for i in range(4)] == [3, 3, 3, 3]


class TestUntouchedTrees:
    """A crossing drains only the trees it is due in: with three live
    logarithmic-method trees and every crossing in one of them, the
    other two never enter :meth:`TreeInstance.drain` (each is brought up
    to date once, at the batch end), and the events and counters equal
    the element-at-a-time replay's."""

    @staticmethod
    def _setup(dims):
        def rect(lo, hi):
            return [(lo, hi)] + [(0, 100)] * (dims - 1)

        # Seven one-at-a-time registrations leave slots of 1, 2 and 4
        # queries; the last one, alone in slot 0, is the only one that
        # ever signals (tau 8 over unit ranges: its final phase).
        wide = [Query(rect(0, 50 + i), 10**9, query_id=f"w{i}") for i in range(6)]
        small = Query(rect(10, 11), 8, query_id="s")
        return wide + [small]

    @staticmethod
    def _batches(dims):
        rng = random.Random(7)

        def at(x):
            return StreamElement(x if dims == 1 else (x,) + (50.0,) * (dims - 1), 1)

        batches = []
        for _ in range(3):
            batch = [at(rng.uniform(20, 45)) for _ in range(50)]
            for i in (3, 17, 18, 40):
                batch[i] = at(10.5)
            batches.append(batch)
        return batches

    @pytest.mark.parametrize("dims", [1, 2])
    def test_other_trees_never_drain(self, dims, monkeypatch):
        queries = self._setup(dims)
        batches = self._batches(dims)
        entered = []
        drain = TreeInstance.drain

        def spy(tree, cols):
            entered.append(tree)
            return drain(tree, cols)

        monkeypatch.setattr(TreeInstance, "drain", spy)
        eng = make_engine("dt", dims)
        for query in queries:
            eng.register(query)
        assert eng.slot_sizes() == [1, 2, 4]
        small_tree = eng._trees[0]
        events = []
        ts = 1
        for batch in batches:
            events.extend(eng.process_batch(batch, ts))
            ts += len(batch)
        assert entered and all(tree is small_tree for tree in entered)
        got = [(e.query.query_id, e.timestamp, e.weight_seen) for e in events]
        monkeypatch.undo()
        trace, work = _replay_batches("dt", dims, [], queries, batches, True)
        want, scalar_work = _replay_batches("dt", dims, [], queries, batches, False)
        assert got == [event for events, _weights in want for event in events]
        assert trace == want
        assert got == [("s", 91, 8)]  # the second batch's fourth key element
        for name in ("heap_ops", "messages", "rounds", "rebuilds"):
            assert work[name] == scalar_work[name], name
        assert work["counter_bumps"] <= scalar_work["counter_bumps"]

    @pytest.mark.parametrize("dims", [1, 2])
    def test_scan_inspects_every_routed_tree(self, dims, monkeypatch):
        # The no-heap ablation pays the element-wise inspection at a
        # crossing: every tree the crossing descends through is scanned.
        queries = self._setup(dims)
        batches = self._batches(dims)
        entered = set()
        drain = TreeInstance.drain

        def spy(tree, cols):
            entered.add(id(tree))
            return drain(tree, cols)

        monkeypatch.setattr(TreeInstance, "drain", spy)
        trace, work = _replay_batches("dt-scan", dims, [], queries, batches, True)
        monkeypatch.undo()
        assert len(entered) == 3
        want, scalar_work = _replay_batches("dt-scan", dims, [], queries, batches, False)
        assert trace == want
        for name in ("heap_ops", "messages", "rounds", "rebuilds"):
            assert work[name] == scalar_work[name], name
