"""Unit tests for the RTSSystem façade."""

import pytest

from repro import (
    Interval,
    Observability,
    Query,
    QueryStatus,
    Rect,
    RTSSystem,
    StreamElement,
    available_engines,
    make_engine,
)
from repro.core.batch import prepare_batch
from repro.core.engine import Engine


class TestConstruction:
    def test_default_engine_is_dt(self):
        assert RTSSystem(dims=1).engine.name == "DT"

    def test_engine_registry_names(self):
        names = available_engines()
        assert {"dt", "dt-static", "dt-scan", "baseline", "interval-tree",
                "seg-intv-tree", "rtree"} <= set(names)
        for name in ("dt", "baseline"):
            assert make_engine(name, dims=1).dims == 1

    def test_unknown_engine_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RTSSystem(dims=1, engine="btree")

    def test_engine_instance_passthrough(self):
        engine = make_engine("baseline", dims=2)
        system = RTSSystem(dims=2, engine=engine)
        assert system.engine is engine

    def test_engine_instance_dims_mismatch(self):
        with pytest.raises(ValueError):
            RTSSystem(dims=1, engine=make_engine("baseline", dims=2))

    def test_options_only_with_names(self):
        with pytest.raises(ValueError):
            RTSSystem(dims=2, engine=make_engine("rtree", dims=2), max_entries=4)

    def test_engine_options_forwarded(self):
        system = RTSSystem(dims=2, engine="rtree", max_entries=16)
        assert system.engine._tree.max_entries == 16


class TestRegistration:
    def test_register_with_pairs(self):
        system = RTSSystem(dims=2)
        q = system.register([(0, 10), (5, 15)], threshold=3)
        assert system.status(q) is QueryStatus.ALIVE

    def test_register_with_interval(self):
        system = RTSSystem(dims=1)
        q = system.register(Interval.closed(0, 10), threshold=3)
        assert q.dims == 1

    def test_register_query_object(self):
        system = RTSSystem(dims=1)
        q = Query([(0, 10)], 5)
        assert system.register(q) is q

    def test_query_object_plus_threshold_rejected(self):
        system = RTSSystem(dims=1)
        with pytest.raises(ValueError):
            system.register(Query([(0, 10)], 5), threshold=3)

    def test_missing_threshold_rejected(self):
        with pytest.raises(ValueError):
            RTSSystem(dims=1).register([(0, 10)])

    def test_duplicate_id_rejected(self):
        system = RTSSystem(dims=1)
        system.register([(0, 10)], threshold=1, query_id="x")
        with pytest.raises(ValueError):
            system.register([(2, 3)], threshold=1, query_id="x")

    def test_register_batch(self):
        system = RTSSystem(dims=1)
        batch = system.register_batch(
            [Query([(0, 10)], 2, query_id=f"q{i}") for i in range(5)]
        )
        assert len(batch) == 5 and system.alive_count == 5

    def test_register_batch_rejects_non_queries(self):
        with pytest.raises(TypeError):
            RTSSystem(dims=1).register_batch([[(0, 1)]])


class TestStreaming:
    def test_process_raw_value(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=10)
        events = system.process(5, weight=10)
        assert len(events) == 1 and events[0].query is q
        assert system.now == 1

    def test_process_element_object(self):
        system = RTSSystem(dims=2)
        system.register([(0, 10), (0, 10)], threshold=1)
        events = system.process(StreamElement((5.0, 5.0), 1))
        assert len(events) == 1

    @pytest.mark.parametrize("prepared", [False, True])
    def test_batch_weight_reported_exactly(self, prepared):
        # The packed batch's total is exact, like the Python sum over the
        # elements (tests/core/test_heavy_batches.py goes past 2^63).
        obs = Observability()
        system = RTSSystem(dims=1, observability=obs)
        system.register([(0, 10)], threshold=1 << 60)
        heavy = (1 << 51) + 3
        batch = [StreamElement(5.0, heavy), StreamElement(7.0, heavy + 2), StreamElement(20.0, 1)]
        if prepared:
            batch = prepare_batch(batch, 1)
            assert batch.vectorizable
        system.process_batch(batch)
        assert obs.metrics.value("rts_element_weight_total") == 2 * heavy + 3

    def test_process_many(self):
        system = RTSSystem(dims=1)
        system.register([(0, 10)], threshold=3)
        events = system.process_many(StreamElement(5.0, 1) for _ in range(5))
        assert len(events) == 1 and events[0].timestamp == 3

    def test_callbacks_fire_synchronously(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=1)
        seen = []
        system.on_maturity(lambda ev: seen.append((ev.query.query_id, system.now)))
        system.process(5)
        assert seen == [(q.query_id, 1)]

    def test_status_transitions(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=2)
        assert system.status(q) is QueryStatus.ALIVE
        system.process(5)
        system.process(5)
        assert system.status(q) is QueryStatus.MATURED
        assert system.maturity_time(q) == 2

    def test_terminate(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=2)
        assert system.terminate(q) is True
        assert system.status(q) is QueryStatus.TERMINATED
        assert system.terminate(q) is False  # no longer alive
        assert system.maturity_time(q) is None

    def test_terminate_matured_is_noop(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=1)
        system.process(5)
        assert system.terminate(q) is False

    def test_unknown_status_raises(self):
        with pytest.raises(KeyError):
            RTSSystem(dims=1).status("ghost")

    def test_matured_query_stops_counting(self):
        system = RTSSystem(dims=1)
        q = system.register([(0, 10)], threshold=1)
        assert len(system.process(5)) == 1
        assert system.process(5) == []  # no double maturity
        assert system.alive_count == 0

    def test_repr(self):
        system = RTSSystem(dims=1)
        assert "DT" in repr(system)


@pytest.mark.parametrize("engine", sorted(set(available_engines()) - {"seg-intv-tree", "rtree"}))
def test_every_1d_engine_behaves_identically_on_a_tiny_case(engine):
    system = RTSSystem(dims=1, engine=engine)
    a = system.register(Interval.closed(0, 10), threshold=5, query_id="a")
    b = system.register(Interval.open(10, 20), threshold=3, query_id="b")
    timeline = [(5, 2), (10, 2), (15, 1), (10.5, 1), (20, 5), (11, 1), (3, 1)]
    matured = []
    for t, (v, w) in enumerate(timeline, start=1):
        for ev in system.process(v, weight=w):
            matured.append((ev.query.query_id, t, ev.weight_seen))
    # a counts 5 (w2), 10 (w2, closed end), 3 (w1) -> matures at t=7 with 5;
    # b counts 15, 10.5, 11 (open ends exclude 10 and 20) -> t=6 with 3.
    assert matured == [("b", 6, 3), ("a", 7, 5)]
