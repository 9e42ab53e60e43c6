"""Unit tests for JSON serialization of the core model objects."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, Query, Rect, StreamElement
from repro.core.serialize import (
    boundary_from_obj,
    boundary_to_obj,
    element_from_obj,
    element_to_obj,
    interval_from_obj,
    interval_to_obj,
    query_from_obj,
    query_to_obj,
    rect_from_obj,
    rect_to_obj,
)


def roundtrip_json(obj):
    """Force a real JSON round-trip (catches non-serialisable values)."""
    return json.loads(json.dumps(obj))


class TestBoundary:
    def test_roundtrip(self):
        for key in [(3.5, 0), (3.5, 1), (math.inf, 1), (-math.inf, 0)]:
            assert boundary_from_obj(roundtrip_json(boundary_to_obj(key))) == key

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            boundary_from_obj([1.0, 2])


class TestInterval:
    @pytest.mark.parametrize(
        "iv",
        [
            Interval.closed(1, 2),
            Interval.open(1, 2),
            Interval.half_open(-5, 5),
            Interval.left_open(0, 0.5),
            Interval.point(7),
            Interval.at_most(3),
            Interval.at_least(3),
            Interval.everything(),
        ],
    )
    def test_roundtrip_preserves_semantics(self, iv):
        back = interval_from_obj(roundtrip_json(interval_to_obj(iv)))
        assert back == iv


class TestRectAndQuery:
    def test_rect_roundtrip(self):
        rect = Rect([Interval.closed(0, 1), Interval.at_most(100)])
        assert rect_from_obj(roundtrip_json(rect_to_obj(rect))) == rect

    def test_query_roundtrip(self):
        q = Query([(100, 105), (0, 4600)], 100_000, query_id="alert-1")
        back = query_from_obj(roundtrip_json(query_to_obj(q)))
        assert back.query_id == q.query_id
        assert back.threshold == q.threshold
        assert back.rect == q.rect


class TestElement:
    def test_roundtrip(self):
        e = StreamElement((1.5, 2.0), weight=7)
        assert element_from_obj(roundtrip_json(element_to_obj(e))) == e


class TestNaNRejection:
    """NaN never round-trips: it poisons every interval comparison."""

    def test_boundary_to_obj_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            boundary_to_obj((math.nan, 0))

    def test_boundary_from_obj_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            boundary_from_obj([math.nan, 0])

    def test_interval_from_obj_rejects_nan(self):
        obj = interval_to_obj(Interval.closed(1, 2))
        obj["lo"][0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            interval_from_obj(obj)

    def test_element_from_obj_rejects_nan(self):
        obj = element_to_obj(StreamElement((1.0, 2.0), 3))
        obj["v"][1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            element_from_obj(obj)

    def test_query_from_obj_rejects_nan(self):
        obj = query_to_obj(Query([(0, 1)], 10, query_id="q"))
        obj["rect"][0]["hi"][0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            query_from_obj(obj)


class TestPropertyRoundTrips:
    """Hypothesis: (de)serialization is the identity on valid objects."""

    finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
    boundary = st.tuples(
        st.one_of(finite, st.just(math.inf), st.just(-math.inf)),
        st.integers(0, 1),
    )

    @settings(max_examples=200, deadline=None)
    @given(key=boundary)
    def test_boundary_roundtrip(self, key):
        assert boundary_from_obj(roundtrip_json(boundary_to_obj(key))) == key

    @settings(max_examples=200, deadline=None)
    @given(lo=finite, width=st.floats(0.001, 1e6), kind=st.integers(0, 3))
    def test_interval_roundtrip(self, lo, width, kind):
        make = [
            Interval.closed,
            Interval.open,
            Interval.half_open,
            Interval.left_open,
        ][kind]
        iv = make(lo, lo + width)
        assert interval_from_obj(roundtrip_json(interval_to_obj(iv))) == iv

    @settings(max_examples=100, deadline=None)
    @given(
        corners=st.lists(st.tuples(finite, st.floats(0.001, 1e6)), min_size=1, max_size=4)
    )
    def test_rect_roundtrip(self, corners):
        rect = Rect([Interval.half_open(lo, lo + w) for lo, w in corners])
        assert rect_from_obj(roundtrip_json(rect_to_obj(rect))) == rect

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.lists(finite, min_size=1, max_size=4),
        weight=st.integers(1, 10**9),
    )
    def test_element_roundtrip(self, value, weight):
        e = StreamElement(tuple(value), weight)
        assert element_from_obj(roundtrip_json(element_to_obj(e))) == e

    @settings(max_examples=100, deadline=None)
    @given(
        lo=finite,
        width=st.floats(0.001, 1e6),
        threshold=st.integers(1, 10**9),
        unbounded=st.booleans(),
    )
    def test_query_roundtrip(self, lo, width, threshold, unbounded):
        iv = Interval.at_least(lo) if unbounded else Interval.closed(lo, lo + width)
        q = Query(Rect([iv]), threshold, query_id="prop-q")
        back = query_from_obj(roundtrip_json(query_to_obj(q)))
        assert (back.rect, back.threshold, back.query_id) == (
            q.rect,
            q.threshold,
            q.query_id,
        )


class TestSnapshotWithPendingColumnarDeltas:
    """Checkpoints taken right after a batched descent are exact.

    A batched descent adds its weight to the int64 counter store that
    every reader uses (there is no deferred copy to settle), so a
    snapshot taken immediately after ``process_batch`` must round-trip
    to the same W(q) and the same future events.
    """

    @pytest.mark.parametrize("engine", ["dt", "dt-static"])
    def test_roundtrip_mid_batched_run(self, engine):
        from repro import RTSSystem

        def fresh():
            system = RTSSystem(dims=1, engine=engine)
            for i in range(6):
                lo = 10 * i
                system.register(
                    Query([(lo, lo + 25)], 10_000, query_id=f"q{i}")
                )
            return system

        elements = [
            StreamElement(float((7 * k) % 60), weight=1 + k % 5)
            for k in range(192)
        ]

        system = fresh()
        system.process_batch(elements[:128])

        snap = roundtrip_json(system.snapshot())
        restored = RTSSystem.restore(snap)

        reference = fresh()
        reference.process_batch(elements[:128])
        for q in [f"q{i}" for i in range(6)]:
            assert restored.engine.collected_weight(q) == (
                reference.engine.collected_weight(q)
            )

        tail_restored = [
            (e.query.query_id, e.timestamp, e.weight_seen)
            for e in restored.process_batch(elements[128:])
        ]
        tail_reference = [
            (e.query.query_id, e.timestamp, e.weight_seen)
            for e in reference.process_batch(elements[128:])
        ]
        assert tail_restored == tail_reference


class TestWorkloadScriptPersistence:
    def test_save_load_replays_identically(self, tmp_path):
        from repro import RTSSystem
        from repro.streams.scale import paper_params
        from repro.streams.workload import WorkloadScript, build_stochastic_workload

        script = build_stochastic_workload(
            paper_params(dims=2, scale=25000), seed=9, p_ins=0.4
        )
        path = tmp_path / "workload.json"
        script.save(path)
        loaded = WorkloadScript.load(path)
        assert loaded.mode == script.mode
        assert loaded.params == script.params
        assert loaded.expected_maturities == script.expected_maturities
        assert loaded.operation_count() == script.operation_count()
        loaded.verify(RTSSystem(dims=2, engine="dt"))

    def test_load_rejects_foreign_files(self, tmp_path):
        from repro.streams.workload import WorkloadScript

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="rts-workload-v1"):
            WorkloadScript.load(path)
