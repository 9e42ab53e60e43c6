"""Unit tests for :class:`repro.shard.system.ShardedRTSSystem`.

The cross-engine determinism contract lives in
``tests/property/test_shard_equivalence.py``; this module covers the
router's own surface: validation, ownership bookkeeping, lifecycle,
telemetry, snapshots, and the sanitizer integration.
"""

import json

import pytest

from repro import Query, RTSSystem, StreamElement
from repro.core.query import QueryStatus
from repro.core.system import make_engine
from repro.obs import Observability
from repro.shard import (
    SHARD_SNAPSHOT_FORMAT,
    ShardedRTSSystem,
    SpatialGridPolicy,
)


def _q(lo, hi, tau, qid):
    return Query([(lo, hi)], tau, query_id=qid)


class TestConstruction:
    def test_rejects_engine_instances(self):
        engine = make_engine("dt", 1)
        with pytest.raises(TypeError, match="registry name"):
            ShardedRTSSystem(engine=engine)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="positive integer"):
            ShardedRTSSystem(shards=0)

    def test_policy_options_feed_named_policy(self):
        with ShardedRTSSystem(
            shards=2, policy="spatial-grid", policy_options={"domain": (0, 100)}
        ) as system:
            assert system.policy.boundaries == [50.0]

    def test_repr_mentions_configuration(self):
        with ShardedRTSSystem(shards=3, engine="baseline") as system:
            text = repr(system)
            assert "shards=3" in text and "baseline" in text


class TestRegistration:
    def test_register_forms_match_rtssystem(self):
        with ShardedRTSSystem(shards=2) as system:
            q1 = system.register([(0, 10)], 5, query_id="a")
            q2 = system.register(_q(5, 15, 3, "b"))
            assert system.status(q1) is QueryStatus.ALIVE
            assert system.status("b") is QueryStatus.ALIVE
            assert system.alive_count == 2
            assert {system.shard_of(q1), system.shard_of(q2)} == {0, 1}

    def test_register_query_plus_threshold_rejected(self):
        with ShardedRTSSystem(shards=2) as system:
            with pytest.raises(ValueError, match="not both"):
                system.register(_q(0, 10, 5, "a"), 5)

    def test_duplicate_ids_rejected_across_and_within_batches(self):
        with ShardedRTSSystem(shards=2) as system:
            system.register(_q(0, 10, 5, "a"))
            with pytest.raises(ValueError, match="already used"):
                system.register(_q(0, 10, 5, "a"))
            with pytest.raises(ValueError, match="already used"):
                system.register_batch([_q(0, 5, 1, "b"), _q(5, 9, 1, "b")])
            # The failed batch must not leave partial state behind.
            assert system.alive_count == 1

    def test_invalid_threshold_rejected_like_unsharded(self):
        with ShardedRTSSystem(shards=2) as system:
            with pytest.raises(ValueError):
                system.register([(0, 10)], 0)

    def test_non_query_in_batch_rejected(self):
        with ShardedRTSSystem(shards=2) as system:
            with pytest.raises(TypeError, match="Query objects"):
                system.register_batch(["nope"])


class TestProcessing:
    def test_maturity_matches_unsharded(self):
        queries = [_q(0, 20, 6, "low"), _q(50, 80, 4, "high"), _q(0, 100, 9, "wide")]
        values = [5, 60, 10, 70, 55, 95, 15, 3, 77]
        reference = RTSSystem(dims=1, engine="dt")
        reference.register_batch(queries)
        expected = [
            (e.query.query_id, e.timestamp, e.weight_seen)
            for v in values
            for e in reference.process(StreamElement(v, 2))
        ]
        with ShardedRTSSystem(
            shards=2, policy="spatial-grid", policy_options={"domain": (0, 100)}
        ) as system:
            system.register_batch(queries)
            got = [
                (e.query.query_id, e.timestamp, e.weight_seen)
                for v in values
                for e in system.process(StreamElement(v, 2))
            ]
        assert got == expected

    def test_matured_query_leaves_ownership(self):
        with ShardedRTSSystem(shards=2) as system:
            system.register(_q(0, 10, 2, "a"))
            events = system.process_batch([1, 2])
            assert [e.query.query_id for e in events] == ["a"]
            assert system.status("a") is QueryStatus.MATURED
            assert system.maturity_time("a") == 2
            assert system.alive_count == 0
            with pytest.raises(KeyError):
                system.shard_of("a")

    def test_progress_reports_owner_shard_weight(self):
        with ShardedRTSSystem(shards=2) as system:
            system.register(_q(0, 10, 100, "a"))
            system.process_batch([StreamElement(5, 7), StreamElement(50, 3)])
            assert system.progress("a") == (7, 100)
            assert system.now == 2

    def test_empty_batch_is_noop(self):
        with ShardedRTSSystem(shards=2) as system:
            system.register(_q(0, 10, 5, "a"))
            assert system.process_batch([]) == []
            assert system.now == 0

    def test_on_maturity_callback_fires_merged_order(self):
        fired = []
        with ShardedRTSSystem(shards=3) as system:
            system.on_maturity(lambda e: fired.append(e.query.query_id))
            # Registration order b, a: simultaneous maturities must come
            # back in registration (not alphabetical or shard) order.
            system.register_batch([_q(0, 10, 2, "b"), _q(0, 10, 2, "a")])
            system.process_batch([StreamElement(5, 2)])
        assert fired == ["b", "a"]


class TestTermination:
    def test_terminate_batch_flags(self):
        with ShardedRTSSystem(shards=2) as system:
            system.register_batch([_q(0, 10, 5, "a"), _q(0, 10, 2, "b")])
            system.process(StreamElement(5, 2))  # matures b
            flags = system.terminate_batch(["a", "b", "missing", "a"])
            assert flags == [True, False, False, False]
            assert system.status("a") is QueryStatus.TERMINATED
            assert system.status("b") is QueryStatus.MATURED
            assert system.alive_count == 0

    def test_terminated_query_collects_nothing(self):
        with ShardedRTSSystem(shards=2) as system:
            q = system.register(_q(0, 10, 3, "a"))
            assert system.terminate(q) is True
            assert system.process_batch([1, 2, 3]) == []


class TestTelemetry:
    def test_shard_metrics_emitted(self):
        obs = Observability()
        with ShardedRTSSystem(
            shards=2,
            policy="spatial-grid",
            policy_options={"domain": (0, 100)},
            observability=obs,
        ) as system:
            system.register_batch([_q(0, 40, 99, "lo"), _q(60, 100, 99, "hi")])
            system.process_batch([10, 20, 70, 15])
        assert obs.metrics.value("rts_shard_elements_total", shard="0") == 3
        assert obs.metrics.value("rts_shard_elements_total", shard="1") == 1
        # Skew = peak * shards / total routed.
        assert obs.metrics.value("rts_shard_skew_ratio") == pytest.approx(6 / 4)
        assert system.elements_routed == [3, 1]

    def test_describe_and_work_counters(self):
        with ShardedRTSSystem(shards=2, engine="baseline") as system:
            system.register_batch([_q(0, 10, 99, "a"), _q(0, 10, 99, "b")])
            system.process_batch([5, 6])
            info = system.describe()
            assert info["system"] == "sharded"
            assert info["shards"] == 2
            assert len(info["shard_describes"]) == 2
            totals = system.aggregate_work_counters()
            assert sum(totals.values()) > 0

    def test_spatial_routing_prunes_elements(self):
        with ShardedRTSSystem(
            shards=2, policy="spatial-grid", policy_options={"domain": (0, 100)}
        ) as system:
            system.register_batch([_q(0, 10, 99, "lo"), _q(90, 100, 99, "hi")])
            system.process_batch([5, 95, 50])
            # The mid-domain element stabs neither extent: routed nowhere.
            assert sum(system.elements_routed) == 2


class TestSnapshot:
    def test_snapshot_restore_round_trip(self):
        with ShardedRTSSystem(
            shards=2, policy="spatial-grid", policy_options={"domain": (0, 100)}
        ) as system:
            system.register_batch(
                [_q(0, 30, 3, "a"), _q(70, 100, 3, "b"), _q(0, 100, 2, "c")]
            )
            system.process_batch([10, 80])  # matures c
            snap = json.loads(json.dumps(system.snapshot()))
        assert snap["format"] == SHARD_SNAPSHOT_FORMAT
        restored = ShardedRTSSystem.restore(snap)
        try:
            assert restored.now == 2
            assert restored.status("c") is QueryStatus.MATURED
            assert restored.maturity_time("c") == 2
            assert restored.alive_count == 2
            assert restored.shard_of("a") != restored.shard_of("b")
            events = restored.process_batch([11, 12, 81, 82])
            keys = [(e.query.query_id, e.timestamp) for e in events]
            assert keys == [("a", 4), ("b", 6)]
        finally:
            restored.close()

    def test_restore_rejects_other_formats(self):
        with pytest.raises(ValueError, match="rts-shard-snapshot-v1"):
            ShardedRTSSystem.restore({"format": "rts-snapshot-v1"})


class TestSanitize:
    def test_full_level_passes_on_mixed_workload(self):
        with ShardedRTSSystem(
            shards=2,
            policy="spatial-grid",
            policy_options={"domain": (0, 100)},
            sanitize="full",
        ) as system:
            system.register_batch([_q(0, 40, 3, "a"), _q(60, 100, 2, "b")])
            system.process_batch([10, 70, 20, 75])
            system.terminate("a")
            system.process_batch([30])

    def test_detects_ownership_corruption(self):
        from repro.sanitize import SanitizeError, check

        with ShardedRTSSystem(shards=2, sanitize=False) as system:
            system.register_batch([_q(0, 10, 5, "a"), _q(0, 10, 5, "b")])
            system._owner["ghost"] = 0
            with pytest.raises(SanitizeError, match="shard-partition-coverage"):
                check(system, level="basic")


class TestRejectedWeightsKeepTheClock:
    """An ingest the engines reject takes no tick, as in RTSSystem."""

    HEAVY = 2**63

    def _pair(self):
        single = RTSSystem(dims=1, engine="dt")
        sharded = ShardedRTSSystem(
            shards=2,
            policy="spatial-grid",
            policy_options={"domain": (0, 100)},
            executor="serial",
        )
        for system in (single, sharded):
            system.register(_q(0, 40, 2, "low"))
            system.register(_q(60, 100, 3, "high"))
        return single, sharded

    def _drive(self, system):
        log = []

        def attempt(call, *args):
            try:
                log.extend((e.query.query_id, e.timestamp, e.weight_seen) for e in call(*args))
            except Exception as exc:  # the same rejection on both sides
                log.append(type(exc).__name__)
            log.append(("now", system.now))

        attempt(system.process, StreamElement(5.0, 1))
        attempt(system.process, StreamElement(70.0, self.HEAVY))  # routed, rejected
        attempt(system.process, StreamElement(500.0, self.HEAVY))  # routes nowhere
        attempt(system.process_batch, [StreamElement(6.0, 1), StreamElement(65.0, self.HEAVY)])
        attempt(system.process, StreamElement(7.0, 1))  # "low" matures at t=2
        attempt(system.process_batch, [StreamElement(61.0, 1)] * 3)
        return log

    def test_events_and_now_match_the_unsharded_system(self):
        single, sharded = self._pair()
        with sharded:
            want = self._drive(single)
            got = self._drive(sharded)
        assert got == want
        assert ("low", 2, 2) in got
        assert want[-1] == ("now", 5)
