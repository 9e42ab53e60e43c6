"""Unit tests for the Observability facade and the null sink."""

import json

import pytest

from repro.obs import NULL_OBS, NullObservability, Observability


class TestNullObservability:
    def test_disabled_and_stateless(self):
        assert NULL_OBS.enabled is False
        assert not hasattr(NULL_OBS, "__dict__")  # __slots__ = (): no state

    def test_every_hook_is_a_noop(self):
        obs = NullObservability()
        obs.element_processed(1, 2)
        obs.query_registered("q", 0)
        obs.query_matured("q", 5, 100)
        obs.query_terminated("q", 5)
        obs.dt_messages("signal")
        obs.dt_slack("q", 3, 4)
        obs.dt_round_end("q", 1, 10, 90)
        obs.dt_final_phase("q", 5)
        obs.dt_participant_mode(0, "slack")
        obs.rebuild("halved", 10)
        obs.logmethod_merge(2, 4)
        obs.sync_work_counters(None)
        assert obs.describe() == {"enabled": False}


class TestObservability:
    def test_is_a_drop_in_for_the_null_sink(self):
        assert isinstance(Observability(), NullObservability)
        assert Observability().enabled is True

    def test_element_processing_advances_the_clock(self):
        obs = Observability()
        obs.element_processed(1, 10)
        obs.element_processed(2, 5)
        assert obs.now == 2
        assert obs.metrics.value("rts_elements_total") == 2
        assert obs.metrics.value("rts_element_weight_total") == 15

    def test_query_lifecycle_span_and_latency(self):
        obs = Observability()
        obs.query_registered("q", 3)
        assert obs.metrics.value("rts_alive_queries") == 1
        obs.query_matured("q", 10, weight_seen=500)
        assert obs.metrics.value("rts_alive_queries") == 0
        assert obs.metrics.value("rts_queries_matured_total") == 1
        (span,) = obs.spans.finished("matured")
        assert span.latency == 7 and span.weight_seen == 500
        hist = obs.metrics.to_json()["rts_maturity_latency_elements"]
        assert hist["samples"][0]["count"] == 1
        assert hist["samples"][0]["sum"] == 7

    def test_termination(self):
        obs = Observability()
        obs.query_registered("q", 0)
        obs.query_terminated("q", 4)
        assert obs.metrics.value("rts_queries_terminated_total") == 1
        (span,) = obs.spans.finished("terminated")
        assert span.ended_at == 4

    def test_dt_hooks_stamp_the_current_arrival_index(self):
        obs = Observability()
        obs.query_registered("q", 0)
        obs.element_processed(7, 1)
        obs.dt_round_end("q", round_no=1, collected=40, remaining=60)
        obs.element_processed(12, 1)
        obs.dt_round_end("q", round_no=2, collected=70, remaining=30)
        obs.dt_final_phase("q", remaining=5)
        events = obs.trace.events("dt.round_end")
        assert [e.ts for e in events] == [7, 12]
        assert obs.metrics.value("rts_dt_rounds_total") == 2
        span = obs.spans.get("q")
        assert span.rounds == 2 and span.final_phase_at == 12
        # round lengths: 7-0 then 12-7
        lengths = obs.metrics.to_json()["rts_dt_round_length_elements"]
        assert lengths["samples"][0]["sum"] == 12

    def test_dt_messages_per_type(self):
        obs = Observability()
        obs.dt_messages("signal")
        obs.dt_messages("slack", 4)
        obs.dt_messages("signal")
        assert obs.metrics.value("rts_dt_messages_total", type="signal") == 2
        assert obs.metrics.value("rts_dt_messages_total", type="slack") == 4
        assert obs.metrics.family_total("rts_dt_messages_total") == 6

    def test_slack_announcement_lands_on_the_span(self):
        obs = Observability()
        obs.query_registered("q", 0)
        obs.dt_slack("q", lam=12, h=4)
        assert obs.metrics.value("rts_dt_slack_announcements_total") == 1
        (event,) = obs.spans.get("q").events
        assert event.kind == "dt.slack" and event.fields["lam"] == 12

    def test_one_slack_event_per_tree_build(self):
        from repro import Query, RTSSystem

        obs = Observability()
        system = RTSSystem(dims=1, engine="dt", observability=obs)
        # Three open a normal round (tau > 6h), one starts in its final
        # phase, one is inert (an empty region).
        queries = [Query([(i, i + 20.5)], 10**6, query_id=i) for i in range(3)]
        queries += [Query([(0, 1)], 2, query_id="final"), Query([(5, 4)], 9, query_id="inert")]
        system.register_batch(queries)
        (event,) = obs.trace.events("dt.slack")
        (tree,) = [t for t in system.engine._trees if t is not None]
        hs = [tree.qptr[s + 1] - tree.qptr[s] for s in range(3)]
        assert event.fields == {"queries": 3, "h": sum(hs)}
        assert obs.metrics.value("rts_dt_slack_announcements_total") == 3
        assert obs.metrics.value("rts_dt_messages_total", type="slack") == sum(hs)
        for qid in range(3):
            assert event in obs.spans.get(qid).events
        assert event not in obs.spans.get("final").events
        # The next build (a one-query tree) emits one event of its own.
        system.register(Query([(50, 60)], 10**6, query_id="late"))
        assert len(obs.trace.events("dt.slack")) == 2

    def test_rebuild_and_merge(self):
        obs = Observability()
        obs.rebuild("halved", queries=8, heap_entries=120)
        obs.logmethod_merge(slot=3, queries=4)
        assert obs.metrics.value("rts_rebuilds_total", kind="halved") == 1
        assert obs.metrics.value("rts_tree_heap_entries") == 120
        assert obs.metrics.value("rts_logmethod_merges_total") == 1
        (ev,) = obs.trace.events("structure.rebuild")
        assert ev.fields["rebuild_kind"] == "halved"

    def test_sync_work_counters(self):
        from repro.core.engine import WorkCounters

        counters = WorkCounters()
        counters.messages += 9
        obs = Observability()
        obs.sync_work_counters(counters)
        assert obs.metrics.value("rts_work_messages") == 9

    def test_describe_and_report(self):
        obs = Observability()
        obs.query_registered("q", 0)
        obs.dt_slack("q", 1, 1)
        desc = obs.describe()
        assert desc["enabled"] is True
        assert desc["spans_active"] == 1
        assert desc["trace_events"] == 1
        report = obs.report()
        json.dumps({k: v for k, v in report.items() if k != "prometheus"})
        assert set(report) == {"prometheus", "metrics", "spans", "trace"}
        assert "rts_queries_registered_total 1" in report["prometheus"]

    def test_shared_registry(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        a = Observability(metrics=reg)
        b = Observability(metrics=reg)
        a.element_processed(1, 1)
        b.element_processed(2, 1)
        assert reg.value("rts_elements_total") == 2

    def test_bounded_retention_parameters(self):
        obs = Observability(trace_capacity=2, span_capacity=1)
        for i in range(5):
            obs.dt_participant_mode(i, "slack")
        assert len(obs.trace) == 2 and obs.trace.dropped == 3
        for i in range(3):
            obs.query_registered(i, i)
            obs.query_terminated(i, i)
        assert obs.spans.finished_count == 1
