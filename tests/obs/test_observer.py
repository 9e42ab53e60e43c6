"""Unit tests for the Observability facade and the null sink."""

import json

import pytest

from repro.obs import NULL_OBS, NullObservability, Observability


class TestNullObservability:
    def test_disabled_and_stateless(self):
        assert NULL_OBS.enabled is False
        assert not hasattr(NULL_OBS, "__dict__")  # __slots__ = (): no state

    def test_describes_itself_as_disabled(self):
        assert NullObservability().describe() == {"enabled": False}


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
        obs.inc("rts_dt_messages_total", type="signal")
        obs.inc("rts_dt_messages_total", 4, type="slack")
        obs.inc("rts_dt_messages_total", type="signal")
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


class TestGenericEmits:
    def test_inc_set_observe(self):
        obs = Observability()
        obs.inc("rts_batch_bisections_total")
        obs.inc("rts_batch_bisections_total", 2)
        obs.inc("rts_shard_elements_total", 5, shard="1")
        obs.set("rts_shard_skew_ratio", 1.5)
        obs.observe("rts_phase_seconds", 0.25, phase="route")
        m = obs.metrics
        assert m.value("rts_batch_bisections_total") == 3
        assert m.value("rts_shard_elements_total", shard="1") == 5
        assert m.value("rts_shard_skew_ratio") == 1.5
        phase = m.to_json()["rts_phase_seconds"]["samples"]
        assert phase == [
            {
                "labels": {"phase": "route"},
                "buckets": phase[0]["buckets"],
                "sum": 0.25,
                "count": 1,
            }
        ]

    def test_help_and_buckets_come_from_the_catalog(self):
        from repro.obs import CATALOG

        obs = Observability()
        obs.inc("rts_shard_restarts_total", shard="0")
        obs.observe("rts_phase_seconds", 1.0, phase="pack")
        text = obs.metrics.to_prometheus()
        for name in ("rts_shard_restarts_total", "rts_phase_seconds"):
            assert f"# HELP {name} {CATALOG[name].help}" in text
        (fam,) = [f for f in obs.metrics.families() if f.name == "rts_phase_seconds"]
        assert fam.buckets == CATALOG["rts_phase_seconds"].buckets

    @pytest.mark.parametrize(
        "call",
        [
            lambda o: o.inc("rts_nope_total"),
            lambda o: o.inc("rts_alive_queries"),  # a gauge
            lambda o: o.set("rts_elements_total", 3),  # a counter
            lambda o: o.observe("rts_elements_total", 1.0),
            lambda o: o.inc("rts_dt_messages_total"),  # missing its label
            lambda o: o.inc("rts_elements_total", shard="0"),  # extra label
        ],
    )
    def test_undeclared_name_kind_or_labels_raise(self, call):
        obs = Observability()
        before = obs.metrics.to_json()
        with pytest.raises(ValueError):
            call(obs)
        assert obs.metrics.to_json() == before

    def test_preregisters_every_catalog_family(self):
        from repro.obs import CATALOG

        names = {f.name for f in Observability().metrics.families()}
        assert names == set(CATALOG)


class TestWorkCounterCatalog:
    def test_every_work_counter_field_has_its_family(self):
        from repro.core.engine import WorkCounters
        from repro.obs import CATALOG

        for field in WorkCounters.__slots__:
            spec = CATALOG[f"rts_work_{field}"]
            assert spec.kind == "gauge" and spec.labels == ()
            assert spec.gauge_policy == "last" and spec.deterministic
