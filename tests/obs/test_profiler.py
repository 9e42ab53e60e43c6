"""Phase profiler + the observer's span hooks and worker-slice telemetry."""

from repro.obs import NULL_OBS, Observability, PHASES, PhaseProfiler
from repro.obs.aggregate import family_histogram
from repro.obs.trace import SpanContext


class TestPhaseProfiler:
    def test_phases_cover_the_pipeline(self):
        assert PHASES == ("route", "pack", "descend", "merge", "recover")

    def test_null_obs_profiler_is_inert(self):
        prof = PhaseProfiler(NULL_OBS)
        assert not prof.enabled
        started = prof.start()
        assert started == 0.0  # no clock read on the disabled path
        prof.stop("route", started)  # must not raise

    def test_stop_records_into_phase_histogram(self):
        obs = Observability()
        prof = PhaseProfiler(obs)
        assert prof.enabled
        started = prof.start()
        assert started > 0.0
        prof.stop("route", started)
        combined = family_histogram(obs.metrics, "rts_phase_seconds", phase="route")
        assert combined is not None and combined[0].count == 1

    def test_record_external_duration(self):
        obs = Observability()
        prof = PhaseProfiler(obs)
        prof.record("descend", 0.25)
        combined = family_histogram(
            obs.metrics, "rts_phase_seconds", phase="descend"
        )
        assert combined is not None
        assert combined[0].sum == 0.25


class TestSpanHooks:
    def test_new_span_root_and_child(self):
        obs = Observability()
        root = obs.new_span()
        child = obs.new_span(root)
        assert root.parent_id is None
        assert root.trace_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_span_context_wire_round_trip(self):
        ctx = SpanContext(trace_id=3, span_id=9, parent_id=3)
        assert SpanContext.from_wire(ctx.to_wire()) == ctx

    def test_span_logs_trace_event(self):
        obs = Observability()
        ctx = obs.new_span()
        obs.span("unit.test", ctx, duration=0.5, shard=2)
        events = [e for e in obs.trace.events() if e.kind == "span"]
        assert len(events) == 1
        fields = events[0].fields
        assert fields["name"] == "unit.test"
        assert fields["trace_id"] == ctx.trace_id
        assert fields["span_id"] == ctx.span_id
        assert fields["duration_s"] == 0.5
        assert fields["shard"] == 2


class TestWorkerBatchHook:
    def test_counts_batches_and_busy_seconds(self):
        from repro.shard.telemetry import observe_slice

        obs = Observability()
        _, prev = observe_slice(obs, None, 100, 0.5, None)
        observe_slice(obs, prev, 50, 0.25, None)
        assert obs.metrics.value("rts_shard_worker_batches_total") == 2
        assert obs.metrics.value("rts_shard_worker_busy_seconds") == 0.75


class TestMaturityWallClock:
    def test_matured_query_observes_wall_latency(self):
        obs = Observability()
        obs.query_registered("q1", 0)
        obs.query_matured("q1", 5, 10)
        combined = family_histogram(obs.metrics, "rts_maturity_latency_seconds")
        assert combined is not None and combined[0].count == 1

    def test_terminated_query_records_nothing(self):
        obs = Observability()
        obs.query_registered("q1", 0)
        obs.query_terminated("q1", 3)
        combined = family_histogram(obs.metrics, "rts_maturity_latency_seconds")
        assert combined is None or combined[0].count == 0
