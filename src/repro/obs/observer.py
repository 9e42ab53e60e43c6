# rtscheck: disable-file=det-wallclock (wall-latency telemetry is this
# module's purpose; every timed metric is cataloged deterministic=False
# and excluded from the executor-equivalence totals)
"""The :class:`Observability` facade engines emit into.

One object bundles the three telemetry surfaces of this package — a
:class:`~repro.obs.metrics.MetricsRegistry`, a structured
:class:`~repro.obs.trace.TraceLog`, and a per-query
:class:`~repro.obs.trace.SpanStore` — behind domain-specific hook methods
(``query_registered``, ``dt_round_end``, ``rebuild``, ...), so the
instrumented code never touches metric names or event schemas directly.

Zero cost when disabled
-----------------------
The default sink everywhere is :data:`NULL_OBS`, a shared
:class:`NullObservability` whose hooks are empty methods and whose
``enabled`` flag is False.  Hot paths guard with ``if obs.enabled:`` so
the disabled cost is a single attribute check — the tier-1 benchmarks see
no measurable difference.

Clocking
--------
The facade keeps the current *arrival index* (updated by
``element_processed``), so interior hooks — which fire deep inside engine
code that has no notion of the system clock — stamp their events with the
right logical time automatically.  The one deliberate exception is the
pair of wall-clock surfaces this layer owns (the phase profiler's
``rts_phase_seconds`` and the end-to-end ``rts_maturity_latency_seconds``):
they measure the implementation, not the algorithm, and the catalog marks
them non-deterministic so conservation checks skip them.

Metric declarations come from the central catalog
(:mod:`repro.obs.catalog`): every family is pre-registered at
construction, so exposition metadata, bucket bounds, and merge policies
are identical in every process — the invariant the cross-process
aggregation protocol (:mod:`repro.obs.aggregate`) is built on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence

from .catalog import CATALOG, LATENCY_BUCKETS, SIZE_BUCKETS, TIME_BUCKETS
from .metrics import MetricsRegistry
from .trace import SpanContext, SpanStore, TraceLog


class NullObservability:
    """Shared no-op sink: every hook is an empty method.

    Instrumented code may freely call any hook on this object; the only
    cost is the call itself, and hot paths skip even that by checking
    :attr:`enabled` first.
    """

    __slots__ = ()
    enabled = False

    def element_processed(self, ts: int, weight: int) -> None:
        pass

    def batch_processed(self, ts: int, n: int, weight: int) -> None:
        pass

    def batch_bisected(self, span: int) -> None:
        pass

    def columnar_descent(self, span: int) -> None:
        pass

    def columnar_fallback(self, span: int) -> None:
        pass

    def query_registered(self, query_id: object, ts: int) -> None:
        pass

    def query_matured(self, query_id: object, ts: int, weight_seen: int) -> None:
        pass

    def query_terminated(self, query_id: object, ts: int) -> None:
        pass

    def dt_messages(self, mtype: str, n: int = 1) -> None:
        pass

    def dt_slack(self, query_id: object, lam: int, h: int) -> None:
        pass

    def dt_slack_opened(self, query_ids: Sequence[object], messages: int) -> None:
        pass

    def dt_round_end(
        self, query_id: object, round_no: int, collected: int, remaining: int
    ) -> None:
        pass

    def dt_final_phase(self, query_id: object, remaining: int) -> None:
        pass

    def dt_participant_mode(self, index: int, mode: str) -> None:
        pass

    def ingest_quarantined(self, where: str, n: int = 1) -> None:
        pass

    def shard_elements(self, shard: int, n: int) -> None:
        pass

    def shard_skew(self, ratio: float) -> None:
        pass

    def shard_worker_batch(self, n: int, busy_seconds: float) -> None:
        pass

    def shard_restart(self, shard: int) -> None:
        pass

    def shard_rpc_timeout(self, shard: int, op: str) -> None:
        pass

    def shard_replayed(self, shard: int, n: int = 1) -> None:
        pass

    def phase(self, name: str, seconds: float) -> None:
        pass

    def new_span(self, parent: Optional[SpanContext] = None) -> Optional[SpanContext]:
        return None

    def span(self, name: str, ctx, duration: Optional[float] = None, **fields):
        return None

    def rebuild(self, kind: str, queries: int, heap_entries: Optional[int] = None) -> None:
        pass

    def logmethod_merge(self, slot: int, queries: int) -> None:
        pass

    def sync_work_counters(self, counters) -> None:
        pass

    def describe(self) -> Dict[str, object]:
        return {"enabled": False}

    def __repr__(self) -> str:
        return "NullObservability()"


#: The process-wide disabled sink (stateless, safe to share).
NULL_OBS = NullObservability()


class Observability(NullObservability):
    """Live telemetry sink: metrics + trace ring buffer + query spans.

    Parameters
    ----------
    metrics:
        Bring-your-own registry (e.g. shared across several systems);
        a fresh one is created by default.
    trace_capacity / span_capacity:
        Ring-buffer retention bounds (events / finished spans).
    """

    __slots__ = (
        "metrics",
        "trace",
        "spans",
        "_now",
        "_msg_counters",
        "_slack_counter",
        "_quarantine_counters",
        "_shard_counters",
        "_phase_hists",
        "_wall_registered",
        "_span_seq",
        "_worker_batches",
        "_worker_busy",
        "_maturity_wall_hist",
    )
    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace_capacity: int = 4096,
        span_capacity: int = 1024,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = TraceLog(trace_capacity)
        self.spans = SpanStore(span_capacity)
        self._now = 0
        #: message-type -> Counter cache, so the per-message hot path is a
        #: dict lookup instead of a registry get-or-create.
        self._msg_counters: Dict[str, object] = {}
        self._slack_counter = None  # the slack-announcement counter, cached
        #: Same caching pattern for ingest quarantine, shard routing,
        #: and the phase profiler's histograms.
        self._quarantine_counters: Dict[str, object] = {}
        self._shard_counters: Dict[int, object] = {}
        self._phase_hists: Dict[str, object] = {}
        #: query id -> perf_counter() at registration (end-to-end wall
        #: latency; dropped on terminate).
        self._wall_registered: Dict[object, float] = {}
        self._span_seq = 0
        m = self.metrics
        # Every family comes from the central catalog: labelled families
        # are declared (metadata without a stale zero sample), unlabelled
        # ones get their instrument eagerly so hooks can cache it.
        for spec in CATALOG.values():
            if spec.labels:
                m.declare(spec.name, spec.kind, spec.help, buckets=spec.buckets)
            elif spec.kind == "counter":
                m.counter(spec.name, spec.help)
            elif spec.kind == "gauge":
                m.gauge(spec.name, spec.help)
            else:
                m.histogram(spec.name, spec.buckets, spec.help)
        self._worker_batches = m.counter("rts_shard_worker_batches_total")
        self._worker_busy = m.counter("rts_shard_worker_busy_seconds")
        self._maturity_wall_hist = m.histogram(
            "rts_maturity_latency_seconds", TIME_BUCKETS
        )

    # -- clocking / stream ------------------------------------------------

    @property
    def now(self) -> int:
        """The facade's view of the current arrival index."""
        return self._now

    def element_processed(self, ts: int, weight: int) -> None:
        self._now = ts
        self.metrics.counter("rts_elements_total").inc()
        self.metrics.counter("rts_element_weight_total").inc(weight)

    def batch_processed(self, ts: int, n: int, weight: int) -> None:
        """A whole batch entered through ``process_batch``.

        ``ts`` is the arrival index of the batch's *last* element;
        interior trace events therefore carry batch-granular timestamps
        (maturity events keep exact per-element ones — they are stamped
        explicitly).
        """
        self._now = ts
        self.metrics.counter("rts_elements_total").inc(n)
        self.metrics.counter("rts_element_weight_total").inc(weight)
        self.metrics.counter("rts_batch_elements_total").inc(n)

    def batch_bisected(self, span: int) -> None:
        """The ``span`` elements left of a batch were split at a
        crossing (one call per crossing element)."""
        self.metrics.counter("rts_batch_bisections_total").inc()

    def columnar_descent(self, span: int) -> None:
        """A batch range of ``span`` elements was bulk-applied: the prefix
        before a crossing, or the quiet rest of a batch."""
        self.metrics.counter("rts_columnar_descents_total").inc()

    def columnar_fallback(self, span: int) -> None:
        """``span`` crossing elements (always one) were drained one at a
        time, between bulk-applied ranges."""
        self.metrics.counter("rts_columnar_fallbacks_total").inc()

    # -- query lifecycle ---------------------------------------------------

    def query_registered(self, query_id: object, ts: int) -> None:
        self._now = max(self._now, ts)
        self.metrics.counter("rts_queries_registered_total").inc()
        self.metrics.gauge("rts_alive_queries").inc()
        self._wall_registered[query_id] = perf_counter()
        self.spans.open(query_id, ts)

    def query_matured(self, query_id: object, ts: int, weight_seen: int) -> None:
        self.metrics.counter("rts_queries_matured_total").inc()
        self.metrics.gauge("rts_alive_queries").dec()
        started = self._wall_registered.pop(query_id, None)
        if started is not None:
            self._maturity_wall_hist.observe(perf_counter() - started)
        span = self.spans.close(query_id, ts, "matured", weight_seen=weight_seen)
        if span is not None:
            self.metrics.histogram(
                "rts_maturity_latency_elements", LATENCY_BUCKETS
            ).observe(span.latency)
        self.trace.append(
            "query.matured", ts=ts, query_id=query_id, weight_seen=weight_seen
        )

    def query_terminated(self, query_id: object, ts: int) -> None:
        self.metrics.counter("rts_queries_terminated_total").inc()
        self.metrics.gauge("rts_alive_queries").dec()
        self._wall_registered.pop(query_id, None)
        self.spans.close(query_id, ts, "terminated")
        self.trace.append("query.terminated", ts=ts, query_id=query_id)

    # -- distributed tracking ----------------------------------------------

    def dt_messages(self, mtype: str, n: int = 1) -> None:
        counter = self._msg_counters.get(mtype)
        if counter is None:
            counter = self.metrics.counter(
                "rts_dt_messages_total",
                "Simulated DT protocol messages, by type",
                type=mtype,
            )
            self._msg_counters[mtype] = counter
        counter.inc(n)

    def ingest_quarantined(self, where: str, n: int = 1) -> None:
        """A malformed stream record was skipped (``on_error='skip'``)."""
        counter = self._quarantine_counters.get(where)
        if counter is None:
            counter = self.metrics.counter(
                "rts_ingest_quarantined_total",
                "Malformed stream records skipped under on_error='skip', by adapter",
                adapter=where,
            )
            self._quarantine_counters[where] = counter
        counter.inc(n)
        self.trace.append("ingest.quarantined", ts=self._now, adapter=where, n=n)

    def shard_elements(self, shard: int, n: int) -> None:
        """``n`` elements of a routed batch landed on ``shard``."""
        counter = self._shard_counters.get(shard)
        if counter is None:
            counter = self.metrics.counter(
                "rts_shard_elements_total",
                "Elements routed to each shard of a sharded system",
                shard=str(shard),
            )
            self._shard_counters[shard] = counter
        counter.inc(n)

    def shard_skew(self, ratio: float) -> None:
        """Routing balance after a batch: max/mean cumulative shard load."""
        self.metrics.gauge("rts_shard_skew_ratio").set(ratio)

    def shard_worker_batch(self, n: int, busy_seconds: float) -> None:
        """One routed slice of ``n`` elements ran inside this shard worker.

        Emitted by the executor backends (worker process or serial
        in-process shard); the busy-seconds counter is the authoritative
        per-shard accounting the bench reads from the merged registry."""
        self._worker_batches.inc()
        self._worker_busy.inc(busy_seconds)

    # -- shard supervision --------------------------------------------------
    # Cold-path hooks (a restart is an event, not a per-element cost), so
    # they hit the registry directly instead of caching instruments.

    def shard_restart(self, shard: int) -> None:
        """The supervisor restarted a dead or unresponsive shard worker."""
        self.metrics.counter(
            "rts_shard_restarts_total",
            "Supervised shard worker restarts (crash or hang escalation)",
            shard=str(shard),
        ).inc()
        self.trace.append("shard.restart", ts=self._now, shard=shard)

    def shard_rpc_timeout(self, shard: int, op: str) -> None:
        """One supervised RPC wait window expired (retry follows)."""
        self.metrics.counter(
            "rts_shard_rpc_timeouts_total",
            "Supervised shard RPC deadline expiries, by operation",
            shard=str(shard),
            op=op,
        ).inc()

    def shard_replayed(self, shard: int, n: int = 1) -> None:
        """``n`` journaled batches were replayed into a restarted worker."""
        self.metrics.counter(
            "rts_shard_replayed_batches_total",
            "Journaled batches replayed into restarted shard workers",
            shard=str(shard),
        ).inc(n)

    # -- phase profiler ----------------------------------------------------

    def phase(self, name: str, seconds: float) -> None:
        """One timed phase (route/pack/descend/merge/recover) completed.

        Fed by :class:`~repro.obs.profiler.PhaseProfiler`; the histogram
        per phase is cached so the per-batch cost is one dict lookup."""
        hist = self._phase_hists.get(name)
        if hist is None:
            hist = self.metrics.histogram(
                "rts_phase_seconds", TIME_BUCKETS, phase=name
            )
            self._phase_hists[name] = hist
        hist.observe(seconds)

    # -- spans -------------------------------------------------------------

    def new_span(self, parent: Optional[SpanContext] = None) -> SpanContext:
        """Allocate a span context (fresh trace, or a child of ``parent``).

        Ids are process-local monotone integers; contexts cross process
        boundaries via :meth:`SpanContext.to_wire` (see
        ``docs/OBSERVABILITY.md`` for the propagation model)."""
        self._span_seq += 1
        sid = self._span_seq
        if parent is None:
            return SpanContext(trace_id=sid, span_id=sid)
        return SpanContext(
            trace_id=parent.trace_id, span_id=sid, parent_id=parent.span_id
        )

    def span(self, name: str, ctx, duration: Optional[float] = None, **fields):
        """Record one completed span as a structured trace event.

        ``ctx`` may come from :meth:`new_span` or from a remote process
        (a worker's batch reply, a participant's COLLECT echo)."""
        record = {
            "name": name,
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_id": ctx.parent_id,
        }
        if duration is not None:
            record["duration_s"] = duration
        record.update(fields)
        return self.trace.append("span", ts=self._now, **record)

    def dt_slack(self, query_id: object, lam: int, h: int) -> None:
        counter = self._slack_counter
        if counter is None:
            counter = self._slack_counter = self.metrics.counter(
                "rts_dt_slack_announcements_total"
            )
        counter.inc()
        event = self.trace.append(
            "dt.slack", ts=self._now, query_id=query_id, lam=lam, h=h
        )
        span = self.spans.get(query_id)
        if span is not None:
            span.add_event(event)

    def dt_slack_opened(self, query_ids: Sequence[object], messages: int) -> None:
        """A tree build opened a normal round for each of ``query_ids``,
        announcing ``messages`` slacks in all: one ``dt.slack`` event,
        attached to each of those queries' spans."""
        counter = self._slack_counter
        if counter is None:
            counter = self._slack_counter = self.metrics.counter(
                "rts_dt_slack_announcements_total"
            )
        counter.inc(len(query_ids))
        self.dt_messages("slack", messages)
        event = self.trace.append(
            "dt.slack", ts=self._now, queries=len(query_ids), h=messages
        )
        spans = self.spans
        for query_id in query_ids:
            span = spans.get(query_id)
            if span is not None:
                span.add_event(event)

    def dt_round_end(
        self, query_id: object, round_no: int, collected: int, remaining: int
    ) -> None:
        self.metrics.counter("rts_dt_rounds_total").inc()
        self.metrics.histogram(
            "rts_dt_round_remaining_tau", LATENCY_BUCKETS
        ).observe(remaining)
        event = self.trace.append(
            "dt.round_end",
            ts=self._now,
            query_id=query_id,
            round_no=round_no,
            collected=collected,
            remaining=remaining,
        )
        span = self.spans.get(query_id)
        if span is not None:
            span.rounds += 1
            started = span.last_round_at if span.last_round_at is not None else span.registered_at
            self.metrics.histogram(
                "rts_dt_round_length_elements", LATENCY_BUCKETS
            ).observe(max(0, self._now - started))
            span.last_round_at = self._now
            span.add_event(event)

    def dt_final_phase(self, query_id: object, remaining: int) -> None:
        self.metrics.counter("rts_dt_final_phase_total").inc()
        event = self.trace.append(
            "dt.final_phase", ts=self._now, query_id=query_id, remaining=remaining
        )
        span = self.spans.get(query_id)
        if span is not None:
            span.final_phase_at = self._now
            span.add_event(event)

    def dt_participant_mode(self, index: int, mode: str) -> None:
        self.trace.append(
            "dt.participant_mode", ts=self._now, participant=index, mode=mode
        )

    # -- structure maintenance ---------------------------------------------

    def rebuild(self, kind: str, queries: int, heap_entries: Optional[int] = None) -> None:
        self.metrics.counter(
            "rts_rebuilds_total", "Structure rebuilds, by kind", kind=kind
        ).inc()
        self.metrics.histogram("rts_rebuild_queries", SIZE_BUCKETS).observe(queries)
        if heap_entries is not None:
            self.metrics.gauge("rts_tree_heap_entries").set(heap_entries)
        self.trace.append(
            "structure.rebuild", ts=self._now, rebuild_kind=kind, queries=queries
        )

    def logmethod_merge(self, slot: int, queries: int) -> None:
        self.metrics.counter("rts_logmethod_merges_total").inc()
        self.metrics.histogram(
            "rts_logmethod_merge_queries", SIZE_BUCKETS
        ).observe(queries)
        self.trace.append(
            "logmethod.merge", ts=self._now, slot=slot, queries=queries
        )

    # -- exporting ---------------------------------------------------------

    def sync_work_counters(self, counters) -> None:
        """Mirror an engine's :class:`WorkCounters` into ``rts_work_*`` gauges."""
        for name, value in counters.snapshot().items():
            self.metrics.gauge(
                f"rts_work_{name}", f"Engine work counter {name!r}"
            ).set(value)

    def describe(self) -> Dict[str, object]:
        return {
            "enabled": True,
            "metric_instruments": len(self.metrics),
            "trace_events": len(self.trace),
            "trace_dropped": self.trace.dropped,
            "spans_active": self.spans.active_count,
            "spans_finished": self.spans.finished_count,
        }

    def report(self) -> Dict[str, object]:
        """Everything at once: Prometheus text, JSON metrics, spans, trace."""
        return {
            "prometheus": self.metrics.to_prometheus(),
            "metrics": self.metrics.to_json(),
            "spans": self.spans.to_json(),
            "trace": self.trace.to_json(),
        }

    def __repr__(self) -> str:
        return (
            f"Observability(metrics={len(self.metrics)}, "
            f"trace={len(self.trace)}, spans={self.spans!r})"
        )
