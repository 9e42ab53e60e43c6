# rtscheck: disable-file=det-wallclock (wall-latency telemetry is this
# module's purpose; every timed metric is cataloged deterministic=False
# and excluded from the executor-equivalence totals)
"""The :class:`Observability` facade engines emit into.

One object bundles the three telemetry surfaces of this package — a
:class:`~repro.obs.metrics.MetricsRegistry`, a structured
:class:`~repro.obs.trace.TraceLog`, and a per-query
:class:`~repro.obs.trace.SpanStore`.  Plain metric updates go through
three catalog-driven methods, ``inc`` / ``set`` / ``observe``, which
take a family name from :data:`~repro.obs.catalog.CATALOG` and its
labels.  Named hooks (``query_registered``, ``dt_round_end``,
``rebuild``, ...) remain only where an update also writes a span or a
trace event, or moves the facade's clock.

Zero cost when disabled
-----------------------
The default sink everywhere is :data:`NULL_OBS`, a shared
:class:`NullObservability` whose ``enabled`` flag is False and which has
no emit methods at all.  Every emit call sits behind ``if obs.enabled:``
(the ``unguarded-obs`` lint rule enforces it), so the disabled cost is a
single attribute check.

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

Every catalog family is pre-registered at construction, so exposition
metadata, bucket bounds, and merge policies are identical in every
process — the invariant the cross-process aggregation protocol
(:mod:`repro.obs.aggregate`) is built on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence

from .catalog import CATALOG
from .metrics import MetricsRegistry
from .trace import SpanContext, SpanStore, TraceLog


class NullObservability:
    """Shared disabled sink: ``enabled`` is False and nothing else is
    callable but :meth:`describe`.  Emit calls are guarded by
    ``if obs.enabled:`` and never reach this object."""

    __slots__ = ()
    enabled = False

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
        "_instruments",
        "_wall_registered",
        "_span_seq",
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
        #: ``(kind, name, *label items)`` -> instrument: the one cache
        #: every emit resolves through.
        self._instruments: Dict[object, object] = {}
        #: query id -> perf_counter() at registration (end-to-end wall
        #: latency; dropped on terminate).
        self._wall_registered: Dict[object, float] = {}
        self._span_seq = 0
        # Labelled families and gauges are declared: metadata without a
        # stale sample (a level nobody set has no value, and a zero one
        # would ride every shard reply).  Unlabelled counters and
        # histograms get their instrument eagerly.
        for spec in CATALOG.values():
            if spec.labels or spec.kind == "gauge":
                self.metrics.declare(
                    spec.name, spec.kind, spec.help, buckets=spec.buckets
                )
            else:
                self._get(spec.name, spec.kind, {})

    # -- catalog-driven emits ----------------------------------------------

    def inc(self, name: str, n=1, **labels) -> None:
        """Add ``n`` to the counter family ``name`` at ``labels``."""
        self._get(name, "counter", labels).inc(n)

    def set(self, name: str, value, **labels) -> None:
        """Set the gauge family ``name`` at ``labels`` to ``value``."""
        self._get(name, "gauge", labels).set(value)

    def observe(self, name: str, value, **labels) -> None:
        """Record ``value`` in the histogram family ``name`` at ``labels``."""
        self._get(name, "histogram", labels).observe(value)

    def _get(self, name: str, kind: str, labels):
        key = (kind, name, *labels.items())
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = self._resolve(name, kind, labels)
        return instrument

    def _resolve(self, name: str, kind: str, labels):
        spec = CATALOG.get(name)
        if spec is None:
            raise ValueError(f"metric {name!r} is not declared in the catalog")
        if spec.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {spec.kind} in the catalog, not a {kind}"
            )
        if set(labels) != set(spec.labels):
            raise ValueError(
                f"metric {name!r} takes labels {sorted(spec.labels)}, "
                f"got {sorted(labels)}"
            )
        m = self.metrics
        if kind == "counter":
            return m.counter(name, spec.help, **labels)
        if kind == "gauge":
            return m.gauge(name, spec.help, **labels)
        return m.histogram(name, spec.buckets, spec.help, **labels)

    # -- clocking / stream ------------------------------------------------

    @property
    def now(self) -> int:
        """The facade's view of the current arrival index."""
        return self._now

    def element_processed(self, ts: int, weight: int) -> None:
        self._now = ts
        self.inc("rts_elements_total")
        self.inc("rts_element_weight_total", weight)

    def batch_processed(self, ts: int, n: int, weight: int) -> None:
        """A whole batch entered through ``process_batch``.

        ``ts`` is the arrival index of the batch's *last* element;
        interior trace events therefore carry batch-granular timestamps
        (maturity events keep exact per-element ones — they are stamped
        explicitly).
        """
        self._now = ts
        self.inc("rts_elements_total", n)
        self.inc("rts_element_weight_total", weight)
        self.inc("rts_batch_elements_total", n)

    # -- query lifecycle ---------------------------------------------------

    def query_registered(self, query_id: object, ts: int) -> None:
        self._now = max(self._now, ts)
        self.inc("rts_queries_registered_total")
        self._get("rts_alive_queries", "gauge", {}).inc()
        self._wall_registered[query_id] = perf_counter()
        self.spans.open(query_id, ts)

    def query_matured(self, query_id: object, ts: int, weight_seen: int) -> None:
        self.inc("rts_queries_matured_total")
        self._get("rts_alive_queries", "gauge", {}).dec()
        started = self._wall_registered.pop(query_id, None)
        if started is not None:
            self.observe("rts_maturity_latency_seconds", perf_counter() - started)
        span = self.spans.close(query_id, ts, "matured", weight_seen=weight_seen)
        if span is not None:
            self.observe("rts_maturity_latency_elements", span.latency)
        self.trace.append(
            "query.matured", ts=ts, query_id=query_id, weight_seen=weight_seen
        )

    def query_terminated(self, query_id: object, ts: int) -> None:
        self.inc("rts_queries_terminated_total")
        self._get("rts_alive_queries", "gauge", {}).dec()
        self._wall_registered.pop(query_id, None)
        self.spans.close(query_id, ts, "terminated")
        self.trace.append("query.terminated", ts=ts, query_id=query_id)

    # -- robustness / supervision ------------------------------------------

    def ingest_quarantined(self, where: str, n: int = 1) -> None:
        """A malformed stream record was skipped (``on_error='skip'``)."""
        self.inc("rts_ingest_quarantined_total", n, adapter=where)
        self.trace.append("ingest.quarantined", ts=self._now, adapter=where, n=n)

    def shard_restart(self, shard: int) -> None:
        """The supervisor restarted a dead or unresponsive shard worker."""
        self.inc("rts_shard_restarts_total", shard=str(shard))
        self.trace.append("shard.restart", ts=self._now, shard=shard)

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

    # -- distributed tracking ----------------------------------------------

    def dt_slack(self, query_id: object, lam: int, h: int) -> None:
        self.inc("rts_dt_slack_announcements_total")
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
        self.inc("rts_dt_slack_announcements_total", len(query_ids))
        self.inc("rts_dt_messages_total", messages, type="slack")
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
        self.inc("rts_dt_rounds_total")
        self.observe("rts_dt_round_remaining_tau", remaining)
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
            self.observe("rts_dt_round_length_elements", max(0, self._now - started))
            span.last_round_at = self._now
            span.add_event(event)

    def dt_final_phase(self, query_id: object, remaining: int) -> None:
        self.inc("rts_dt_final_phase_total")
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
        self.inc("rts_rebuilds_total", kind=kind)
        self.observe("rts_rebuild_queries", queries)
        if heap_entries is not None:
            self.set("rts_tree_heap_entries", heap_entries)
        self.trace.append(
            "structure.rebuild", ts=self._now, rebuild_kind=kind, queries=queries
        )

    def logmethod_merge(self, slot: int, queries: int) -> None:
        self.inc("rts_logmethod_merges_total")
        self.observe("rts_logmethod_merge_queries", queries)
        self.trace.append(
            "logmethod.merge", ts=self._now, slot=slot, queries=queries
        )

    # -- exporting ---------------------------------------------------------

    def sync_work_counters(self, counters) -> None:
        """Mirror an engine's :class:`WorkCounters` into the cataloged
        ``rts_work_<field>`` gauges."""
        for name, value in counters.snapshot().items():
            self.set("rts_work_" + name, value)

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
