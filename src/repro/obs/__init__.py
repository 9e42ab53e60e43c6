"""repro.obs — unified observability: metrics, traces, lifecycle spans.

A dependency-free telemetry layer every engine, the DT simulation, and
the experiment harness emit into:

* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms with Prometheus-style text exposition and JSON export;
* :data:`CATALOG` (:mod:`repro.obs.catalog`) — the central declaration
  of every metric name, its buckets, and its aggregation policies;
* :mod:`repro.obs.aggregate` — the ``rts-metrics-v1`` snapshot/delta
  wire format that carries shard-worker registries back to the parent
  (counters sum, gauges resolve by policy, histograms merge bucket-wise);
* :class:`TraceLog` / :class:`TraceEvent` — structured events in a
  bounded ring buffer, including cross-process spans
  (:class:`SpanContext` propagates through executors and DT messages);
* :class:`SpanStore` / :class:`QuerySpan` — per-query lifecycle spans
  (register → DT rounds → final phase → maturity/terminate);
* :class:`PhaseProfiler` — route/pack/descend/merge/recover wall-clock
  timers feeding ``rts_phase_seconds``;
* :class:`Observability` — the facade bundling all of it behind the
  catalog-driven ``inc`` / ``set`` / ``observe`` and a few named hooks
  that also write trace events or spans, and :data:`NULL_OBS`, the shared
  disabled sink (no emit methods; every emit sits behind
  ``if obs.enabled:``) that engines hold when observability is off (the
  default).

Enable it per system::

    from repro import RTSSystem
    from repro.obs import Observability

    obs = Observability()
    system = RTSSystem(dims=1, observability=obs)
    ...
    print(obs.metrics.to_prometheus())

See ``docs/OBSERVABILITY.md`` for the metric catalogue, the trace
schema, and the cross-process aggregation protocol.
"""

from .aggregate import (
    METRICS_FORMAT,
    deterministic_totals,
    merge_into,
    registry_snapshot,
    snapshot_delta,
)
from .catalog import CATALOG, LATENCY_BUCKETS, MetricSpec, TIME_BUCKETS, spec_for
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, POW2_BUCKETS
from .observer import NULL_OBS, NullObservability, Observability
from .profiler import PHASES, PhaseProfiler
from .trace import QuerySpan, SpanContext, SpanStore, TraceEvent, TraceLog

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "METRICS_FORMAT",
    "MetricSpec",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObservability",
    "Observability",
    "PHASES",
    "PhaseProfiler",
    "POW2_BUCKETS",
    "QuerySpan",
    "SpanContext",
    "SpanStore",
    "TIME_BUCKETS",
    "TraceEvent",
    "TraceLog",
    "deterministic_totals",
    "merge_into",
    "registry_snapshot",
    "snapshot_delta",
    "spec_for",
]
