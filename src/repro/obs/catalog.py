"""Central metric catalog: the single source of truth for metric names.

Every metric the repo emits is declared here once — name, kind, help
text, histogram buckets, and the policies the cross-process aggregation
layer (:mod:`repro.obs.aggregate`) needs:

* ``gauge_policy`` — how a gauge sample resolves when a merge delivers a
  value for a label set that already exists (``"last"`` overwrites,
  ``"max"`` keeps the peak, ``"sum"`` accumulates);
* ``deterministic`` — whether the metric's value is a pure function of
  the operation sequence.  Wall-clock metrics (busy seconds, phase
  timers) are excluded from the metric-conservation contract that the
  serial and parallel shard executors must satisfy bit-for-bit.

Declaring buckets here is what makes bucket-wise histogram merging
sound: two registries can only merge a histogram family when both used
the catalog's bounds, and :func:`repro.obs.aggregate.merge_into`
enforces that.  The ``undeclared-metric`` lint rule (``tools/rtslint``)
closes the loop: a ``counter(``/``gauge(``/``histogram(`` call with a
literal name outside this catalog fails lint, so the catalog cannot
silently drift from the code.

Names follow the Prometheus convention: ``rts_`` prefix, ``_total``
suffix for counters, base-unit suffixes (``_seconds``) for timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Maturity-detection latency buckets, in arrival-index units (powers of
#: two up to ~1M elements cover every workload scale this repo runs).
LATENCY_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(0, 21))

#: Rebuild / merge size buckets (queries involved).
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(0, 21))

#: Wall-clock duration buckets: powers of four from 1 microsecond to
#: ~67 seconds (14 bounds).  Used by the phase profiler and the
#: end-to-end maturity-latency timer.
TIME_BUCKETS: Tuple[float, ...] = tuple(1e-6 * (4 ** i) for i in range(14))


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry (see the module docstring for field semantics)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    #: Histogram bucket upper bounds; None for counters/gauges.
    buckets: Optional[Tuple[float, ...]] = None
    #: Documented label names ("" entries mean the family is unlabelled
    #: at the source; aggregation may still add a ``shard`` label).
    labels: Tuple[str, ...] = ()
    #: Gauge merge policy: "last", "max", or "sum".
    gauge_policy: str = "last"
    #: False for wall-clock metrics (excluded from conservation checks).
    deterministic: bool = True


_SPECS: Tuple[MetricSpec, ...] = (
    # -- stream ingestion --------------------------------------------------
    MetricSpec("rts_elements_total", "counter", "Stream elements processed"),
    MetricSpec(
        "rts_element_weight_total", "counter", "Total element weight processed"
    ),
    MetricSpec(
        "rts_batch_elements_total",
        "counter",
        "Stream elements ingested through the batched fast path",
    ),
    MetricSpec(
        "rts_batch_bisections_total",
        "counter",
        "Batch splits at a crossing: an element at which some node's "
        "counter reaches its heap minimum",
    ),
    MetricSpec(
        "rts_columnar_descents_total",
        "counter",
        "Batch ranges bulk-applied: each prefix before a crossing and "
        "each batch's quiet rest",
    ),
    MetricSpec(
        "rts_columnar_fallbacks_total",
        "counter",
        "Crossing elements replayed through the scalar per-element path",
    ),
    # -- query lifecycle ---------------------------------------------------
    MetricSpec("rts_queries_registered_total", "counter", "Queries registered"),
    MetricSpec("rts_queries_matured_total", "counter", "Queries matured"),
    MetricSpec(
        "rts_queries_terminated_total", "counter", "Queries explicitly terminated"
    ),
    # "last", not "sum": a shard's delta re-delivers this level on every
    # batch reply, and the per-shard label set must *replace*, not
    # accumulate ("sum" only suits one-shot fan-in folds).
    MetricSpec(
        "rts_alive_queries",
        "gauge",
        "Currently alive queries (m_alive)",
    ),
    MetricSpec(
        "rts_maturity_latency_elements",
        "histogram",
        "Maturity-detection latency in arrival-index units",
        buckets=LATENCY_BUCKETS,
    ),
    MetricSpec(
        "rts_maturity_latency_seconds",
        "histogram",
        "End-to-end wall-clock latency from REGISTER to maturity",
        buckets=TIME_BUCKETS,
        deterministic=False,
    ),
    # -- distributed tracking ----------------------------------------------
    MetricSpec(
        "rts_dt_rounds_total", "counter", "DT round transitions across all queries"
    ),
    MetricSpec(
        "rts_dt_slack_announcements_total", "counter", "DT slack announcements"
    ),
    MetricSpec(
        "rts_dt_final_phase_total", "counter", "DT switches to the final phase"
    ),
    MetricSpec(
        "rts_dt_round_remaining_tau",
        "histogram",
        "Remaining threshold tau' at each DT round end",
        buckets=LATENCY_BUCKETS,
    ),
    MetricSpec(
        "rts_dt_round_length_elements",
        "histogram",
        "Arrival-index span of each completed DT round",
        buckets=LATENCY_BUCKETS,
    ),
    MetricSpec(
        "rts_dt_messages_total",
        "counter",
        "Simulated DT protocol messages, by type",
        labels=("type",),
    ),
    # -- robustness --------------------------------------------------------
    MetricSpec(
        "rts_transport_events_total",
        "counter",
        "Transport-layer fault and recovery events, by kind",
        labels=("event",),
    ),
    MetricSpec(
        "rts_ingest_quarantined_total",
        "counter",
        "Malformed stream records skipped under on_error='skip', by adapter",
        labels=("adapter",),
    ),
    # -- sharding ----------------------------------------------------------
    MetricSpec(
        "rts_shard_elements_total",
        "counter",
        "Elements routed to each shard of a sharded system",
        labels=("shard",),
    ),
    MetricSpec(
        "rts_shard_skew_ratio",
        "gauge",
        "Routing balance: max shard load over mean shard load (1.0 = even)",
        gauge_policy="max",
    ),
    MetricSpec(
        "rts_shard_worker_batches_total",
        "counter",
        "Routed slices processed inside shard workers",
    ),
    MetricSpec(
        "rts_shard_worker_busy_seconds",
        "counter",
        "Wall time spent inside shard workers' process_batch",
        deterministic=False,
    ),
    # -- shard supervision -------------------------------------------------
    # Fault-schedule dependent (and wall-clock driven for timeouts), so
    # excluded from the serial-vs-parallel conservation contract.
    MetricSpec(
        "rts_shard_restarts_total",
        "counter",
        "Supervised shard worker restarts (crash or hang escalation)",
        labels=("shard",),
        deterministic=False,
    ),
    MetricSpec(
        "rts_shard_rpc_timeouts_total",
        "counter",
        "Supervised shard RPC deadline expiries, by operation",
        labels=("shard", "op"),
        deterministic=False,
    ),
    MetricSpec(
        "rts_shard_replayed_batches_total",
        "counter",
        "Journaled batches replayed into restarted shard workers",
        labels=("shard",),
        deterministic=False,
    ),
    # -- phase profiler ----------------------------------------------------
    MetricSpec(
        "rts_phase_seconds",
        "histogram",
        "Wall-clock duration of router/worker phases, by phase",
        buckets=TIME_BUCKETS,
        labels=("phase",),
        deterministic=False,
    ),
    # -- structure maintenance ---------------------------------------------
    MetricSpec(
        "rts_rebuilds_total", "counter", "Structure rebuilds, by kind", labels=("kind",)
    ),
    MetricSpec(
        "rts_rebuild_queries",
        "histogram",
        "Alive queries per rebuild",
        buckets=SIZE_BUCKETS,
    ),
    MetricSpec(
        "rts_logmethod_merges_total", "counter", "Logarithmic-method merges"
    ),
    MetricSpec(
        "rts_logmethod_merge_queries",
        "histogram",
        "Queries merged into the target slot per merge",
        buckets=SIZE_BUCKETS,
    ),
    MetricSpec(
        "rts_tree_heap_entries", "gauge", "Heap entries after the latest rebuild"
    ),
)

#: name -> spec for every declared metric.
CATALOG: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}

#: Engine work counters are mirrored as ``rts_work_<counter>`` gauges
#: with dynamically generated names; any name under this prefix is
#: treated as a declared deterministic gauge.
DYNAMIC_GAUGE_PREFIX = "rts_work_"

_DYNAMIC_SPEC = MetricSpec(
    DYNAMIC_GAUGE_PREFIX + "*", "gauge", "Mirrored engine work counter",
    gauge_policy="last",
)


def spec_for(name: str) -> Optional[MetricSpec]:
    """The catalog entry for ``name`` (prefix-matched for ``rts_work_*``)."""
    spec = CATALOG.get(name)
    if spec is None and name.startswith(DYNAMIC_GAUGE_PREFIX):
        return _DYNAMIC_SPEC
    return spec


__all__ = [
    "CATALOG",
    "DYNAMIC_GAUGE_PREFIX",
    "LATENCY_BUCKETS",
    "MetricSpec",
    "SIZE_BUCKETS",
    "TIME_BUCKETS",
    "spec_for",
]
