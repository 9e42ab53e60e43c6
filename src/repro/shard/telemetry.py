"""Shard-side telemetry plumbing shared by the executor backends.

Both executor backends — the in-process :class:`SerialExecutor` and the
worker processes behind :class:`ParallelExecutor` — hold one private
:class:`~repro.obs.Observability` per shard when the parent system is
observed.  After each routed slice the shard computes an
``rts-metrics-v1`` *delta* of its registry (plus a span record for the
``descend`` phase) and piggybacks it on the batch reply; the router
merges it into the parent registry under a ``shard`` label.  Keeping
the logic here makes the serial and parallel paths byte-identical,
which is what the metric-conservation contract of
``docs/OBSERVABILITY.md`` rests on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs.aggregate import registry_snapshot, snapshot_delta
from ..obs.trace import SpanContext

#: Keys of a piggybacked telemetry payload.
#:   "metrics" — rts-metrics-v1 delta of the shard registry;
#:   "span"    — descend-phase span record (absent on pull-only drains).
TelemetryPayload = Dict[str, object]


def observe_slice(
    obs,
    prev_snapshot: Optional[dict],
    n_elements: int,
    busy_seconds: float,
    trace,
) -> Tuple[TelemetryPayload, dict]:
    """Record one routed slice into ``obs`` and build the reply payload.

    ``trace`` is the router's batch span context in wire form (or None);
    the shard's ``descend`` span is recorded locally as its child and
    echoed in the payload so the router can log it in the parent trace.
    Returns ``(payload, new_prev_snapshot)``.
    """
    span_record = None
    if obs.enabled:
        obs.inc("rts_shard_worker_batches_total")
        obs.inc("rts_shard_worker_busy_seconds", busy_seconds)
        obs.observe("rts_phase_seconds", busy_seconds, phase="descend")
        if trace is not None:
            ctx = obs.new_span(SpanContext.from_wire(trace))
            obs.span(
                "shard.descend", ctx, duration=busy_seconds, elements=n_elements
            )
            span_record = {
                "trace": ctx.to_wire(),
                "duration": busy_seconds,
                "elements": n_elements,
            }
    snap = registry_snapshot(obs.metrics)
    payload: TelemetryPayload = {
        "metrics": snapshot_delta(snap, prev_snapshot),
    }
    if span_record is not None:
        payload["span"] = span_record
    return payload, snap


def drain(obs, prev_snapshot: Optional[dict]) -> Tuple[TelemetryPayload, dict]:
    """Pull-only delta (no slice ran): registration/termination counts
    that accrued since the last batch reply.  Returns
    ``(payload, new_prev_snapshot)``."""
    snap = registry_snapshot(obs.metrics)
    return {"metrics": snapshot_delta(snap, prev_snapshot)}, snap


__all__ = ["TelemetryPayload", "drain", "observe_slice"]
