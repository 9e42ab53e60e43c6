"""Shard worker: the code that runs inside a parallel shard process.

Each shard of a :class:`~repro.shard.system.ShardedRTSSystem` under the
:class:`~repro.shard.executor.ParallelExecutor` (either its
``"parallel"`` or its ``"supervised"`` preset) is a persistent child
process holding one resident :class:`~repro.core.system.RTSSystem`.  The
pool is sized to exactly one worker, so every call for a shard lands in
the same process and the engine state never crosses the boundary — only
the :mod:`~repro.shard.wire` payloads do.

All functions here are module-level (picklable by reference) and operate
on the process-global ``_SYSTEM``; the pool initializer installs it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .wire import EventKey, decode_elements, decode_queries

#: The resident shard system of this worker process.
_SYSTEM = None
#: The worker's private Observability when the parent is observed.
_OBS = None
#: Registry snapshot at the last piggybacked delta (rts-metrics-v1).
_PREV = None
#: Parsed in-worker fault schedule (supervision tests / chaos harness).
_FAULTS = None


def init_shard(config: dict, snapshot: Optional[dict] = None) -> None:
    """Pool initializer: build (or restore) this worker's shard system."""
    global _SYSTEM, _OBS, _PREV, _FAULTS
    from ..core.system import RTSSystem
    from ..obs.observer import Observability

    _OBS = Observability() if config.get("observe") else None
    _PREV = None
    faults = config.get("faults")
    if faults:
        _FAULTS = {
            "crash": frozenset(faults.get("crash", ())),
            "hang": frozenset(faults.get("hang", ())),
            "slow": frozenset(faults.get("slow", ())),
            "hang_seconds": float(faults.get("hang_seconds", 3600.0)),
            "slow_seconds": float(faults.get("slow_seconds", 0.05)),
        }
    else:
        _FAULTS = None
    if snapshot is not None:
        _SYSTEM = RTSSystem.restore(
            snapshot, observability=_OBS, sanitize=config.get("sanitize")
        )
        return
    _SYSTEM = RTSSystem(
        dims=config["dims"],
        engine=config["engine"],
        observability=_OBS,
        sanitize=config.get("sanitize"),
        **config.get("engine_options", {}),
    )


def register(query_objs: List[dict]) -> int:
    """Register wire-coded queries; returns the shard's alive count."""
    _SYSTEM.register_batch(decode_queries(query_objs))
    return _SYSTEM.alive_count


def _maybe_fault(tick: Optional[int]) -> None:
    """Fire a scheduled fault for this fresh-batch ordinal, if any.

    ``tick`` is None for replayed batches, so faults only ever fire on
    fresh work — recovery can never re-trigger the fault that caused it.
    """
    if tick is None or _FAULTS is None:
        return
    if tick in _FAULTS["crash"]:
        import os

        # Hard exit, no interpreter cleanup: from the parent's point of
        # view this is indistinguishable from a segfaulted worker.
        os._exit(70)
    if tick in _FAULTS["hang"]:
        time.sleep(_FAULTS["hang_seconds"])
    elif tick in _FAULTS["slow"]:
        time.sleep(_FAULTS["slow_seconds"])


def process(
    values,
    weights,
    timestamps: List[int],
    trace: Optional[tuple] = None,
    fault_tick: Optional[int] = None,
) -> Tuple[List[EventKey], float, Optional[dict]]:
    """Process one routed slice; return (event keys, busy seconds, telemetry).

    The slice runs on the shard's compact local clock; event timestamps
    are remapped to the global arrival indices in ``timestamps`` before
    they go back on the wire.  When this worker is observed, the third
    element is the piggybacked ``rts-metrics-v1`` registry delta plus the
    descend-phase span record (child of the router's ``trace`` context).

    ``fault_tick`` is the executor's fresh-batch ordinal for this
    shard; it keys the seeded fault schedule and is None on replay.
    """
    _maybe_fault(fault_tick)
    # Busy-time telemetry (deterministic=False metric family).
    start = time.perf_counter()  # rtscheck: disable=det-wallclock
    from ..core.batch import PreparedBatch

    # The shard's engines descend straight off the wire arrays.
    prepared = PreparedBatch.from_arrays(decode_elements(values, weights), values, weights)
    base = _SYSTEM.now
    events = _SYSTEM.process_batch(prepared)
    keys = [
        (e.query.query_id, timestamps[e.timestamp - base - 1], e.weight_seen)
        for e in events
    ]
    busy = time.perf_counter() - start  # rtscheck: disable=det-wallclock
    payload = None
    if _OBS is not None:
        global _PREV
        from .telemetry import observe_slice

        payload, _PREV = observe_slice(_OBS, _PREV, len(timestamps), busy, trace)
    return keys, busy, payload


def drain_telemetry() -> Optional[dict]:
    """Pull the registry delta accrued since the last batch reply."""
    global _PREV
    if _OBS is None:
        return None
    from .telemetry import drain

    payload, _PREV = drain(_OBS, _PREV)
    return payload


def terminate(query_ids: List[object]) -> int:
    """Bulk-terminate owned queries; returns how many were removed."""
    return sum(_SYSTEM.terminate_batch(query_ids))


def collected_weight(query_id: object) -> int:
    """Exact ``W(q)`` for an alive owned query."""
    return _SYSTEM.progress(query_id)[0]


def snapshot() -> dict:
    """The shard's ``rts-snapshot-v1`` checkpoint blob."""
    return _SYSTEM.snapshot()


def describe() -> Dict[str, object]:
    """Shard diagnostics (engine describe payload)."""
    return _SYSTEM.describe()
