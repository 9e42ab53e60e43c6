"""Chaos harness: replay workloads under seeded fault schedules.

Two attack surfaces, one acceptance bar (see ``docs/ROBUSTNESS.md``):

**System level** — :func:`run_system_chaos` drives a workload script
through a :class:`~repro.core.recovery.DurableSystem`, checkpointing
periodically and "crashing" at seeded element positions.  A crash is
simulated faithfully: the only state carried across it is the last
checkpoint and the write-ahead log, both round-tripped through
``json.dumps``/``json.loads`` exactly as a durable store would hold
them.  After recovery the run continues, and at the end the observed
maturities must equal the workload's vectorised oracle element for
element — same query ids, same timestamps, same ``W(q)``.

**Shard level** — :func:`run_shard_chaos` drives the same workload
script through a sharded system twice: once on the in-process
:class:`~repro.shard.executor.SerialExecutor` (the fault-free oracle),
once on a :class:`~repro.shard.supervisor.SupervisedExecutor` whose
workers crash at seeded per-shard batch ordinals
(:class:`~repro.shard.supervisor.ShardFaultPlan`).  The supervised run
must emit the identical ordered maturity-event sequence, restart
exactly once per injected crash, and replay without orphan events.

Every fault schedule derives from one integer seed, so a CI failure is
replayable locally with the same flags.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.recovery import DurableSystem
from ..core.system import RTSSystem, available_engines
from ..sanitize import SanitizeError
from ..shard.errors import ShardError
from ..shard.supervisor import ShardFaultPlan, SupervisedExecutor
from ..shard.system import ShardedRTSSystem
from ..streams.workload import ELEMENT, REGISTER, REGISTER_BATCH, WorkloadScript

__all__ = [
    "ShardChaosResult",
    "SystemChaosResult",
    "run_shard_chaos",
    "run_system_chaos",
]


@dataclass(slots=True)
class SystemChaosResult:
    """Outcome of one engine's crash/recover replay of a workload."""

    engine: str
    status: str  # "ok" | "skipped" | "diverged" | "violations"
    crashes: int = 0
    checkpoints: int = 0
    replayed_ops: int = 0  # WAL entries re-applied across all recoveries
    maturities: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "skipped")


@dataclass(slots=True)
class ShardChaosResult:
    """Outcome of one engine×shard-count supervised crash/replay run."""

    engine: str
    shards: int
    status: str  # "ok" | "skipped" | "diverged" | "restart-mismatch"
    #              | "orphans" | "violations" | "failed"
    crashes: int = 0  # injected crash points
    restarts: int = 0  # restarts the supervisor actually performed
    replayed: int = 0  # journaled batches replayed into restarted workers
    batches: int = 0  # element batches the script produced
    maturities: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "skipped")


def _pick_crash_points(
    script: WorkloadScript, crashes: int, rng: random.Random
) -> List[int]:
    """Seeded element-event indices after which the system crashes."""
    element_idx = [
        i for i, (kind, _payload) in enumerate(script.events) if kind == ELEMENT
    ]
    if not element_idx or crashes <= 0:
        return []
    return sorted(rng.sample(element_idx, min(crashes, len(element_idx))))


def run_system_chaos(
    script: WorkloadScript,
    engine: str,
    crashes: int = 3,
    checkpoint_every: int = 50,
    seed: int = 0,
    sanitize: Optional[str] = "full",
) -> SystemChaosResult:
    """Replay ``script`` with seeded crash/recover points; verify exactly.

    The durable state at every instant is ``(last checkpoint, WAL)``,
    both JSON round-tripped, so recovery exercises the real
    serialization path.  Maturities observed live and maturities
    re-emitted during WAL replay are merged by query id — replay
    re-derives exactly the events delivered before the crash, so the
    merge is idempotent — then compared against the oracle.
    """
    if engine not in available_engines():
        raise KeyError(
            f"unknown engine {engine!r}; available: {available_engines()}"
        )
    rng = random.Random(seed)
    crash_points = set(_pick_crash_points(script, crashes, rng))
    try:
        system = RTSSystem(dims=script.params.dims, engine=engine, sanitize=sanitize)
    except ValueError as exc:  # engine/dimensionality mismatch
        return SystemChaosResult(engine=engine, status="skipped", detail=str(exc))

    observed: Dict[object, Tuple[int, int]] = {}

    def watch(durable: DurableSystem) -> None:
        durable.on_maturity(
            lambda ev: observed.__setitem__(
                ev.query.query_id, (ev.timestamp, ev.weight_seen)
            )
        )

    durable = DurableSystem(system)
    watch(durable)
    stored_snapshot = json.dumps(durable.checkpoint())
    checkpoints = 1
    crashed = 0
    replayed_ops = 0
    ops_since_checkpoint = 0

    try:
        for idx, (kind, payload) in enumerate(script.events):
            if kind == ELEMENT:
                durable.process(payload)
            elif kind == REGISTER:
                durable.register(payload)
            elif kind == REGISTER_BATCH:
                durable.register_batch(payload)
            else:
                durable.terminate(payload)
            ops_since_checkpoint += 1
            if checkpoint_every and ops_since_checkpoint >= checkpoint_every:
                stored_snapshot = json.dumps(durable.checkpoint())
                checkpoints += 1
                ops_since_checkpoint = 0
            if idx in crash_points:
                # Crash: all in-memory state is gone.  Recover from the
                # stored snapshot + WAL, exactly as a restart would.
                stored_wal = json.dumps(durable.wal.to_obj())
                replayed_ops += len(durable.wal)
                durable = DurableSystem.recover(
                    json.loads(stored_snapshot),
                    json.loads(stored_wal),
                    sanitize=sanitize,
                )
                for ev in durable.replayed_events:
                    observed[ev.query.query_id] = (ev.timestamp, ev.weight_seen)
                watch(durable)
                crashed += 1
    except SanitizeError as exc:
        return SystemChaosResult(
            engine=engine,
            status="violations",
            crashes=crashed,
            checkpoints=checkpoints,
            replayed_ops=replayed_ops,
            detail="; ".join(str(v) for v in exc.violations),
        )

    if observed != script.expected_maturities:
        extra = {
            k: v
            for k, v in observed.items()
            if script.expected_maturities.get(k) != v
        }
        missing = {
            k: v
            for k, v in script.expected_maturities.items()
            if observed.get(k) != v
        }
        return SystemChaosResult(
            engine=engine,
            status="diverged",
            crashes=crashed,
            checkpoints=checkpoints,
            replayed_ops=replayed_ops,
            maturities=len(observed),
            detail=f"wrong/extra={extra!r} missing/expected={missing!r}",
        )
    return SystemChaosResult(
        engine=engine,
        status="ok",
        crashes=crashed,
        checkpoints=checkpoints,
        replayed_ops=replayed_ops,
        maturities=len(observed),
    )


def _script_ops(script: WorkloadScript, batch: int) -> List[Tuple[str, object]]:
    """Group a script's events into drive ops with batched elements.

    Consecutive ``ELEMENT`` events coalesce into ``("chunk", [...])`` ops
    of at most ``batch`` elements; registrations and terminations flush
    the pending chunk first so op order is preserved exactly.
    """
    ops: List[Tuple[str, object]] = []
    pending: List[object] = []

    def flush() -> None:
        if pending:
            ops.append(("chunk", list(pending)))
            pending.clear()

    for kind, payload in script.events:
        if kind == ELEMENT:
            pending.append(payload)
            if len(pending) >= batch:
                flush()
        else:
            flush()
            if kind == REGISTER:
                ops.append(("register_batch", [payload]))
            elif kind == REGISTER_BATCH:
                ops.append(("register_batch", list(payload)))
            else:
                ops.append(("terminate", payload))
    flush()
    return ops


def _drive_sharded(
    system: ShardedRTSSystem, ops: List[Tuple[str, object]]
) -> List[Tuple[object, int, int]]:
    """Apply grouped ops; returns the ordered maturity-event key sequence."""
    keys: List[Tuple[object, int, int]] = []
    for kind, payload in ops:
        if kind == "chunk":
            keys.extend(
                (e.query.query_id, e.timestamp, e.weight_seen)
                for e in system.process_batch(payload)
            )
        elif kind == "register_batch":
            system.register_batch(payload)
        else:
            system.terminate(payload)
    return keys


def run_shard_chaos(
    script: WorkloadScript,
    engine: str,
    shards: int = 2,
    crashes: int = 2,
    batch: int = 32,
    seed: int = 0,
    snapshot_every: int = 4,
    mp_context: Optional[str] = None,
    rpc_timeout: float = 30.0,
    sanitize: Optional[str] = "full",
) -> ShardChaosResult:
    """Supervised crash/replay vs the fault-free serial-executor oracle.

    Crash points are drawn with :meth:`ShardFaultPlan.seeded` over the
    per-shard batch ordinals the round-robin routing will actually
    produce (a shard only receives slices once it owns a query), so
    every scheduled crash fires.  The acceptance bar is exact: the
    supervised run's ordered maturity-event keys must equal the
    oracle's byte for byte, the supervisor must restart exactly
    ``plan.total_crashes`` times, and replay must produce zero orphan
    events.
    """
    if engine not in available_engines():
        raise KeyError(
            f"unknown engine {engine!r}; available: {available_engines()}"
        )
    ops = _script_ops(script, batch)
    batches = sum(1 for kind, _payload in ops if kind == "chunk")
    # Round-robin ownership: the k-th registered query lands on shard
    # k % shards, and extents only ever grow, so shard k sees every
    # element batch from the first moment sequence k was assigned.
    # Crash points are only scheduled on shards that own a query before
    # the first chunk — those receive all `batches` slices.
    initial = 0
    for kind, payload in ops:
        if kind == "chunk":
            break
        if kind == "register_batch":
            initial += len(payload)
    per_shard = [batches if k < initial else 0 for k in range(shards)]
    plan = ShardFaultPlan.seeded(
        shards, batches, crashes=crashes, seed=seed, batches_per_shard=per_shard
    )

    def build(executor) -> ShardedRTSSystem:
        return ShardedRTSSystem(
            dims=script.params.dims,
            engine=engine,
            shards=shards,
            policy="round-robin",
            executor=executor,
            sanitize=sanitize,
        )

    try:
        oracle = build("serial")
    except ValueError as exc:  # engine/dimensionality mismatch
        return ShardChaosResult(
            engine=engine, shards=shards, status="skipped", detail=str(exc)
        )
    with oracle:
        expected = _drive_sharded(oracle, ops)

    supervisor = SupervisedExecutor(
        mp_context=mp_context,
        rpc_timeout=rpc_timeout,
        rpc_retries=1,
        backoff_base=0.0,
        max_restarts=max(plan.total_crashes, 1),
        snapshot_every=snapshot_every,
        faults=plan,
    )
    result = ShardChaosResult(
        engine=engine,
        shards=shards,
        status="ok",
        crashes=plan.total_crashes,
        batches=batches,
    )
    try:
        with build(supervisor) as system:
            observed = _drive_sharded(system, ops)
    except SanitizeError as exc:
        result.status = "violations"
        result.detail = "; ".join(str(v) for v in exc.violations)
        return result
    except ShardError as exc:
        result.status = "failed"
        result.detail = repr(exc)
        return result
    finally:
        result.restarts = supervisor.restarts_total
        result.replayed = supervisor.replayed_total

    result.maturities = len(observed)
    if observed != expected:
        result.status = "diverged"
        extra = [k for k in observed if k not in expected]
        missing = [k for k in expected if k not in observed]
        result.detail = f"extra={extra[:4]!r} missing={missing[:4]!r}"
    elif result.restarts != plan.total_crashes:
        result.status = "restart-mismatch"
        result.detail = (
            f"injected {plan.total_crashes} crashes but the supervisor "
            f"restarted {result.restarts} times"
        )
    elif supervisor.replay_orphans_total:
        result.status = "orphans"
        result.detail = (
            f"{supervisor.replay_orphans_total} replayed events were never "
            "emitted before the crash"
        )
    return result


def chaos_engines(requested: str) -> List[str]:
    """Resolve an ``--engine`` flag value for the chaos target."""
    return available_engines() if requested == "all" else [requested]
