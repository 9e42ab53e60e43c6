"""Shard executors: where the per-shard engines actually run.

The sharded router (:class:`~repro.shard.system.ShardedRTSSystem`) is
executor-agnostic: it routes queries and element slices, and an executor
carries them to ``S`` resident :class:`~repro.core.system.RTSSystem`
instances.

:class:`SerialExecutor`
    Runs every shard in-process, one after the other.  No IPC, no
    processes — this is the *determinism oracle* the parallel executor
    is tested against, and the fastest choice on a single core (where
    sharding still wins through the spatial policy's element pruning).

:class:`ParallelExecutor`
    One persistent single-worker :class:`concurrent.futures.ProcessPoolExecutor`
    per shard.  Sizing each pool to one worker pins a shard's state to
    one process for its whole life, so only :mod:`~repro.shard.wire`
    payloads ever cross the boundary; slices for all shards are submitted
    before any result is awaited, which is what overlaps shard work
    across cores.

Supervision is part of :class:`ParallelExecutor`; its defaults turn
restarts off.  The ``"supervised"`` preset
(:class:`~repro.shard.supervisor.SupervisedExecutor`) turns them on:

* **Deadlines and retry.**  Every worker RPC waits under ``rpc_timeout``
  (None: no deadline).  An expired wait is retried with a deterministic,
  exponentially growing window (``rpc_timeout · 2^attempt``, bounded by
  ``rpc_retries`` extra attempts); exhaustion is a worker death, exactly
  as a ``BrokenProcessPool`` from a crashed worker is.
* **Restart and replay.**  With ``max_restarts > 0`` the executor keeps,
  per shard, a periodic ``rts-snapshot-v1`` checkpoint (every
  ``snapshot_every`` completed batches) plus a parent-side *journal* of
  the operations applied since — routed slices, registrations,
  terminations, in order.  On worker death it rebuilds the pool,
  restores the checkpoint, replays the journal, then re-submits the
  failed call, so the re-submitted batch emits exactly the fault-free
  events.  With ``max_restarts == 0`` no restart can read them, so no
  checkpoint, journal or emitted-key set is kept.
* **Exactly-once.**  Events re-derived *during* replay were already
  emitted before the crash; they are suppressed against a per-shard set
  of emitted event keys.  A replayed event *not* in that set is a replay
  orphan — the sanitizer's ``shard-replay-exactly-once`` invariant
  requires zero.
* **Escalation.**  A death past the restart budget escalates per
  ``on_shard_failure``: ``"fail"`` raises
  :class:`~repro.shard.errors.ShardFailedError` (a
  :class:`~repro.shard.errors.ShardRPCError`, so with restarts off the
  first death surfaces as one); ``"degrade"`` quarantines the shard —
  later slices are dropped with explicit loss accounting (see
  :meth:`ParallelExecutor.supervision`).

Every RPC failure carries shard and operation attribution as a
:class:`~repro.shard.errors.ShardRPCError`.  See ``docs/ROBUSTNESS.md``,
"Shard supervision", for the determinism contract across restarts.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set, Tuple

from ..obs.observer import NULL_OBS
from ..obs.profiler import PhaseProfiler
from . import worker
from .errors import ShardError, ShardFailedError, ShardRPCError
from .wire import EventKey, ShardSlice, encode_queries

#: Per-shard outcome of one routed batch:
#: (event keys, busy seconds, piggybacked telemetry payload or None).
#: The payload is an ``rts-metrics-v1`` registry delta plus a descend
#: span record (:mod:`repro.shard.telemetry`); it is None when the
#: parent system is unobserved.
ShardOutcome = Tuple[List[EventKey], float, Optional[dict]]


class ShardExecutor(abc.ABC):
    """Lifecycle + command surface shared by serial and parallel backends."""

    #: Registry name; recorded as a hint in shard snapshots.
    name: str = "abstract"

    @abc.abstractmethod
    def start(
        self, configs: List[dict], snapshots: Optional[List[dict]] = None
    ) -> None:
        """Bring up one shard per config (optionally restored from blobs).

        ``configs[k]`` holds ``dims``/``engine``/``engine_options``/
        ``sanitize`` for shard ``k``; ``snapshots[k]``, when given, is an
        ``rts-snapshot-v1`` blob the shard resumes from.
        """

    @abc.abstractmethod
    def register(self, shard: int, queries: List) -> None:
        """Register queries on their owner shard."""

    @abc.abstractmethod
    def process(
        self, slices: Dict[int, ShardSlice], trace: Optional[tuple] = None
    ) -> Dict[int, ShardOutcome]:
        """Run one routed batch; returns per-shard events + busy time.

        ``trace`` is the router's batch span context in wire form
        (``SpanContext.to_wire()``); observed shards record their
        ``descend`` span as its child and echo it in the outcome payload.
        """

    def drain_telemetry(self) -> Dict[int, dict]:
        """Pull pending registry deltas from observed shards.

        Covers telemetry that accrued outside a routed batch reply
        (registrations, terminations); returns ``{shard: payload}`` for
        shards that had an observer.  No-op (empty) by default.
        """
        return {}

    @abc.abstractmethod
    def terminate(self, shard: int, query_ids: List[object]) -> int:
        """Bulk-terminate owned queries; returns how many were removed."""

    @abc.abstractmethod
    def collected_weight(self, shard: int, query_id: object) -> int:
        """Exact ``W(q)`` from the owner shard."""

    @abc.abstractmethod
    def snapshot(self, shard: int) -> dict:
        """The shard's ``rts-snapshot-v1`` blob."""

    @abc.abstractmethod
    def describe(self, shard: int) -> Dict[str, object]:
        """Shard diagnostics."""

    def close(self) -> None:
        """Release worker resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(ShardExecutor):
    """All shards in-process: the determinism oracle (no IPC, no pickling)."""

    name = "serial"

    def __init__(self) -> None:
        self.systems: List = []
        self._observers: List = []
        self._prev_snapshots: List = []

    def start(
        self, configs: List[dict], snapshots: Optional[List[dict]] = None
    ) -> None:
        from ..core.system import RTSSystem
        from ..obs.observer import Observability

        self.systems = []
        self._observers = []
        self._prev_snapshots = []
        for k, config in enumerate(configs):
            obs = Observability() if config.get("observe") else None
            if snapshots is not None:
                self.systems.append(
                    RTSSystem.restore(
                        snapshots[k],
                        observability=obs,
                        sanitize=config.get("sanitize"),
                    )
                )
            else:
                self.systems.append(
                    RTSSystem(
                        dims=config["dims"],
                        engine=config["engine"],
                        observability=obs,
                        sanitize=config.get("sanitize"),
                        **config.get("engine_options", {}),
                    )
                )
            self._observers.append(obs)
            self._prev_snapshots.append(None)

    def register(self, shard: int, queries: List) -> None:
        self.systems[shard].register_batch(queries)

    def process(
        self, slices: Dict[int, ShardSlice], trace: Optional[tuple] = None
    ) -> Dict[int, ShardOutcome]:
        from ..core.batch import PreparedBatch
        from .telemetry import observe_slice

        out: Dict[int, ShardOutcome] = {}
        for shard, sl in slices.items():
            system = self.systems[shard]
            # Busy-time telemetry (deterministic=False metric family).
            started = time.perf_counter()  # rtscheck: disable=det-wallclock
            base = system.now
            events = system.process_batch(
                PreparedBatch.from_arrays(sl.elements, sl.values, sl.weights)
            )
            keys = [
                (e.query.query_id, sl.timestamps[e.timestamp - base - 1], e.weight_seen)
                for e in events
            ]
            busy = time.perf_counter() - started  # rtscheck: disable=det-wallclock
            payload = None
            obs = self._observers[shard]
            if obs is not None:
                payload, self._prev_snapshots[shard] = observe_slice(
                    obs, self._prev_snapshots[shard], len(sl.timestamps), busy, trace
                )
            out[shard] = (keys, busy, payload)
        return out

    def drain_telemetry(self) -> Dict[int, dict]:
        from .telemetry import drain

        out: Dict[int, dict] = {}
        for shard, obs in enumerate(self._observers):
            if obs is not None:
                out[shard], self._prev_snapshots[shard] = drain(
                    obs, self._prev_snapshots[shard]
                )
        return out

    def terminate(self, shard: int, query_ids: List[object]) -> int:
        return sum(self.systems[shard].terminate_batch(query_ids))

    def collected_weight(self, shard: int, query_id: object) -> int:
        return self.systems[shard].progress(query_id)[0]

    def snapshot(self, shard: int) -> dict:
        return self.systems[shard].snapshot()

    def describe(self, shard: int) -> Dict[str, object]:
        return self.systems[shard].describe()


class _WorkerDeath(Exception):
    """Internal: a shard worker crashed or stopped answering."""

    def __init__(self, kind: str, cause: BaseException):
        self.kind = kind  # "crash" | "hang"
        self.cause = cause
        super().__init__(f"worker {kind}: {cause!r}")


class _ShardState:
    """Pool and supervision bookkeeping for one shard."""

    __slots__ = (
        "pool",
        "config",
        "base_snapshot",
        "journal",
        "emitted",
        "batches",
        "since_snapshot",
        "restarts",
        "replayed",
        "timeouts",
        "orphans",
        "quarantined",
        "failure",
        "loss",
        "crash_at",
        "hang_at",
        "slow_at",
    )

    def __init__(self, config: dict):
        self.pool = None
        self.config = dict(config)
        #: Last committed rts-snapshot-v1 blob (the restart base).
        self.base_snapshot: Optional[dict] = None
        #: Completed ops since the base snapshot, in application order:
        #: ``(op, worker function, args)``.
        self.journal: List[tuple] = []
        #: Event keys emitted since the base snapshot (replay dedup).
        self.emitted: Set[EventKey] = set()
        #: Fresh-batch ordinal (fault ticks key on this).
        self.batches = 0
        self.since_snapshot = 0
        self.restarts = 0
        self.replayed = 0
        self.timeouts = 0
        #: Replayed events never emitted pre-crash (must stay 0).
        self.orphans = 0
        self.quarantined = False
        self.failure: Optional[str] = None
        #: Explicit loss accounting for a quarantined shard.
        self.loss: Dict[str, int] = {
            "batches": 0,
            "elements": 0,
            "registers": 0,
            "terminates": 0,
        }
        self.crash_at: Set[int] = set()
        self.hang_at: Set[int] = set()
        self.slow_at: Set[int] = set()


def _kill_pool(pool) -> None:
    """Tear down a pool whose worker may be dead or unresponsive."""
    if pool is None:
        return
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:
            pass  # already gone
    pool.shutdown(wait=False, cancel_futures=True)


class ParallelExecutor(ShardExecutor):
    """Persistent worker process per shard, exchanging wire payloads only.

    Parameters
    ----------
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``/``"spawn"``/
        ``"forkserver"``); None uses the platform default.  Fork is the
        cheap option on Linux; spawn is the portable one.
    rpc_timeout:
        Seconds a worker RPC may take before its wait is retried; None
        (the default) disables deadlines (crash detection via
        ``BrokenProcessPool`` still applies).  Each retry doubles the
        window.
    rpc_retries:
        Extra waits after the first expiry before the worker is treated
        as hung.
    backoff_base / backoff_cap:
        Deterministic exponential backoff slept before restart attempt
        ``i``: ``min(backoff_base · 2^(i-1), backoff_cap)`` seconds.
    max_restarts:
        Per-shard restart budget; exceeding it escalates.  The default 0
        turns restarts off: the first worker death escalates, and no
        checkpoint, journal or emitted-key set is kept.
    on_shard_failure:
        ``"fail"`` raises :class:`ShardFailedError`; ``"degrade"``
        quarantines the shard with loss accounting.
    snapshot_every:
        Completed fresh batches between periodic per-shard checkpoints
        (bounds journal length and replay work) when restarts are on.
    faults:
        Optional :class:`~repro.shard.supervisor.ShardFaultPlan`
        injected into the workers (test and chaos-harness hook).
    """

    name = "parallel"

    def __init__(
        self,
        mp_context: Optional[str] = None,
        *,
        rpc_timeout: Optional[float] = None,
        rpc_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_restarts: int = 0,
        on_shard_failure: str = "fail",
        snapshot_every: int = 16,
        faults=None,
    ) -> None:
        if rpc_timeout is not None and rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive or None")
        if rpc_retries < 0 or max_restarts < 0:
            raise ValueError("rpc_retries and max_restarts must be >= 0")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if on_shard_failure not in ("fail", "degrade"):
            raise ValueError(
                "on_shard_failure must be 'fail' or 'degrade', "
                f"got {on_shard_failure!r}"
            )
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._mp_context = mp_context
        self.rpc_timeout = rpc_timeout
        self.rpc_retries = rpc_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts
        self.on_shard_failure = on_shard_failure
        self.snapshot_every = snapshot_every
        self.faults = faults
        self._states: List[_ShardState] = []
        self._obs = NULL_OBS
        self._profiler = PhaseProfiler(NULL_OBS)

    @property
    def _replayable(self) -> bool:
        """Whether a restart can happen, so replay state must be kept."""
        return self.max_restarts > 0

    def bind_observability(self, obs) -> None:
        """Attach the parent system's telemetry sink (restart metrics,
        replay counters, and ``recover``-phase timings land there)."""
        self._obs = obs
        self._profiler = PhaseProfiler(obs)

    # -- lifecycle ---------------------------------------------------------

    def start(
        self, configs: List[dict], snapshots: Optional[List[dict]] = None
    ) -> None:
        self.close()
        states = [_ShardState(config) for config in configs]
        if self.faults is not None:
            for k, st in enumerate(states):
                st.crash_at = set(self.faults.crash.get(k, ()))
                st.hang_at = set(self.faults.hang.get(k, ()))
                st.slow_at = set(self.faults.slow.get(k, ()))
        self._states = states
        try:
            for k, st in enumerate(states):
                blob = snapshots[k] if snapshots is not None else None
                st.pool = self._make_pool(k, blob)
                st.base_snapshot = blob if self._replayable else None
            # A restart always goes through restore+replay, so a fresh
            # shard takes its first checkpoint at once.
            for k, st in enumerate(states):
                if self._replayable and st.base_snapshot is None:
                    st.base_snapshot = self._call(k, "snapshot", worker.snapshot)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut down every shard pool; idempotent and exception-safe.

        Each state's pool is detached before shutdown, so a second
        ``close()`` is a no-op and one failing ``shutdown()`` cannot
        abort teardown of the remaining pools (the first error is
        re-raised once all pools have been offered teardown).  The
        per-shard states are retained: supervision tallies
        (:meth:`supervision`, ``restarts_total`` & co.) stay readable
        after close.
        """
        first_error: Optional[BaseException] = None
        for st in self._states:
            pool, st.pool = st.pool, None
            if pool is None:
                continue
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def _make_pool(self, shard: int, snapshot: Optional[dict]):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        st = self._states[shard]
        ctx = (
            multiprocessing.get_context(self._mp_context)
            if self._mp_context is not None
            else None
        )
        config = dict(st.config)
        config.pop("faults", None)
        if st.crash_at or st.hang_at or st.slow_at:
            config["faults"] = {
                "crash": sorted(st.crash_at),
                "hang": sorted(st.hang_at),
                "slow": sorted(st.slow_at),
                "hang_seconds": self.faults.hang_seconds,
                "slow_seconds": self.faults.slow_seconds,
            }
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=ctx,
            initializer=worker.init_shard,
            initargs=(config, snapshot),
        )

    # -- supervised call machinery ----------------------------------------

    def _submit(self, st: _ShardState, fn, *args):
        """Submit to the shard's pool; a broken pool is a worker death."""
        try:
            return st.pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            raise _WorkerDeath("crash", exc) from exc

    def _await(self, st: _ShardState, shard: int, op: str, fut):
        """Wait for one RPC under the deadline/retry discipline."""
        for attempt in range(self.rpc_retries + 1):
            timeout = (
                None
                if self.rpc_timeout is None
                else self.rpc_timeout * (2 ** attempt)
            )
            try:
                return fut.result(timeout=timeout)
            except _FuturesTimeout as exc:
                st.timeouts += 1
                if self._obs.enabled:
                    self._obs.inc(
                        "rts_shard_rpc_timeouts_total", shard=str(shard), op=op
                    )
                last = exc
            except BrokenProcessPool as exc:
                raise _WorkerDeath("crash", exc) from exc
            except ShardError:
                raise
            except Exception as exc:
                # A worker-side application error: the worker is alive
                # and consistent, so no restart can help.  Surface it
                # with shard attribution.
                raise ShardRPCError(shard, op, exc) from exc
        raise _WorkerDeath("hang", last)

    def _call(self, shard: int, op: str, fn, *args, journal: bool = False):
        """One supervised RPC: recover across worker deaths until it lands.

        Returns None when the shard is (or became) quarantined before the
        call could complete (the caller accounts the loss); otherwise the
        RPC's result.  With ``journal`` the committed call is appended to
        the shard's replay journal.
        """
        st = self._states[shard]
        while not st.quarantined:
            try:
                result = self._await(st, shard, op, self._submit(st, fn, *args))
            except _WorkerDeath as death:
                self._recover(shard, op, death)
                continue
            if journal and self._replayable:
                st.journal.append((op, fn, args))
            return result
        return None

    def _recover(self, shard: int, op: str, death: _WorkerDeath) -> None:
        """Restart a dead shard: kill pool, restore checkpoint, replay.

        Returns once the shard is healthy again or quarantined
        (``on_shard_failure="degrade"``); raises
        :class:`ShardFailedError` under ``"fail"``.
        """
        st = self._states[shard]
        t_recover = self._profiler.start()
        try:
            while True:
                if st.restarts >= self.max_restarts:
                    if self.on_shard_failure == "degrade":
                        self._quarantine(shard, death)
                        return
                    raise ShardFailedError(
                        shard, op, st.restarts, death.cause
                    ) from death.cause
                st.restarts += 1
                if self._obs.enabled:
                    self._obs.shard_restart(shard)
                delay = min(
                    self.backoff_base * (2 ** (st.restarts - 1)),
                    self.backoff_cap,
                )
                if delay > 0:
                    time.sleep(delay)
                _kill_pool(st.pool)
                st.pool = self._make_pool(shard, st.base_snapshot)
                try:
                    self._replay(shard)
                except _WorkerDeath as again:
                    death = again
                    continue
                return
        finally:
            self._profiler.stop("recover", t_recover)

    def _replay(self, shard: int) -> None:
        """Re-apply the journal to a freshly restored worker.

        Replayed batches pass no fault ordinal, so scheduled faults
        cannot re-fire mid-recovery.  Their re-derived events were all
        emitted before the crash; any that were not is a replay orphan
        (exactly-once violation, surfaced by the sanitizer).
        """
        st = self._states[shard]
        for op, fn, args in st.journal:
            result = self._await(
                st, shard, f"replay:{op}", self._submit(st, fn, *args)
            )
            if op == "process":
                st.replayed += 1
                if self._obs.enabled:
                    self._obs.inc("rts_shard_replayed_batches_total", shard=str(shard))
                st.orphans += sum(1 for key in result[0] if key not in st.emitted)

    def _quarantine(self, shard: int, death: _WorkerDeath) -> None:
        st = self._states[shard]
        st.quarantined = True
        st.failure = repr(death.cause)
        _kill_pool(st.pool)
        st.pool = None

    def _quarantined_error(self, shard: int, op: str) -> ShardRPCError:
        failure = self._states[shard].failure
        return ShardRPCError(
            shard, op, RuntimeError(f"shard {shard} is quarantined ({failure})")
        )

    def _checkpoint(self, shard: int) -> None:
        """Periodic per-shard snapshot: truncates the journal and the
        emitted-key set (keys older than the checkpoint can never be
        re-derived by a replay)."""
        blob = self._call(shard, "snapshot", worker.snapshot)
        if blob is None:
            return  # quarantined mid-checkpoint; the old base stands
        st = self._states[shard]
        st.base_snapshot = blob
        st.journal = []
        st.emitted = set()
        st.since_snapshot = 0

    # -- ShardExecutor surface ---------------------------------------------

    def register(self, shard: int, queries: List) -> None:
        encoded = encode_queries(queries)
        result = self._call(
            shard, "register", worker.register, encoded, journal=True
        )
        if result is None:
            self._states[shard].loss["registers"] += len(encoded)

    def process(
        self, slices: Dict[int, ShardSlice], trace: Optional[tuple] = None
    ) -> Dict[int, ShardOutcome]:
        pending: Dict[int, tuple] = {}
        for shard, sl in slices.items():
            st = self._states[shard]
            if st.quarantined:
                st.loss["batches"] += 1
                st.loss["elements"] += len(sl)
                continue
            payload = sl.encode()
            tick = st.batches + 1
            try:
                fut = self._submit(st, worker.process, *payload, trace, tick)
            except _WorkerDeath:
                fut = None  # detected at submit time; recovered below
            pending[shard] = (fut, payload, tick)
        out: Dict[int, ShardOutcome] = {}
        for shard, (fut, payload, tick) in pending.items():
            outcome = self._finish_batch(shard, fut, payload, tick, trace)
            if outcome is not None:
                out[shard] = outcome
        return out

    def _finish_batch(
        self, shard, fut, payload, tick, trace
    ) -> Optional[ShardOutcome]:
        st = self._states[shard]
        while not st.quarantined:
            try:
                if fut is None:
                    fut = self._submit(st, worker.process, *payload, trace, tick)
                keys, busy, telemetry = self._await(st, shard, "process", fut)
            except _WorkerDeath as death:
                fut = None
                # The fault that killed this attempt has fired; strip it
                # (and anything earlier) so the retry cannot re-trigger.
                st.crash_at = {t for t in st.crash_at if t > tick}
                st.hang_at = {t for t in st.hang_at if t > tick}
                self._recover(shard, "process", death)
                continue
            st.batches = tick
            if self._replayable:
                # Commit: the batch is applied on the worker; journal it
                # and record its events for replay suppression.
                st.since_snapshot += 1
                st.journal.append(("process", worker.process, payload))
                keys = [k for k in keys if k not in st.emitted]
                st.emitted.update(keys)
                if st.since_snapshot >= self.snapshot_every:
                    self._checkpoint(shard)
            return keys, busy, telemetry
        st.loss["batches"] += 1
        st.loss["elements"] += len(payload[2])
        return None

    def terminate(self, shard: int, query_ids: List[object]) -> int:
        ids = list(query_ids)
        result = self._call(shard, "terminate", worker.terminate, ids, journal=True)
        if result is None:
            # Quarantined: router bookkeeping is authoritative for the
            # removal count; the unserved work is loss-accounted.
            self._states[shard].loss["terminates"] += len(ids)
            return len(ids)
        return result

    def collected_weight(self, shard: int, query_id: object) -> int:
        result = self._call(
            shard, "collected_weight", worker.collected_weight, query_id
        )
        if result is None:
            raise self._quarantined_error(shard, "collected_weight")
        return result

    def snapshot(self, shard: int) -> dict:
        if self._replayable:
            # On a quarantined shard this is the last committed
            # checkpoint; the loss accounting records the work since.
            self._checkpoint(shard)
            blob = self._states[shard].base_snapshot
        else:
            blob = self._call(shard, "snapshot", worker.snapshot)
        if blob is None:
            raise self._quarantined_error(shard, "snapshot")
        return blob

    def drain_telemetry(self) -> Dict[int, dict]:
        out: Dict[int, dict] = {}
        for shard in range(len(self._states)):
            payload = self._call(shard, "drain_telemetry", worker.drain_telemetry)
            if payload is not None:
                out[shard] = payload
        return out

    def describe(self, shard: int) -> Dict[str, object]:
        result = self._call(shard, "describe", worker.describe)
        if result is not None:
            return result
        st = self._states[shard]
        return {
            "quarantined": True,
            "failure": st.failure,
            "loss": dict(st.loss),
            "counters": {},
        }

    # -- introspection ------------------------------------------------------

    def supervision(self) -> Dict[str, object]:
        """Per-shard supervision accounting (restart/replay/loss state)."""
        return {
            "restarts": [st.restarts for st in self._states],
            "replayed_batches": [st.replayed for st in self._states],
            "rpc_timeouts": [st.timeouts for st in self._states],
            "replay_orphans": [st.orphans for st in self._states],
            "journal_depth": [len(st.journal) for st in self._states],
            "quarantined": [
                k for k, st in enumerate(self._states) if st.quarantined
            ],
            "loss": {
                k: dict(st.loss)
                for k, st in enumerate(self._states)
                if st.quarantined
            },
        }

    @property
    def restarts_total(self) -> int:
        return sum(st.restarts for st in self._states)

    @property
    def replayed_total(self) -> int:
        return sum(st.replayed for st in self._states)

    @property
    def rpc_timeouts_total(self) -> int:
        return sum(st.timeouts for st in self._states)

    @property
    def replay_orphans_total(self) -> int:
        return sum(st.orphans for st in self._states)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={len(self._states)}, "
            f"max_restarts={self.max_restarts}, "
            f"on_shard_failure={self.on_shard_failure!r}, "
            f"restarts={self.restarts_total})"
        )


def _supervised_executor(**options):
    from .supervisor import SupervisedExecutor

    return SupervisedExecutor(**options)


_EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ParallelExecutor.name: ParallelExecutor,
    "supervised": _supervised_executor,
}


def available_executors() -> List[str]:
    """Names accepted by ``make_executor`` / ``ShardedRTSSystem(executor=)``."""
    return sorted(_EXECUTORS)


def make_executor(executor, **options) -> ShardExecutor:
    """Build an executor from a name or pass an instance through."""
    if isinstance(executor, ShardExecutor):
        if options:
            raise ValueError("executor options only apply when executor is a name")
        return executor
    try:
        cls = _EXECUTORS[executor]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_EXECUTORS))
        raise ValueError(
            f"unknown shard executor {executor!r}; choose one of: {known}"
        ) from None
    return cls(**options)
