"""Sharded RTS façade: multi-core query partitioning with a deterministic merge.

:class:`ShardedRTSSystem` mirrors the :class:`~repro.core.system.RTSSystem`
API but spreads the registered queries across ``S`` shards — each an
independent ``RTSSystem`` — behind a pluggable
:class:`~repro.shard.partition.PartitionPolicy` and a pluggable
:class:`~repro.shard.executor.ShardExecutor` (in-process serial, or one
persistent worker process per shard).  The paper's own reduction is to
*distributed* tracking, so partitioning the query set preserves the
Õ(n + m) behaviour per shard while adding horizontal capacity.

Determinism contract
--------------------
Maturity events from all shards are merged by ``(arrival index,
registration sequence)``.  Timestamps, matured-query sets, and collected
weights are **exactly** those of a single un-sharded system on the same
operation sequence — a query's maturity depends only on the elements
stabbing its own rectangle, which sharding never changes.  When several
queries mature on the *same* element, the merge emits them in
registration order, a canonical tie-break that is identical across shard
counts, policies, and executors (the single-engine emission order for
simultaneous maturities is engine-internal; the sharded system trades it
for one that every configuration reproduces bit-for-bit — the same
normalisation the checkpoint contract of ``docs/ROBUSTNESS.md`` applies).

Local shard clocks
------------------
Engines use timestamps only to stamp maturity events, so each shard runs
a *compact local clock* over just the elements routed to it; the router
carries the local→global index map and events come back stamped with true
global arrival indices.  This keeps every routed slice contiguous — the
engines' first-crossing batch split stays fully effective even when the
spatial policy filters most of the stream away from a shard.

See ``docs/SHARDING.md`` for the policy guide, the IPC cost model, and
when spatial-grid routing beats broadcast.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.engine import Engine
from ..core.events import EventDispatcher, MaturityCallback, MaturityEvent
from ..core.geometry import encoded_key
from ..core.query import Query, QueryStatus, RectLike, coerce_rect
from ..core.system import make_engine
from ..obs.aggregate import merge_into
from ..obs.observer import NULL_OBS
from ..obs.profiler import PhaseProfiler
from ..obs.trace import SpanContext
from ..streams.element import StreamElement
from .executor import ShardExecutor, make_executor
from .partition import PartitionPolicy, make_policy
from .wire import EventKey, ShardSlice

try:  # numpy accelerates routing; the pure-Python path stays exact
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None

#: Format tag of :meth:`ShardedRTSSystem.snapshot` payloads.
SHARD_SNAPSHOT_FORMAT = "rts-shard-snapshot-v1"

#: An empty shard extent: nothing routes until a query is owned.
_EMPTY_EXTENT = (float("inf"), float("-inf"))


class ShardedRTSSystem:
    """A running RTS service partitioned across ``shards`` engines.

    Parameters
    ----------
    dims:
        Data-space dimensionality ``d``.
    engine:
        Engine registry name (``available_engines()``).  Unlike
        ``RTSSystem``, instances are not accepted: shards construct their
        engines locally (possibly in worker processes).
    shards:
        Number of shards ``S``.
    policy:
        Partition policy: a name (``"round-robin"``, ``"rect-hash"``,
        ``"spatial-grid"``), a :class:`PartitionPolicy` instance, or a
        spec dict from a snapshot.  ``policy_options`` feed the named
        form (e.g. ``domain=(0, 100_000)`` for the grid).
    executor:
        ``"serial"`` (default), ``"parallel"``, ``"supervised"`` (the
        parallel executor with restarts on), or a
        :class:`ShardExecutor` instance.
    observability:
        Parent-level telemetry sink.  The router emits the system-level
        hooks, the per-shard balance gauges (``rts_shard_elements_total``,
        ``rts_shard_skew_ratio``), and the route/pack/merge phase timers.
        When enabled, each shard additionally runs its *own* private
        :class:`~repro.obs.Observability` (inside the worker process
        under the parallel executor); shard registry deltas are
        piggybacked on every batch reply in the ``rts-metrics-v1``
        format and merged here under a ``shard`` label, so serial and
        parallel executors expose identical family totals (see
        ``docs/OBSERVABILITY.md``).
    sanitize:
        Invariant checking (``docs/CORRECTNESS.md``): applied both to
        the router (partition-coverage invariant) and inside each shard.
    """

    def __init__(
        self,
        dims: int = 1,
        engine: str = "dt",
        shards: int = 2,
        policy: Union[str, dict, PartitionPolicy] = "round-robin",
        executor: Union[str, ShardExecutor] = "serial",
        observability=None,
        sanitize=None,
        policy_options: Optional[Dict[str, object]] = None,
        executor_options: Optional[Dict[str, object]] = None,
        **engine_options,
    ):
        if isinstance(engine, Engine):
            raise TypeError(
                "ShardedRTSSystem requires an engine registry name; shard "
                "engines are constructed inside the executor (possibly in "
                "worker processes)"
            )
        if not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shards must be a positive integer, got {shards!r}")
        self.dims = dims
        self.shards = shards
        self.engine_name = engine
        self.engine_options = dict(engine_options)
        self.policy = make_policy(policy, shards, **(policy_options or {}))
        self.executor = make_executor(executor, **(executor_options or {}))
        self.obs = observability if observability is not None else NULL_OBS
        from ..sanitize import resolve_level

        self._sanitize: Optional[str] = resolve_level(sanitize)
        #: Scratch engine used only for input validation, so error
        #: behaviour matches an un-sharded system exactly.
        self._validator = make_engine(engine, dims, **self.engine_options)
        self._dispatcher = EventDispatcher()
        self._queries: Dict[object, Query] = {}
        self._status: Dict[object, QueryStatus] = {}
        self._maturity_times: Dict[object, int] = {}
        #: Owner shard of each *alive* query (partition-coverage subject).
        self._owner: Dict[object, int] = {}
        #: Registration sequence of each alive query (merge tie-break).
        self._seq: Dict[object, int] = {}
        self._next_seq = 0
        self._clock = 0
        #: Per-shard dim-0 routing extents as encoded floats (see
        #: ``repro.core.geometry.encoded_key``): conservative unions of
        #: the owned queries' dim-0 ranges, grown on register and left in
        #: place on terminate (stale width only costs routed no-ops).
        self._extents: List[Tuple[float, float]] = [_EMPTY_EXTENT] * shards
        #: Cumulative elements routed per shard (balance telemetry).
        self.elements_routed: List[int] = [0] * shards
        #: Cumulative per-shard busy wall time (seconds inside the shard's
        #: ``process_batch``, excluding routing and IPC overhead).
        self.shard_busy_seconds: List[float] = [0.0] * shards
        self._profiler = PhaseProfiler(self.obs)
        self._bind_executor()
        self.executor.start(self._shard_configs())

    # -- lifecycle plumbing ------------------------------------------------

    def _bind_executor(self) -> None:
        """Hand the executor the parent telemetry sink when it wants one.

        The process executor emits restart/replay metrics and
        ``recover``-phase timings through the parent's observability;
        the serial executor exposes no such hook.
        """
        bind = getattr(self.executor, "bind_observability", None)
        if bind is not None:
            bind(self.obs)

    def _shard_configs(self) -> List[dict]:
        return [
            {
                "dims": self.dims,
                "engine": self.engine_name,
                "engine_options": dict(self.engine_options),
                "sanitize": self._sanitize,
                "observe": bool(self.obs.enabled),
            }
            for _ in range(self.shards)
        ]

    def close(self) -> None:
        """Shut down executor resources (worker processes); idempotent.

        Drains the shards' pending registry deltas first, so counts that
        accrued outside a batch reply (registrations, terminations) reach
        the parent registry before the workers go away.  The drain is
        best-effort: a shard whose worker already died (broken pool,
        exhausted restart budget) must not block teardown of the rest.
        """
        if self.obs.enabled:
            from .errors import ShardError

            try:
                self._drain_telemetry()
            except ShardError:
                pass  # the worker is gone; its pending deltas are lost
        self.executor.close()

    def __enter__(self) -> "ShardedRTSSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _sanitize_check(self) -> None:
        from ..sanitize import check

        check(self, level=self._sanitize)

    # -- registration --------------------------------------------------

    def register(
        self,
        region: RectLike,
        threshold: Optional[int] = None,
        query_id: Optional[object] = None,
    ) -> Query:
        """REGISTER: accept one query (same forms as ``RTSSystem``)."""
        if isinstance(region, Query):
            if threshold is not None or query_id is not None:
                raise ValueError(
                    "pass either a Query object or (region, threshold), not both"
                )
            query = region
        else:
            if threshold is None:
                raise ValueError("threshold is required when passing a region")
            query = Query(coerce_rect(region, self.dims), threshold, query_id)
        return self.register_batch([query])[0]

    def register_batch(self, queries: Iterable[Query]) -> List[Query]:
        """Register many queries, each on its policy-assigned owner shard."""
        batch = list(queries)
        seen = set()
        for query in batch:
            if not isinstance(query, Query):
                raise TypeError(f"register_batch takes Query objects, got {query!r}")
            if query.query_id in self._queries or query.query_id in seen:
                raise ValueError(f"query id {query.query_id!r} already used")
            seen.add(query.query_id)
            self._validator.validate_query(query)
        grouped: Dict[int, List[Query]] = {}
        for query in batch:
            seq = self._next_seq
            self._next_seq += 1
            owner = self.policy.assign(query, seq)
            if not 0 <= owner < self.shards:
                raise ValueError(
                    f"policy {self.policy.name!r} assigned shard {owner} "
                    f"outside [0, {self.shards})"
                )
            self._owner[query.query_id] = owner
            self._seq[query.query_id] = seq
            self._grow_extent(owner, query)
            grouped.setdefault(owner, []).append(query)
        obs_on = self.obs.enabled
        for owner in sorted(grouped):
            self.executor.register(owner, grouped[owner])
        for query in batch:
            self._queries[query.query_id] = query
            self._status[query.query_id] = QueryStatus.ALIVE
            if obs_on:
                self.obs.query_registered(query.query_id, self._clock)
        if self._sanitize:
            self._sanitize_check()
        return batch

    def _grow_extent(self, shard: int, query: Query) -> None:
        iv = query.rect.intervals[0]
        lo, hi = self._extents[shard]
        self._extents[shard] = (
            min(lo, encoded_key(iv.lo)),
            max(hi, encoded_key(iv.hi)),
        )

    # -- stream processing ------------------------------------------------

    def process(
        self,
        value: Union[float, Sequence[float], StreamElement],
        weight: int = 1,
    ) -> List[MaturityEvent]:
        """Feed one element; returns its maturities (merged, global time)."""
        from ..core.batch import PreparedBatch

        element = (
            value if isinstance(value, StreamElement) else StreamElement(value, weight)
        )
        prepared = PreparedBatch([element], self.dims)
        self._validator.validate_weight(element.weight)
        now = self._clock + 1
        if self.obs.enabled:
            self.obs.element_processed(now, element.weight)
        return self._route_and_process(prepared, now)

    def process_many(
        self, elements: Iterable[StreamElement]
    ) -> List[MaturityEvent]:
        """Feed elements one at a time (element-level telemetry)."""
        out: List[MaturityEvent] = []
        for element in elements:
            out.extend(self.process(element))
        return out

    def process_batch(
        self,
        elements: Iterable[Union[float, Sequence[float], StreamElement]],
    ) -> List[MaturityEvent]:
        """Feed a batch through the shards' batched fast paths.

        Events — queries, timestamps, weights — match the un-sharded
        system exactly; simultaneous maturities arrive in registration
        order (the deterministic merge; see the module docstring).

        The batch is validated and array-packed exactly once (one
        :class:`~repro.core.batch.PreparedBatch`); every shard receives a
        row-subset of the same arrays, so the per-shard engines' fast
        paths start from pre-packed input instead of re-packing.
        """
        from ..core.batch import PreparedBatch

        if isinstance(elements, PreparedBatch):
            prepared = elements
        else:
            t_pack = self._profiler.start()
            prepared = PreparedBatch(
                [
                    value
                    if isinstance(value, StreamElement)
                    else StreamElement(value)
                    for value in elements
                ],
                self.dims,
            )
            self._profiler.stop("pack", t_pack)
        if not prepared.size:
            return []
        if not prepared.vectorizable:
            # A vectorizable batch weighs under 2^53 in all; otherwise the
            # heaviest element must fit, or no shard may run (an element
            # that routes nowhere included), as in an un-sharded system.
            self._validator.validate_weight(max(e.weight for e in prepared.elements))
        start = self._clock + 1
        if self.obs.enabled:
            self.obs.batch_processed(
                start + prepared.size - 1, prepared.size, prepared.total_weight()
            )
        return self._route_and_process(prepared, start)

    def _route_and_process(self, prepared, start: int) -> List[MaturityEvent]:
        """Route one prepared batch, process on all shards, merge events.

        The merged event stream must be bit-identical across executors
        and shard counts (docs/SHARDING.md).

        rtscheck: deterministic-surface
        """
        obs_on = self.obs.enabled
        ctx = trace = None
        if obs_on:
            # Root span of this batch; shards attach their descend spans
            # as children via the wire-form context.
            ctx = self.obs.new_span()
            trace = ctx.to_wire()
        t_route = self._profiler.start()
        slices = self._route(prepared, start)
        self._profiler.stop("route", t_route)
        outcomes = self.executor.process(slices, trace=trace) if slices else {}
        # The batch's ticks count only once every shard took it: a batch
        # a shard rejects leaves the clock where it was.
        self._clock = start + prepared.size - 1
        if obs_on:
            for shard, sl in slices.items():
                self.obs.inc("rts_shard_elements_total", len(sl), shard=str(shard))
        for shard, sl in slices.items():
            self.elements_routed[shard] += len(sl)
        if obs_on:
            total = sum(self.elements_routed)
            peak = max(self.elements_routed)
            if total:
                self.obs.set("rts_shard_skew_ratio", peak * self.shards / total)
        keys: List[EventKey] = []
        for shard in outcomes:
            shard_keys, busy, payload = outcomes[shard]
            keys.extend(shard_keys)
            self.shard_busy_seconds[shard] += busy
            self._absorb_telemetry(shard, payload)
        t_merge = self._profiler.start()
        events = self._merge(keys)
        self._profiler.stop("merge", t_merge)
        for event in events:
            qid = event.query.query_id
            self._status[qid] = QueryStatus.MATURED
            self._maturity_times[qid] = event.timestamp
            self._owner.pop(qid, None)
            self._seq.pop(qid, None)
            if obs_on:
                self.obs.query_matured(qid, event.timestamp, event.weight_seen)
            self._dispatcher.dispatch(event)
        if obs_on:
            self.obs.span(
                "shard.batch",
                ctx,
                elements=prepared.size,
                shards=len(slices),
                events=len(events),
            )
        if self._sanitize:
            self._sanitize_check()
        return events

    def _absorb_telemetry(self, shard: int, payload: Optional[dict]) -> None:
        """Fold a shard's piggybacked telemetry into the parent registry.

        The metrics delta lands under a ``shard`` label (counters sum,
        gauges resolve by catalog policy, histograms merge bucket-wise);
        the descend span record is logged into the parent trace, where
        the wire-form context ties it back to the batch's root span.
        """
        if payload is None:
            return
        if self.obs.enabled:
            merge_into(
                self.obs.metrics, payload["metrics"], labels={"shard": str(shard)}
            )
            span = payload.get("span")
            if span is not None:
                self.obs.span(
                    "shard.descend",
                    SpanContext.from_wire(span["trace"]),
                    duration=span["duration"],
                    shard=shard,
                    elements=span["elements"],
                )

    def _drain_telemetry(self) -> None:
        for shard, payload in sorted(self.executor.drain_telemetry().items()):
            self._absorb_telemetry(shard, payload)

    def _route(self, prepared, start: int) -> Dict[int, ShardSlice]:
        """Split one prepared batch into per-shard slices.

        Broadcast policies ship the whole batch everywhere; pruning
        policies drop each shard's slice to the elements its dim-0
        extent can contain.  Timestamps are global arrival indices.
        Slice arrays are row-subsets of the prepared batch's arrays —
        packed once, shared by every shard.
        """
        batch = prepared.elements
        n = prepared.size
        values = prepared.values if prepared.vectorizable else None
        weights = prepared.weights if prepared.vectorizable else None
        if self.shards == 1:
            # S=1 passthrough: the single shard owns every query, so the
            # whole batch is its slice by construction.  Skip the extent
            # mask and the per-batch timestamp materialisation (a lazy
            # range serves the per-event remap) — BENCH_PR5 measured the
            # routing machinery at ~1% of the batched run for S=1.
            return {0: ShardSlice(batch, range(start, start + n), values, weights)}
        timestamps = list(range(start, start + n))
        slices: Dict[int, ShardSlice] = {}
        prune = self.policy.prunes_elements
        for shard in range(self.shards):
            lo, hi = self._extents[shard]
            if lo > hi:
                continue  # shard owns nothing yet
            if not prune:
                slices[shard] = ShardSlice(batch, timestamps, values, weights)
                continue
            if values is not None:
                col = values[:, 0]
                mask = (col >= lo) & (col < hi)
                if mask.all():
                    slices[shard] = ShardSlice(batch, timestamps, values, weights)
                    continue
                idx = _np.nonzero(mask)[0]
                if idx.size == 0:
                    continue
                picked = idx.tolist()
                slices[shard] = ShardSlice(
                    [batch[i] for i in picked],
                    [start + i for i in picked],
                    values[idx],
                    weights[idx],
                )
            else:
                els: List[StreamElement] = []
                ts: List[int] = []
                for i, element in enumerate(batch):
                    v0 = element.value[0]
                    if lo <= v0 < hi:
                        els.append(element)
                        ts.append(start + i)
                if els:
                    slices[shard] = ShardSlice(els, ts)
        return slices

    def _merge(self, keys: List[EventKey]) -> List[MaturityEvent]:
        """Deterministic merge: order by (arrival index, registration seq).

        rtscheck: deterministic-surface
        """
        keys.sort(key=lambda k: (k[1], self._seq.get(k[0], -1)))
        return [
            MaturityEvent(query=self._queries[qid], timestamp=ts, weight_seen=w)
            for qid, ts, w in keys
        ]

    # -- termination ------------------------------------------------------

    def terminate(self, query: Union[Query, object]) -> bool:
        """TERMINATE: remove an alive query from its owner shard."""
        return self.terminate_batch([query])[0]

    def terminate_batch(
        self, queries: Iterable[Union[Query, object]]
    ) -> List[bool]:
        """Bulk TERMINATE; returns one removed-flag per input query.

        Mirrors :meth:`register_batch`: queries are grouped by owner
        shard and removed in one executor call per shard — the path the
        router itself would use to rebalance a partition.
        """
        ids = [
            query.query_id if isinstance(query, Query) else query
            for query in queries
        ]
        grouped: Dict[int, List[object]] = {}
        removed = [False] * len(ids)
        seen = set()
        for i, qid in enumerate(ids):
            if qid in seen or self._status.get(qid) is not QueryStatus.ALIVE:
                continue
            seen.add(qid)
            removed[i] = True
            grouped.setdefault(self._owner[qid], []).append(qid)
        for shard in sorted(grouped):
            count = self.executor.terminate(shard, grouped[shard])
            if count != len(grouped[shard]):
                raise RuntimeError(
                    f"shard {shard} removed {count} of {len(grouped[shard])} "
                    "queries; router bookkeeping diverged from shard state"
                )
        obs_on = self.obs.enabled
        for i, qid in enumerate(ids):
            if not removed[i]:
                continue
            self._status[qid] = QueryStatus.TERMINATED
            self._owner.pop(qid, None)
            self._seq.pop(qid, None)
            if obs_on:
                self.obs.query_terminated(qid, self._clock)
        if self._sanitize and any(removed):
            self._sanitize_check()
        return removed

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Composed checkpoint: ``rts-shard-snapshot-v1``.

        One ``rts-snapshot-v1`` blob per shard (the PR-3 recovery format,
        so each shard restores through the proven engine-agnostic path)
        plus the router's partition state: policy spec, ownership, and
        registration sequences (the merge tie-break must survive
        restarts for the determinism contract to hold).

        Observed systems drain pending shard registry deltas first, so
        the parent registry is complete as of the checkpoint.
        """
        if self.obs.enabled:
            self._drain_telemetry()
        alive = [
            {"id": qid, "owner": self._owner[qid], "seq": self._seq[qid]}
            for qid, status in self._status.items()
            if status is QueryStatus.ALIVE
        ]
        return {
            "format": SHARD_SNAPSHOT_FORMAT,
            "dims": self.dims,
            "engine": self.engine_name,
            "engine_options": dict(self.engine_options),
            "shards": self.shards,
            "policy": self.policy.spec(),
            "executor": self.executor.name,
            "clock": self._clock,
            "next_seq": self._next_seq,
            "alive": alive,
            "elements_routed": list(self.elements_routed),
            "shard_blobs": [
                self.executor.snapshot(k) for k in range(self.shards)
            ],
        }

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, object],
        executor: Union[str, ShardExecutor, None] = None,
        observability=None,
        sanitize=None,
        executor_options: Optional[Dict[str, object]] = None,
    ) -> "ShardedRTSSystem":
        """Rebuild a running sharded system from a :meth:`snapshot`.

        ``executor`` overrides the executor recorded in the snapshot —
        a serial checkpoint restores into parallel workers and vice
        versa (the blobs are executor-agnostic).
        """
        from ..core.serialize import query_from_obj

        if snapshot.get("format") != SHARD_SNAPSHOT_FORMAT:
            raise ValueError(
                f"not an {SHARD_SNAPSHOT_FORMAT} payload: "
                f"format={snapshot.get('format')!r}"
            )
        system = cls.__new__(cls)
        system.dims = int(snapshot["dims"])
        system.shards = int(snapshot["shards"])
        system.engine_name = snapshot["engine"]
        system.engine_options = dict(snapshot.get("engine_options", {}))
        system.policy = make_policy(dict(snapshot["policy"]), system.shards)
        system.executor = make_executor(
            executor if executor is not None else snapshot.get("executor", "serial"),
            **(executor_options or {}),
        )
        system.obs = observability if observability is not None else NULL_OBS
        from ..sanitize import resolve_level

        system._sanitize = resolve_level(sanitize)
        system._validator = make_engine(
            system.engine_name, system.dims, **system.engine_options
        )
        system._dispatcher = EventDispatcher()
        system._queries = {}
        system._status = {}
        system._maturity_times = {}
        system._owner = {}
        system._seq = {}
        system._next_seq = int(snapshot["next_seq"])
        system._clock = int(snapshot["clock"])
        system._extents = [_EMPTY_EXTENT] * system.shards
        system.elements_routed = [
            int(v) for v in snapshot.get("elements_routed", [0] * system.shards)
        ]
        system.shard_busy_seconds = [0.0] * system.shards
        system._profiler = PhaseProfiler(system.obs)
        blobs = snapshot["shard_blobs"]
        owners = {rec["id"]: int(rec["owner"]) for rec in snapshot["alive"]}
        seqs = {rec["id"]: int(rec["seq"]) for rec in snapshot["alive"]}
        for shard, blob in enumerate(blobs):
            for item in blob["alive"]:
                query = query_from_obj(item["query"])
                qid = query.query_id
                system._queries[qid] = query
                system._status[qid] = QueryStatus.ALIVE
                system._owner[qid] = owners.get(qid, shard)
                system._seq[qid] = seqs[qid]
                system._grow_extent(shard, query)
            for item in blob["done"]:
                query = query_from_obj(item["query"])
                system._queries[query.query_id] = query
                system._status[query.query_id] = QueryStatus(item["status"])
                if item.get("matured_at") is not None:
                    system._maturity_times[query.query_id] = int(item["matured_at"])
        t_recover = system._profiler.start()
        system._bind_executor()
        system.executor.start(system._shard_configs(), snapshots=list(blobs))
        system._profiler.stop("recover", t_recover)
        if system._sanitize:
            system._sanitize_check()
        return system

    # -- callbacks ----------------------------------------------------------

    def on_maturity(self, callback: MaturityCallback) -> None:
        """Register a callback fired synchronously at each merged maturity."""
        self._dispatcher.subscribe(callback)

    # -- introspection ------------------------------------------------------

    @property
    def now(self) -> int:
        """Global arrival index of the most recently processed element."""
        return self._clock

    @property
    def alive_count(self) -> int:
        """Number of alive queries across all shards."""
        return len(self._owner)

    def shard_of(self, query: Union[Query, object]) -> int:
        """Owner shard of an alive query (KeyError otherwise)."""
        qid = query.query_id if isinstance(query, Query) else query
        try:
            return self._owner[qid]
        except KeyError:
            raise KeyError(f"query {qid!r} is not alive") from None

    def status(self, query: Union[Query, object]) -> QueryStatus:
        """Lifecycle status of a query known to this system."""
        qid = query.query_id if isinstance(query, Query) else query
        try:
            return self._status[qid]
        except KeyError:
            raise KeyError(f"unknown query {qid!r}") from None

    def maturity_time(self, query: Union[Query, object]) -> Optional[int]:
        """The query's maturity timestamp, or None if it has not matured."""
        qid = query.query_id if isinstance(query, Query) else query
        return self._maturity_times.get(qid)

    def progress(self, query: Union[Query, object]) -> Tuple[int, int]:
        """Exact ``(W(q), tau_q)``, answered by the owner shard."""
        qid = query.query_id if isinstance(query, Query) else query
        if self._status.get(qid) is not QueryStatus.ALIVE:
            raise KeyError(f"query {qid!r} is not alive")
        return (
            self.executor.collected_weight(self._owner[qid], qid),
            self._queries[qid].threshold,
        )

    def aggregate_work_counters(self) -> Dict[str, int]:
        """Sum of the shard engines' work counters (cross-shard total)."""
        totals: Dict[str, int] = {}
        for shard in range(self.shards):
            for name, value in self.executor.describe(shard)["counters"].items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def describe(self) -> Dict[str, object]:
        """Router diagnostics plus every shard's engine describe payload."""
        return {
            "system": "sharded",
            "engine": self.engine_name,
            "dims": self.dims,
            "shards": self.shards,
            "policy": self.policy.spec(),
            "executor": self.executor.name,
            "now": self._clock,
            "alive": self.alive_count,
            "registered_total": len(self._queries),
            "matured_total": len(self._maturity_times),
            "elements_routed": list(self.elements_routed),
            "shard_busy_seconds": list(self.shard_busy_seconds),
            "shard_describes": [
                self.executor.describe(k) for k in range(self.shards)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ShardedRTSSystem(dims={self.dims}, engine={self.engine_name!r}, "
            f"shards={self.shards}, policy={self.policy.name!r}, "
            f"executor={self.executor.name!r}, alive={self.alive_count}, "
            f"now={self._clock})"
        )
