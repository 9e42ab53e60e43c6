"""Public façade: :class:`RTSSystem`.

Wraps any RTS engine behind one convenient, validated API:

>>> from repro import RTSSystem
>>> system = RTSSystem(dims=1)                 # DT engine by default
>>> q = system.register([(100, 105)], threshold=100_000)
>>> system.on_maturity(lambda event: print("matured:", event.query.query_id))
>>> events = system.process(102.5, weight=60_000)
>>> events = system.process(104.0, weight=50_000)   # q matures here

The façade assigns arrival timestamps (1-based, as in the paper), tracks
query lifecycles, dispatches maturity events, and exposes the engine's
work counters for inspection.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from ..obs.observer import NULL_OBS
from ..streams.element import StreamElement
from .engine import Engine
from .events import EventDispatcher, MaturityCallback, MaturityEvent
from .query import Query, QueryStatus, RectLike, coerce_rect


def _engine_registry() -> Dict[str, Type[Engine]]:
    # Imported lazily to avoid a circular import at package load time.
    from ..baselines.interval_engine import IntervalTreeEngine
    from ..baselines.naive import NaiveEngine
    from ..baselines.rtree_engine import RTreeEngine
    from ..baselines.seg_intv_engine import SegIntvEngine
    from .logmethod import DTEngine, ScanDTEngine, StaticDTEngine

    return {
        "dt": DTEngine,
        "dt-static": StaticDTEngine,
        "dt-scan": ScanDTEngine,
        "baseline": NaiveEngine,
        "interval-tree": IntervalTreeEngine,
        "seg-intv-tree": SegIntvEngine,
        "rtree": RTreeEngine,
    }


def available_engines() -> List[str]:
    """Names accepted by ``RTSSystem(engine=...)`` and by the harness.

    Covers the paper's DT solution (Section 4 with the Section 5
    logarithmic method) and every baseline of the Section 8 experiments.
    """
    return sorted(_engine_registry())


def make_engine(name: str, dims: int, **options) -> Engine:
    """Instantiate an engine by registry name (see the Section 8 lineup)."""
    registry = _engine_registry()
    try:
        cls = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown engine {name!r}; choose one of: {known}") from None
    return cls(dims=dims, **options)


class RTSSystem:
    """A running RTS service over one engine.

    Parameters
    ----------
    dims:
        Data-space dimensionality ``d``.
    engine:
        Engine name (see :func:`available_engines`) or an already
        constructed :class:`~repro.core.engine.Engine` instance.
    engine_options:
        Extra keyword arguments for the engine constructor.
    observability:
        An :class:`~repro.obs.Observability` sink to emit telemetry into
        (metrics, structured trace events, per-query lifecycle spans).
        None — the default — attaches the shared no-op sink, which keeps
        every hook zero-cost; see ``docs/OBSERVABILITY.md``.
    sanitize:
        Runtime invariant checking (see ``docs/CORRECTNESS.md``).  None —
        the default — defers to the ``RTS_SANITIZE`` environment flag;
        ``False`` forces checks off, ``True`` enables the ``"full"``
        level, and a string (``"basic"``/``"full"``) names the level.
        When enabled, every register/process/terminate call re-validates
        the whole engine state and raises
        :class:`~repro.sanitize.SanitizeError` on the first violation.
        When off (the default), no check code runs at all.
    """

    def __init__(
        self,
        dims: int = 1,
        engine: Union[str, Engine] = "dt",
        observability=None,
        sanitize=None,
        **engine_options,
    ):
        if isinstance(engine, Engine):
            if engine.dims != dims:
                raise ValueError(
                    f"engine handles {engine.dims} dims, system asked for {dims}"
                )
            if engine_options:
                raise ValueError("engine_options only apply when engine is a name")
            self.engine = engine
            #: ``(name, options)`` when the engine came from the registry;
            #: None for hand-built instances (then :meth:`snapshot` is
            #: unavailable — there is nothing serializable to name).
            self.engine_spec: Optional[Tuple[str, Dict[str, object]]] = None
        else:
            self.engine = make_engine(engine, dims, **engine_options)
            self.engine_spec = (engine, dict(engine_options))
        self.obs = observability if observability is not None else NULL_OBS
        self.engine.attach_observability(self.obs)
        self.dims = dims
        self._dispatcher = EventDispatcher()
        self._status: Dict[object, QueryStatus] = {}
        self._queries: Dict[object, Query] = {}
        self._maturity_times: Dict[object, int] = {}
        self._clock = 0  # arrival index of the last processed element
        # Lazy import: repro.sanitize.validators imports engine modules,
        # so importing it at module scope here would be circular.
        from ..sanitize import resolve_level

        #: Active check level (None when sanitizing is off).  Kept on a
        #: single attribute so the hot-path guard is one truthiness test.
        self._sanitize: Optional[str] = resolve_level(sanitize)

    def _sanitize_check(self) -> None:
        """Validate the full system state at the active check level.

        Only ever called behind an ``if self._sanitize:`` guard, so the
        disabled path costs one attribute test.
        """
        from ..sanitize import check

        check(self, level=self._sanitize)

    # -- registration --------------------------------------------------

    def register(
        self,
        region: RectLike,
        threshold: Optional[int] = None,
        query_id: Optional[object] = None,
    ) -> Query:
        """REGISTER: accept a query at the current moment.

        ``region`` may be a :class:`Query` (then ``threshold`` must be
        omitted), a :class:`~repro.core.geometry.Rect`, an
        :class:`~repro.core.geometry.Interval`, or a sequence of
        ``(lo, hi)`` closed bounds.  Returns the registered query.
        """
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
        if query.query_id in self._queries:
            raise ValueError(f"query id {query.query_id!r} already used")
        self.engine.validate_query(query)
        if self.obs.enabled:
            # Open the span first: the engine emits registration-time DT
            # events (initial slack announcement) that belong inside it.
            self.obs.query_registered(query.query_id, self._clock)
        self.engine.register(query)
        self._queries[query.query_id] = query
        self._status[query.query_id] = QueryStatus.ALIVE
        if self._sanitize:
            self._sanitize_check()
        return query

    def register_batch(self, queries: Iterable[Query]) -> List[Query]:
        """Register many queries in one engine call (bulk build path)."""
        batch = list(queries)
        for query in batch:
            if not isinstance(query, Query):
                raise TypeError(f"register_batch takes Query objects, got {query!r}")
            if query.query_id in self._queries:
                raise ValueError(f"query id {query.query_id!r} already used")
            self.engine.validate_query(query)
        if self.obs.enabled:
            for query in batch:
                self.obs.query_registered(query.query_id, self._clock)
        self.engine.register_batch(batch)
        for query in batch:
            self._queries[query.query_id] = query
            self._status[query.query_id] = QueryStatus.ALIVE
        if self._sanitize:
            self._sanitize_check()
        return batch

    # -- stream processing ------------------------------------------------

    def process(
        self,
        value: Union[float, Sequence[float], StreamElement],
        weight: int = 1,
    ) -> List[MaturityEvent]:
        """Feed the next stream element; returns the maturities it causes.

        Accepts a ready :class:`StreamElement` or a raw value (plus
        weight).  Matured queries are reported synchronously — both in the
        returned list and through :meth:`on_maturity` callbacks — and are
        automatically terminated, per the problem definition.
        """
        if isinstance(value, StreamElement):
            element = value
        else:
            element = StreamElement(value, weight)
        now = self._clock + 1
        obs_on = self.obs.enabled
        if obs_on:
            # Stamp the logical clock *before* engine work so interior
            # hooks (round ends, rebuilds) carry the right arrival index.
            self.obs.element_processed(now, element.weight)
        events = self.engine.process(element, now)
        self._clock = now  # an element the engine rejects takes no tick
        for event in events:
            self._status[event.query.query_id] = QueryStatus.MATURED
            self._maturity_times[event.query.query_id] = event.timestamp
            if obs_on:
                self.obs.query_matured(
                    event.query.query_id, event.timestamp, event.weight_seen
                )
            self._dispatcher.dispatch(event)
        if self._sanitize:
            self._sanitize_check()
        return events

    def process_many(
        self, elements: Iterable[StreamElement]
    ) -> List[MaturityEvent]:
        """Feed a batch of elements; returns all maturities in order.

        Element-at-a-time semantics with per-element telemetry and
        sanitizer granularity.  For throughput, prefer
        :meth:`process_batch`, which produces bit-identical events
        through the engines' batched fast paths.
        """
        out: List[MaturityEvent] = []
        for element in elements:
            out.extend(self.process(element))
        return out

    def process_batch(
        self,
        elements: Iterable[Union[float, Sequence[float], StreamElement]],
    ) -> List[MaturityEvent]:
        """Feed a batch of elements through the engine's batched fast path.

        Accepts ready :class:`StreamElement` objects or raw values
        (weight 1).  Maturity events — queries, timestamps, order — are
        bit-identical to feeding the same elements through
        :meth:`process` one at a time (the engines' batch contract; see
        ``docs/PERFORMANCE.md``).  Telemetry and sanitizer checks run
        once per batch instead of once per element.

        A pre-validated :class:`~repro.core.batch.PreparedBatch` passes
        straight through to the engine, skipping re-wrapping and
        re-packing — the sharded router uses this to array-pack each
        ingest batch exactly once for all shards.
        """
        from .batch import PreparedBatch

        if isinstance(elements, PreparedBatch):
            prepared: Union[PreparedBatch, List[StreamElement]] = elements
            batch = elements.elements
        else:
            batch = []
            for value in elements:
                batch.append(
                    value
                    if isinstance(value, StreamElement)
                    else StreamElement(value)
                )
            prepared = batch
        if not batch:
            return []
        start = self._clock + 1
        end = self._clock + len(batch)
        obs_on = self.obs.enabled
        if obs_on:
            if prepared is batch:
                weight = sum(e.weight for e in batch)
            else:
                weight = prepared.total_weight()
            self.obs.batch_processed(end, len(batch), weight)
        events = self.engine.process_batch(prepared, start)
        self._clock = end  # a batch the engine rejects takes no ticks
        for event in events:
            self._status[event.query.query_id] = QueryStatus.MATURED
            self._maturity_times[event.query.query_id] = event.timestamp
            if obs_on:
                self.obs.query_matured(
                    event.query.query_id, event.timestamp, event.weight_seen
                )
            self._dispatcher.dispatch(event)
        if self._sanitize:
            self._sanitize_check()
        return events

    # -- termination ------------------------------------------------------

    def terminate(self, query: Union[Query, object]) -> bool:
        """TERMINATE: remove an alive query; returns False if not alive."""
        query_id = query.query_id if isinstance(query, Query) else query
        if self._status.get(query_id) is not QueryStatus.ALIVE:
            return False
        removed = self.engine.terminate(query_id)
        if removed:
            self._status[query_id] = QueryStatus.TERMINATED
            if self.obs.enabled:
                self.obs.query_terminated(query_id, self._clock)
        if self._sanitize:
            self._sanitize_check()
        return removed

    def terminate_batch(
        self, queries: Iterable[Union[Query, object]]
    ) -> List[bool]:
        """Bulk TERMINATE: one removed-flag per input, in input order.

        Mirrors :meth:`register_batch`: a single engine call covers the
        whole batch (one sanitizer pass, one chance for the engine to
        amortise removal maintenance).  Inputs that are not alive —
        unknown, matured, already terminated, or duplicated earlier in
        the same batch — come back False, exactly as :meth:`terminate`
        would report them one at a time.
        """
        ids = [
            query.query_id if isinstance(query, Query) else query
            for query in queries
        ]
        candidates: List[Tuple[int, object]] = []
        seen = set()
        for i, query_id in enumerate(ids):
            if query_id in seen:
                continue
            if self._status.get(query_id) is QueryStatus.ALIVE:
                candidates.append((i, query_id))
                seen.add(query_id)
        flags = self.engine.terminate_batch([qid for _, qid in candidates])
        removed = [False] * len(ids)
        obs_on = self.obs.enabled
        for (i, query_id), flag in zip(candidates, flags):
            if not flag:
                continue
            removed[i] = True
            self._status[query_id] = QueryStatus.TERMINATED
            if obs_on:
                self.obs.query_terminated(query_id, self._clock)
        if self._sanitize:
            self._sanitize_check()
        return removed

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-compatible checkpoint of the full system state.

        Logical, exact, and engine-agnostic: alive queries are stored with
        their exact collected weight ``W(q)``, so :meth:`restore` (plus a
        write-ahead log of later operations — see
        :class:`~repro.core.recovery.DurableSystem`) reproduces every
        future maturity event bit-identically.  Format:
        ``rts-snapshot-v1`` (``docs/ROBUSTNESS.md``).
        """
        from .serialize import system_to_obj

        return system_to_obj(self)

    @classmethod
    def restore(
        cls, snapshot: Dict[str, object], observability=None, sanitize=None
    ) -> "RTSSystem":
        """Rebuild a running system from a :meth:`snapshot` payload."""
        from .serialize import system_from_obj

        return system_from_obj(
            snapshot, observability=observability, sanitize=sanitize
        )

    # -- callbacks ----------------------------------------------------------

    def on_maturity(self, callback: MaturityCallback) -> None:
        """Register a callback fired synchronously at each maturity."""
        self._dispatcher.subscribe(callback)

    # -- introspection ------------------------------------------------------

    @property
    def now(self) -> int:
        """Arrival index of the most recently processed element."""
        return self._clock

    @property
    def alive_count(self) -> int:
        """Number of alive queries (``m_alive``)."""
        return self.engine.alive_count

    def status(self, query: Union[Query, object]) -> QueryStatus:
        """Lifecycle status of a query known to this system."""
        query_id = query.query_id if isinstance(query, Query) else query
        try:
            return self._status[query_id]
        except KeyError:
            raise KeyError(f"unknown query {query_id!r}") from None

    def maturity_time(self, query: Union[Query, object]) -> Optional[int]:
        """The query's maturity timestamp, or None if it has not matured."""
        query_id = query.query_id if isinstance(query, Query) else query
        return self._maturity_times.get(query_id)

    def progress(self, query: Union[Query, object]) -> Tuple[int, int]:
        """Exact ``(W(q), tau_q)`` for an alive query.

        ``W(q)`` is the weight collected since registration — answered
        exactly by every engine (the DT engine derives it from its
        canonical counters in polylog time, as in Section 4's rebuilding
        step).  Raises KeyError when the query is not alive.
        """
        query_id = query.query_id if isinstance(query, Query) else query
        if self._status.get(query_id) is not QueryStatus.ALIVE:
            raise KeyError(f"query {query_id!r} is not alive")
        return (
            self.engine.collected_weight(query_id),
            self._queries[query_id].threshold,
        )

    @property
    def work_counters(self):
        """The engine's machine-independent work counters."""
        return self.engine.counters

    def observability_report(self) -> Dict[str, object]:
        """Full telemetry dump (see ``docs/OBSERVABILITY.md``).

        Mirrors the engine's work counters into ``rts_work_*`` gauges
        first, then returns ``{"prometheus": <text exposition>,
        "metrics": <JSON metrics>, "spans": <lifecycle spans>,
        "trace": <ring-buffer events>}``.  Raises RuntimeError when the
        system was built without an observability sink.
        """
        if self.obs.enabled:
            self.obs.sync_work_counters(self.engine.counters)
            self.obs.set("rts_alive_queries", self.engine.alive_count)
            return self.obs.report()
        raise RuntimeError(
            "observability is disabled; construct the system with "
            "RTSSystem(..., observability=Observability())"
        )

    def describe(self) -> Dict[str, object]:
        """Engine diagnostics plus system-level lifecycle counts."""
        payload = self.engine.describe()
        payload["now"] = self._clock
        payload["registered_total"] = len(self._queries)
        payload["matured_total"] = len(self._maturity_times)
        return payload

    def __repr__(self) -> str:
        return (
            f"RTSSystem(dims={self.dims}, engine={self.engine.name!r}, "
            f"alive={self.alive_count}, now={self._clock})"
        )
