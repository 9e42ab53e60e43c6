"""Abstract engine interface and machine-independent work accounting.

Every RTS method evaluated in the paper (Section 8) — the proposed
distributed-tracking algorithm plus the four baselines — is implemented as
an :class:`Engine` with an identical interface, so that the experiment
harness can replay the *same* workload script against each method and
compare both wall-clock time and abstract work counters.

Work counters exist because this reproduction runs in pure Python: the
paper's headline claims are *asymptotic* (breaking the ``O(nm)`` barrier),
and counting abstract operations (query probes, heap operations, simulated
DT messages) exposes those asymptotics without any hardware dependence.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs.observer import NULL_OBS
from ..streams.element import StreamElement
from .events import MaturityEvent
from .query import Query


class WorkCounters:
    """Cheap integer counters for machine-independent cost accounting.

    Fields (all monotone non-decreasing):

    ``containment_checks``
        Point-in-rectangle tests (the unit of work of the Baseline method,
        and the candidate re-checks of the stabbing methods).
    ``counter_bumps``
        Endpoint-tree node counter increments (the ``c(u) += w`` steps of
        Section 4).
    ``heap_ops``
        Operations on the per-node min-heaps ``H(u)`` (push/pop/update).
    ``messages``
        Simulated distributed-tracking messages (signals, slack
        announcements, counter collections) across all query instances.
    ``rounds``
        Distributed-tracking round transitions across all queries.
    ``rebuilds``
        Structure (re)constructions: global rebuilding, logarithmic-method
        merges, baseline skeleton rebuilds.
    """

    __slots__ = (
        "containment_checks",
        "counter_bumps",
        "heap_ops",
        "messages",
        "rounds",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.containment_checks = 0
        self.counter_bumps = 0
        self.heap_ops = 0
        self.messages = 0
        self.rounds = 0
        self.rebuilds = 0

    def snapshot(self) -> Dict[str, int]:
        """Return the current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def total(self) -> int:
        """Sum of all counters — a single scalar proxy for total work."""
        return sum(getattr(self, name) for name in self.__slots__)

    def checkpoint(self) -> "WorkCounters":
        """An independent copy of the current values.

        Pair with :meth:`diff` for per-window / per-phase deltas instead
        of hand-rolled subtraction at every call site::

            base = counters.checkpoint()
            ...work...
            delta = counters.diff(base)   # {"heap_ops": 12, ...}
        """
        clone = WorkCounters()
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name))
        return clone

    def diff(self, other: "WorkCounters") -> Dict[str, int]:
        """Per-counter delta ``self - other`` (``other`` is the baseline).

        Raises ValueError if any delta is negative, which would mean the
        supposed baseline was taken *after* this reading.
        """
        delta = {
            name: getattr(self, name) - getattr(other, name)
            for name in self.__slots__
        }
        negative = [name for name, value in delta.items() if value < 0]
        if negative:
            raise ValueError(
                f"baseline is newer than this reading (negative deltas: "
                f"{', '.join(negative)})"
            )
        return delta

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"WorkCounters({inner})"


class Engine(abc.ABC):
    """Common contract for all RTS processing methods.

    Lifecycle
    ---------
    1. ``register(query)`` / ``register_batch(queries)`` — accept queries
       (paper operation ``REGISTER``); a query starts counting only
       elements processed *after* its registration.
    2. ``process(element, timestamp)`` — consume one stream element and
       return the queries maturing on it, as :class:`MaturityEvent`
       records.  A matured query is removed automatically.
    3. ``terminate(query_id)`` — paper operation ``TERMINATE``; removing a
       query that already matured or was already terminated is a no-op
       (the workload scripts rely on this).

    Engines are single-threaded and deterministic: replaying the same
    operation sequence yields the same maturity events in the same order.
    """

    #: Human-readable method name, matching the paper's legend
    #: ("DT", "Baseline", "Interval tree", "Seg-Intv tree", "R-tree").
    name: str = "abstract"

    def __init__(self, dims: int):
        if not isinstance(dims, int) or dims < 1:
            raise ValueError(f"dims must be a positive integer, got {dims!r}")
        self.dims = dims
        self.counters = WorkCounters()
        #: Telemetry sink (see :mod:`repro.obs`).  The default is the
        #: shared no-op :data:`~repro.obs.NULL_OBS`; hot paths guard
        #: every emission with ``if self.obs.enabled:`` so disabled
        #: observability costs one attribute check.
        self.obs = NULL_OBS

    def attach_observability(self, obs) -> None:
        """Point this engine's telemetry at ``obs`` (None restores no-op).

        Engines that cache the sink inside owned sub-structures override
        this to re-point them too.  Attaching mid-stream is allowed: from
        then on new events flow into the new sink.
        """
        self.obs = obs if obs is not None else NULL_OBS

    # -- registration --------------------------------------------------

    @abc.abstractmethod
    def register(self, query: Query) -> None:
        """Accept one query at the current moment."""

    def register_batch(self, queries: Iterable[Query]) -> None:
        """Accept many queries at once (before any of them sees elements).

        The default implementation registers one by one; engines with a
        cheaper bulk path (e.g. building a single endpoint tree) override
        this.
        """
        for query in queries:
            self.register(query)

    # -- checkpoint / restore ----------------------------------------------

    def credit_weight(self, query_id: object, consumed: int) -> None:
        """Credit an alive query with weight collected before a restore.

        Used by :meth:`restore_entries`: after re-registering a query from
        a checkpoint, the weight it had already collected (``consumed``)
        is applied so that future maturity events report the lifetime
        total and trigger at exactly the original crossing element.
        Engines that override :meth:`restore_entries` wholesale need not
        implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support credit_weight; "
            "override restore_entries instead"
        )

    def restore_entries(self, entries: Iterable) -> None:
        """Re-admit checkpointed queries: ``(query, consumed)`` pairs.

        ``consumed`` is the exact weight ``W(q)`` the query had collected
        when the checkpoint was taken.  The default path registers the
        queries afresh and credits the consumed weight, which restores the
        *logical* state exactly — remaining thresholds and therefore all
        future maturity events are identical — without claiming to rebuild
        the pre-crash internal structure bit-for-bit (engines rebuild
        structures on their own schedule anyway; see
        ``docs/ROBUSTNESS.md``).  Must be called on a fresh engine, before
        any elements.
        """
        entries = list(entries)
        self.register_batch([query for query, _consumed in entries])
        for query, consumed in entries:
            if consumed:
                self.credit_weight(query.query_id, consumed)

    # -- stream processing ------------------------------------------------

    @abc.abstractmethod
    def process(self, element: StreamElement, timestamp: int) -> List[MaturityEvent]:
        """Consume one element; return the maturities it triggers."""

    def process_batch(
        self, elements: Sequence[StreamElement], timestamp: int
    ) -> List[MaturityEvent]:
        """Consume a batch of elements; element ``i`` (0-based) arrives at
        ``timestamp + i``.

        The contract is *bit-identical equivalence*: the returned events —
        queries, timestamps, weights, and order — must match what the
        element-at-a-time loop would produce.  This default implementation
        is that loop; engines with a real fast path (the slack-aware batch
        bisection of the DT engines, the vectorized probe of the Baseline)
        override it.  See ``docs/PERFORMANCE.md``.
        """
        events: List[MaturityEvent] = []
        ts = timestamp
        for element in elements:
            events.extend(self.process(element, ts))
            ts += 1
        return events

    # -- termination ------------------------------------------------------

    @abc.abstractmethod
    def terminate(self, query_id: object) -> bool:
        """Remove an alive query; returns False when it was not alive."""

    def terminate_batch(self, query_ids: Iterable[object]) -> List[bool]:
        """Remove many queries at once; one removed-flag per input id.

        The bulk counterpart of :meth:`register_batch`.  The default
        implementation terminates one by one; engines whose removal
        triggers amortised maintenance (rebuild scheduling, tree
        compaction) can override it to defer that work to once per batch.
        """
        return [self.terminate(query_id) for query_id in query_ids]

    # -- introspection ------------------------------------------------------

    @property
    @abc.abstractmethod
    def alive_count(self) -> int:
        """Number of currently alive queries (the paper's ``m_alive``)."""

    @abc.abstractmethod
    def collected_weight(self, query_id: object) -> int:
        """Exact ``W(q)``: weight collected since registration.

        Only valid for *alive* queries (raises KeyError otherwise).  Every
        engine answers exactly; for the DT engine this is the
        ``O(polylog)`` canonical-counter sum of Section 4 plus the
        re-basing offset accumulated across rebuilds.
        """

    def describe(self) -> Dict[str, object]:
        """Structural diagnostics: a JSON-compatible snapshot.

        The base payload covers identity and accounting; engines extend
        it with structure-specific internals (tree heights, slot sizes,
        heap populations) for debugging and for the examples that peek
        under the hood.
        """
        return {
            "engine": self.name,
            "dims": self.dims,
            "alive": self.alive_count,
            "counters": self.counters.snapshot(),
            "observability": self.obs.describe(),
        }

    def validate_query(self, query: Query) -> None:
        """Shared input validation used by every concrete engine."""
        if not isinstance(query, Query):
            raise TypeError(f"expected a Query, got {query!r}")
        if query.dims != self.dims:
            raise ValueError(
                f"query {query.query_id!r} is {query.dims}-dimensional; "
                f"engine handles {self.dims} dimension(s)"
            )

    def validate_weight(self, weight: int) -> None:
        """Reject an ingest this engine cannot take (the heaviest element
        of a batch, or one element).  Engines without counters take any
        weight; see :class:`~repro.core.logmethod.DTEngine`."""

    def validate_element(self, element: StreamElement) -> None:
        """Shared element validation used by every concrete engine."""
        if element.dims != self.dims:
            raise ValueError(
                f"element has {element.dims} coordinate(s); engine handles "
                f"{self.dims} dimension(s)"
            )


class EngineError(RuntimeError):
    """Raised on misuse of an engine (e.g. duplicate registration)."""
