"""Crash recovery: write-ahead logging around :class:`RTSSystem`.

The checkpoint of :meth:`~repro.core.system.RTSSystem.snapshot` captures
the system at one quiescent instant; this module supplies the other half
of the classic recovery pair — a :class:`WriteAheadLog` of every mutating
operation since the last checkpoint, and a :class:`DurableSystem` wrapper
that logs before it applies.  After a crash,
:meth:`DurableSystem.recover` rebuilds the system from the snapshot and
replays the log in order; because engines are deterministic and the
snapshot is logically exact (collected weights, not structure), the
recovered system emits exactly the maturity events the uninterrupted run
would have — element for element, timestamp for timestamp
(``tests/chaos/test_checkpoint_recovery.py`` asserts this bit-identity
across every engine).

Both the snapshot and the WAL serialize to plain JSON objects, so the
durable medium can be a file, a blob store, or a test harness variable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..streams.element import StreamElement
from .events import MaturityEvent
from .query import Query
from .serialize import (
    element_from_obj,
    element_to_obj,
    query_from_obj,
    query_to_obj,
)
from .system import RTSSystem

#: Format tag of :meth:`WriteAheadLog.to_obj` payloads.
WAL_FORMAT = "rts-wal-v1"

_OP_ELEMENT = "element"
_OP_REGISTER = "register"
_OP_REGISTER_BATCH = "register_batch"
_OP_TERMINATE = "terminate"


class WriteAheadLog:
    """An ordered, JSON-serializable log of mutating system operations.

    Entries are appended *before* the operation is applied (write-ahead),
    so the durable state — last snapshot plus this log — always covers
    everything the in-memory system has done.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[List[Dict[str, Any]]] = None):
        self._entries: List[Dict[str, Any]] = list(entries or [])

    # -- appending ---------------------------------------------------------

    def log_element(self, element: StreamElement) -> None:
        self._entries.append({"op": _OP_ELEMENT, "element": element_to_obj(element)})

    def log_register(self, query: Query) -> None:
        self._entries.append({"op": _OP_REGISTER, "query": query_to_obj(query)})

    def log_register_batch(self, queries: Sequence[Query]) -> None:
        self._entries.append(
            {"op": _OP_REGISTER_BATCH, "queries": [query_to_obj(q) for q in queries]}
        )

    def log_terminate(self, query_id: object) -> None:
        self._entries.append({"op": _OP_TERMINATE, "query_id": query_id})

    def clear(self) -> None:
        """Truncate the log (right after a new checkpoint is durable)."""
        self._entries.clear()

    # -- replay ------------------------------------------------------------

    def replay(self, system: RTSSystem) -> List[MaturityEvent]:
        """Apply every logged operation, in order, to ``system``.

        Returns the maturity events the replay produces; on a freshly
        restored snapshot these are exactly the events emitted between the
        checkpoint and the crash.

        rtscheck: deterministic-surface
        """
        events: List[MaturityEvent] = []
        for entry in self._entries:
            op = entry["op"]
            if op == _OP_ELEMENT:
                events.extend(system.process(element_from_obj(entry["element"])))
            elif op == _OP_REGISTER:
                system.register(query_from_obj(entry["query"]))
            elif op == _OP_REGISTER_BATCH:
                system.register_batch(
                    [query_from_obj(q) for q in entry["queries"]]
                )
            elif op == _OP_TERMINATE:
                system.terminate(entry["query_id"])
            else:
                raise ValueError(f"unknown WAL operation {op!r}")
        return events

    # -- (de)serialization -------------------------------------------------

    def to_obj(self) -> Dict[str, Any]:
        return {"format": WAL_FORMAT, "entries": list(self._entries)}

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "WriteAheadLog":
        if obj.get("format") != WAL_FORMAT:
            raise ValueError(
                f"not an {WAL_FORMAT} payload: format={obj.get('format')!r}"
            )
        return cls(list(obj["entries"]))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"WriteAheadLog({len(self._entries)} entries)"


class DurableSystem:
    """An :class:`RTSSystem` with write-ahead logging and checkpoints.

    Forwarding wrapper: every mutating call is logged durably (appended to
    the WAL) *before* it touches the system, so at any instant the pair
    ``(last checkpoint, wal)`` reconstructs the exact state.  Call
    :meth:`checkpoint` at convenient quiescent points to bound replay
    length; call :meth:`recover` after a crash.

    >>> durable = DurableSystem(RTSSystem(dims=1))
    >>> q = durable.register([(0, 10)], threshold=100)
    >>> _ = durable.process(5.0, weight=60)
    >>> snap = durable.checkpoint()
    >>> _ = durable.process(5.0, weight=50)        # ... crash here ...
    >>> recovered = DurableSystem.recover(snap, durable.wal.to_obj())
    >>> recovered.replayed_events[0].query.query_id == q.query_id
    True
    """

    __slots__ = ("system", "wal", "replayed_events")

    def __init__(self, system: RTSSystem, wal: Optional[WriteAheadLog] = None):
        self.system = system
        self.wal = wal if wal is not None else WriteAheadLog()
        #: Maturity events produced while replaying the WAL (empty unless
        #: this instance came from :meth:`recover`).
        self.replayed_events: List[MaturityEvent] = []

    # -- forwarded, logged operations --------------------------------------

    def register(self, region, threshold=None, query_id=None) -> Query:
        # Normalise through the system's own coercion by building the
        # Query first: the WAL must store exactly what will be replayed.
        if isinstance(region, Query):
            query = region
            if threshold is not None or query_id is not None:
                raise ValueError(
                    "pass either a Query object or (region, threshold), not both"
                )
        else:
            from .query import coerce_rect

            if threshold is None:
                raise ValueError("threshold is required when passing a region")
            query = Query(
                coerce_rect(region, self.system.dims), threshold, query_id
            )
        self.wal.log_register(query)
        return self.system.register(query)

    def register_batch(self, queries: Iterable[Query]) -> List[Query]:
        batch = list(queries)
        self.wal.log_register_batch(batch)
        return self.system.register_batch(batch)

    def process(
        self,
        value: Union[float, Sequence[float], StreamElement],
        weight: int = 1,
    ) -> List[MaturityEvent]:
        if isinstance(value, StreamElement):
            element = value
        else:
            element = StreamElement(value, weight)
        self.wal.log_element(element)
        return self.system.process(element)

    def process_many(self, elements: Iterable[StreamElement]) -> List[MaturityEvent]:
        out: List[MaturityEvent] = []
        for element in elements:
            out.extend(self.process(element))
        return out

    def terminate(self, query) -> bool:
        query_id = query.query_id if isinstance(query, Query) else query
        self.wal.log_terminate(query_id)
        return self.system.terminate(query_id)

    # -- checkpoint / recover ----------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the system and truncate the WAL.

        Returns the JSON-compatible snapshot; the caller persists it, and
        from then on only operations after this instant need replaying.

        Safe to call right after a batched ingest: the snapshot reads
        W(q) through ``collected_weight``, straight from the one counter
        store that bulk and scalar ingestion both update in place.
        """
        snap = self.system.snapshot()
        self.wal.clear()
        return snap

    @classmethod
    def recover(
        cls,
        snapshot: Dict[str, Any],
        wal_obj: Optional[Dict[str, Any]] = None,
        observability=None,
        sanitize=None,
    ) -> "DurableSystem":
        """Rebuild from durable state: snapshot + (optional) WAL payload.

        The WAL is replayed against the restored system and *retained* —
        a second crash before the next checkpoint replays it again from
        the same snapshot.  Maturities emitted during replay are collected
        on :attr:`replayed_events` (they were already delivered before the
        crash; the caller decides whether to deduplicate or re-announce).
        """
        system = RTSSystem.restore(
            snapshot, observability=observability, sanitize=sanitize
        )
        wal = (
            WriteAheadLog.from_obj(wal_obj)
            if wal_obj is not None
            else WriteAheadLog()
        )
        durable = cls(system, wal=wal)
        durable.replayed_events = wal.replay(system)
        return durable

    # -- passthrough introspection -----------------------------------------

    @property
    def now(self) -> int:
        return self.system.now

    @property
    def alive_count(self) -> int:
        return self.system.alive_count

    def on_maturity(self, callback) -> None:
        self.system.on_maturity(callback)

    def __repr__(self) -> str:
        return f"DurableSystem({self.system!r}, wal={len(self.wal)} entries)"
