"""The **Seg-Intv tree** stabbing method for 2-D RTS (Sections 3.1, 8).

The 2-D analogue of the interval-tree method: alive query rectangles are
indexed in a segment tree (on x) layered with centered interval trees (on
y); each element stabs the structure with ``v(e)`` and decrements every
stabbed query.  Complexity profile matches the 1-D stabbing method:
``~O(n) + O(m * tau_max)`` — still quadratic in the worst case.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.engine import Engine, EngineError
from ..core.events import MaturityEvent
from ..core.query import Query
from ..streams.element import StreamElement
from ..structures.seg_intv_tree import SegIntvItem, SegIntvTree


class _Record:
    __slots__ = ("query", "remaining", "handle")

    def __init__(self, query: Query):
        self.query = query
        self.remaining = query.threshold
        self.handle: SegIntvItem = None  # set right after insertion


class SegIntvEngine(Engine):
    """2-D stabbing approach backed by a segment-tree/interval-tree layer."""

    name = "Seg-Intv tree"

    def __init__(self, dims: int = 2):
        if dims != 2:
            raise ValueError(
                "the Seg-Intv tree method is two-dimensional; use the "
                "interval-tree engine for 1-D"
            )
        super().__init__(dims)
        self._tree = SegIntvTree()
        self._records: Dict[object, _Record] = {}

    # -- registration --------------------------------------------------

    def register(self, query: Query) -> None:
        self.validate_query(query)
        if query.query_id in self._records:
            raise EngineError(f"query id {query.query_id!r} already registered")
        record = _Record(query)
        record.handle = self._tree.insert(query.rect, record)
        self._records[query.query_id] = record

    def credit_weight(self, query_id: object, consumed: int) -> None:
        record = self._records.get(query_id)
        if record is None:
            raise KeyError(f"query {query_id!r} is not alive")
        if not 0 <= consumed < record.remaining:
            raise EngineError(
                f"consumed weight {consumed} out of range for query "
                f"{query_id!r} (remaining {record.remaining})"
            )
        record.remaining -= consumed

    # -- stream processing ------------------------------------------------

    def process(self, element: StreamElement, timestamp: int) -> List[MaturityEvent]:
        self.validate_element(element)
        weight = element.weight
        counters = self.counters
        stabbed = list(self._tree.stab(element.value))
        counters.containment_checks += len(stabbed)
        events: List[MaturityEvent] = []
        for item in stabbed:
            record: _Record = item.payload
            record.remaining -= weight
            if record.remaining <= 0:
                del self._records[record.query.query_id]
                self._tree.remove(item)
                events.append(
                    MaturityEvent(
                        query=record.query,
                        timestamp=timestamp,
                        weight_seen=record.query.threshold - record.remaining,
                    )
                )
        return events

    # -- termination ------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        record = self._records.pop(query_id, None)
        if record is None:
            return False
        self._tree.remove(record.handle)
        return True

    # -- introspection ------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return len(self._records)

    def collected_weight(self, query_id: object) -> int:
        record = self._records.get(query_id)
        if record is None:
            raise KeyError(f"query {query_id!r} is not alive")
        return record.query.threshold - record.remaining

