"""The **R-tree** stabbing method for multi-dimensional RTS (Section 8).

Uses a dynamic Guttman R-tree as the query index.  As the paper observes,
the R-tree's update algorithms are "much less effective when the indexed
objects have large and heavily overlapping extents" — precisely the RTS
query workload — so under the fixed-load dynamic mode the method can fall
behind even the Baseline (Figure 8).  Worst-case time remains ``O(nm)``.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.engine import Engine, EngineError
from ..core.events import MaturityEvent
from ..core.query import Query
from ..streams.element import StreamElement
from ..structures.rtree import RTree, RTreeItem


class _Record:
    __slots__ = ("query", "remaining", "handle")

    def __init__(self, query: Query):
        self.query = query
        self.remaining = query.threshold
        self.handle: RTreeItem = None  # set right after insertion


class RTreeEngine(Engine):
    """Stabbing approach backed by a dynamic R-tree (any dimensionality)."""

    name = "R-tree"

    def __init__(self, dims: int = 2, max_entries: int = 8, split: str = "quadratic"):
        super().__init__(dims)
        self._tree = RTree(max_entries=max_entries, split=split)
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
        point = element.value
        # MBRs are closed boxes: re-check candidates against the exact
        # (possibly half-open) query rectangles.
        stabbed = []
        for item in self._tree.stab(point):
            counters.containment_checks += 1
            if item.rect.contains(point):
                stabbed.append(item)
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

