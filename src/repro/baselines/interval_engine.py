"""The **Interval tree** stabbing method for 1-D RTS (Sections 3.1, 8).

Query indexing: the alive query intervals are kept in a centered interval
tree; each arriving element stabs the tree with ``v(e)`` and decrements
the remaining threshold of every stabbed query.  The per-element cost is
output-sensitive, ``~O(log m + k)`` where ``k`` is the number of stabbed
queries — but ``k`` is what keeps this method in the quadratic trap: over
a query's lifetime it is stabbed up to ``tau_q`` times (unweighted), for a
total of ``~O(n) + O(m * tau_max)``.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.engine import Engine, EngineError
from ..core.events import MaturityEvent
from ..core.query import Query
from ..streams.element import StreamElement
from ..structures.interval_tree import CenteredIntervalTree, IntervalItem


class _Record:
    __slots__ = ("query", "remaining", "handle")

    def __init__(self, query: Query):
        self.query = query
        self.remaining = query.threshold
        self.handle: IntervalItem = None  # set right after insertion


class IntervalTreeEngine(Engine):
    """1-D stabbing approach backed by a centered interval tree."""

    name = "Interval tree"

    def __init__(self, dims: int = 1):
        if dims != 1:
            raise ValueError(
                "the interval-tree method is one-dimensional; use the "
                "Seg-Intv tree or R-tree engines for 2-D"
            )
        super().__init__(dims)
        self._tree = CenteredIntervalTree()
        self._records: Dict[object, _Record] = {}

    # -- registration --------------------------------------------------

    def register(self, query: Query) -> None:
        self.validate_query(query)
        if query.query_id in self._records:
            raise EngineError(f"query id {query.query_id!r} already registered")
        record = _Record(query)
        record.handle = self._tree.insert(query.rect.intervals[0], record)
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
        v = element.value[0]
        weight = element.weight
        counters = self.counters
        # Materialise before mutating: removals can trigger a rebuild that
        # would invalidate the stab iterator.
        stabbed = list(self._tree.stab(v))
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

