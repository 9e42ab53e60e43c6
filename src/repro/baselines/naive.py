"""The **Baseline** method (paper Sections 1, 3.1, 8).

Keep the precise remaining threshold of every alive query; on each
incoming element, probe *all* alive queries: if ``v(e)`` is in ``R_q``,
decrease the remainder by ``w(e)`` and report maturity when it reaches
zero.  Space is the minimum possible, ``O(m_alive)``, but processing an
element costs ``O(m_alive)`` — the quadratic trap ``O(nm)`` that the
paper's DT algorithm escapes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as _np

from ..core.batch import prepare_batch
from ..core.endpoint_tree import COUNTER_MAX
from ..core.engine import Engine, EngineError
from ..core.events import MaturityEvent
from ..core.geometry import encoded_key
from ..core.query import Query
from ..streams.element import StreamElement


class NaiveEngine(Engine):
    """Probe every alive query per element; O(m) time per element."""

    name = "Baseline"

    def __init__(self, dims: int = 1):
        super().__init__(dims)
        #: query_id -> [query, remaining_threshold, per-dim (lo, hi) keys]
        self._alive: Dict[object, list] = {}

    # -- registration --------------------------------------------------

    def register(self, query: Query) -> None:
        self.validate_query(query)
        if query.query_id in self._alive:
            raise EngineError(f"query id {query.query_id!r} already registered")
        bounds = tuple((iv.lo, iv.hi) for iv in query.rect.intervals)
        self._alive[query.query_id] = [query, query.threshold, bounds]

    def credit_weight(self, query_id: object, consumed: int) -> None:
        record = self._alive.get(query_id)
        if record is None:
            raise KeyError(f"query {query_id!r} is not alive")
        if not 0 <= consumed < record[1]:
            raise EngineError(
                f"consumed weight {consumed} out of range for query "
                f"{query_id!r} (remaining {record[1]})"
            )
        record[1] -= consumed

    # -- stream processing ------------------------------------------------

    def process(self, element: StreamElement, timestamp: int) -> List[MaturityEvent]:
        self.validate_element(element)
        keys = tuple((v, 0) for v in element.value)
        weight = element.weight
        counters = self.counters
        matured: List[Tuple[object, Query, int]] = []
        for query_id, record in self._alive.items():
            counters.containment_checks += 1
            inside = True
            for k, (lo, hi) in zip(keys, record[2]):
                if not lo <= k < hi:
                    inside = False
                    break
            if not inside:
                continue
            record[1] -= weight
            if record[1] <= 0:
                query = record[0]
                matured.append(
                    (query_id, query, query.threshold - record[1])
                )
        events = []
        for query_id, query, weight_seen in matured:
            del self._alive[query_id]
            events.append(
                MaturityEvent(query=query, timestamp=timestamp, weight_seen=weight_seen)
            )
        return events

    def process_batch(
        self, elements: Sequence[StreamElement], timestamp: int
    ) -> List[MaturityEvent]:
        """Vectorized probe: one (batch x queries) containment matrix.

        Queries are independent under the Baseline method — an element
        only ever *decrements* remainders — so each query's maturity
        offset is the first prefix of in-range cumulative weight reaching
        its remainder, computable per query regardless of what other
        queries do.  Events are emitted in scalar order: by offset, then
        by registration (dict) order within an element.  The int64 sums
        are exact while the batch weighs at most ``COUNTER_MAX``;
        a heavier batch, or a remainder beyond int64, takes the element
        loop over Python ints.
        """
        batch = prepare_batch(elements, self.dims)
        if not batch.size or not self._alive or batch.total > COUNTER_MAX:
            return super().process_batch(batch, timestamp)
        records = list(self._alive.items())
        try:
            remaining = _np.array(
                [record[1] for _qid, record in records], dtype=_np.int64
            )
        except OverflowError:
            return super().process_batch(batch, timestamp)
        lows = _np.array(
            [
                [encoded_key(lo) for lo, _hi in record[2]]
                for _qid, record in records
            ],
            dtype=_np.float64,
        )
        highs = _np.array(
            [
                [encoded_key(hi) for _lo, hi in record[2]]
                for _qid, record in records
            ],
            dtype=_np.float64,
        )
        values = batch.values  # (B, d)
        inside = _np.logical_and(
            values[:, None, :] >= lows[None, :, :],
            values[:, None, :] < highs[None, :, :],
        ).all(axis=2)  # (B, m)
        self.counters.containment_checks += inside.size
        gains = _np.cumsum(inside * batch.weights[:, None], axis=0)  # (B, m)
        final = gains[-1]
        matured_cols = _np.nonzero(final >= remaining)[0]
        ordered: List[Tuple[int, int, object, list, int]] = []
        for col in matured_cols.tolist():
            offset = int(_np.searchsorted(gains[:, col], remaining[col]))
            query_id, record = records[col]
            ordered.append(
                (offset, col, query_id, record, int(gains[offset, col]))
            )
        ordered.sort(key=lambda item: (item[0], item[1]))
        events: List[MaturityEvent] = []
        for offset, _col, query_id, record, collected in ordered:
            query: Query = record[0]
            del self._alive[query_id]
            events.append(
                MaturityEvent(
                    query=query,
                    timestamp=timestamp + offset,
                    weight_seen=query.threshold - (record[1] - collected),
                )
            )
        survivors_delta = final.tolist()
        for col, (query_id, record) in enumerate(records):
            if survivors_delta[col] and query_id in self._alive:
                record[1] -= survivors_delta[col]
        return events

    # -- termination ------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        return self._alive.pop(query_id, None) is not None

    # -- introspection ------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return len(self._alive)

    def remaining_threshold(self, query_id: object) -> int:
        """Exact remaining weight until maturity (tests use this oracle)."""
        record = self._alive.get(query_id)
        if record is None:
            raise KeyError(f"query {query_id!r} is not alive")
        return record[1]

    def collected_weight(self, query_id: object) -> int:
        record = self._alive.get(query_id)
        if record is None:
            raise KeyError(f"query {query_id!r} is not alive")
        return record[0].threshold - record[1]
