"""IPC payloads between the sharded router and its shard workers.

The parallel executor keeps one persistent worker process per shard; the
only state that ever crosses the process boundary is

* **queries**, as the JSON-compatible objects of
  :mod:`repro.core.serialize` (the model classes are deliberately
  immutable and refuse default pickling);
* **element slices**, as compact ``(values, weights, timestamps)``
  triples: the float64 value rows and the weights of the slice, as
  :class:`~repro.core.batch.PreparedBatch` packed them (int64, or Python
  ints in an object array when one is beyond int64), and the global
  arrival indices;
* **maturity events**, as ``(query_id, timestamp, weight_seen)`` key
  triples; the router re-materialises full
  :class:`~repro.core.events.MaturityEvent` records from its own query
  table.

Keeping payloads this small is what lets the IPC cost amortise over the
engines' batched path (bulk ranges split at each first crossing) instead
of dominating it (see the cost model in ``docs/SHARDING.md``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..streams.element import StreamElement

#: One maturity event on the wire: (query_id, global timestamp, W(q)).
EventKey = Tuple[object, int, int]


class ShardSlice:
    """The portion of one ingest batch routed to a single shard.

    ``elements`` are the routed elements in arrival order; ``timestamps``
    their *global* arrival indices.  Shards run on a compact local clock
    (engines only use timestamps to stamp events — see
    ``docs/SHARDING.md``), so the slice carries the local→global mapping
    the worker uses to stamp events with true arrival indices.
    """

    __slots__ = ("elements", "timestamps", "values", "weights")

    def __init__(self, elements: List[StreamElement], timestamps: Sequence[int], values, weights):
        self.elements = elements
        self.timestamps = timestamps
        #: the slice's rows of the batch's packed arrays; the parallel
        #: executor ships these instead of repacking
        self.values = values
        self.weights = weights

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self) -> Tuple[object, object, Sequence[int]]:
        """Wire form: ``(values, weights, timestamps)``."""
        return (self.values, self.weights, self.timestamps)


def decode_elements(values, weights) -> List[StreamElement]:
    """Rebuild trusted :class:`StreamElement` objects from wire arrays.

    The parent validated every element before routing, so this skips the
    constructor's re-validation: elements are assembled directly into the
    slots.
    """
    out: List[StreamElement] = []
    new = StreamElement.__new__
    setattr_ = object.__setattr__
    for row, w in zip(values.tolist(), weights.tolist()):
        e = new(StreamElement)
        setattr_(e, "value", tuple(row))
        setattr_(e, "weight", w)
        out.append(e)
    return out


def encode_queries(queries: Iterable) -> List[dict]:
    """Queries as JSON-compatible objects (the rts-snapshot-v1 codec)."""
    from ..core.serialize import query_to_obj

    return [query_to_obj(q) for q in queries]


def decode_queries(objs: Sequence[dict]) -> List:
    """Inverse of :func:`encode_queries`."""
    from ..core.serialize import query_from_obj

    return [query_from_obj(o) for o in objs]
