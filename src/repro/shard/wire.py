"""IPC payloads between the sharded router and its shard workers.

The parallel executor keeps one persistent worker process per shard; the
only state that ever crosses the process boundary is

* **queries**, as the JSON-compatible objects of
  :mod:`repro.core.serialize` (the model classes are deliberately
  immutable and refuse default pickling);
* **element slices**, as compact ``(values, weights, timestamps)``
  arrays — numpy buffers when the batch is vectorizable, plain tuples
  otherwise;
* **maturity events**, as ``(query_id, timestamp, weight_seen)`` key
  triples; the router re-materialises full
  :class:`~repro.core.events.MaturityEvent` records from its own query
  table.

Keeping payloads this small is what lets the IPC cost amortise over the
engines' batched path (bulk ranges split at each first crossing) instead
of dominating it (see the cost model in ``docs/SHARDING.md``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..streams.element import StreamElement

try:  # numpy ships with the package; tolerate its absence like core.batch
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None

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

    def __init__(
        self,
        elements: List[StreamElement],
        timestamps: Sequence[int],
        values=None,
        weights=None,
    ):
        self.elements = elements
        self.timestamps = timestamps
        #: Optional pre-sliced numpy mirrors (vectorizable batches only);
        #: the parallel executor ships these instead of repacking.
        self.values = values
        self.weights = weights

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self) -> Tuple[object, object, List[int]]:
        """Wire form: ``(values, weights, timestamps)``.

        ``values``/``weights`` are numpy arrays when available (compact
        binary pickling), else parallel tuples of the raw Python values.
        """
        if self.values is not None and self.weights is not None:
            return (self.values, self.weights, self.timestamps)
        return (
            tuple(e.value for e in self.elements),
            tuple(e.weight for e in self.elements),
            self.timestamps,
        )


def decode_elements(values, weights) -> List[StreamElement]:
    """Rebuild trusted :class:`StreamElement` objects from wire arrays.

    The parent validated every element before routing, so this skips the
    constructor's re-validation: elements are assembled directly into the
    slots.  ``values`` rows are coordinate tuples (or bare floats for the
    numpy 1-D fast path).
    """
    out: List[StreamElement] = []
    new = StreamElement.__new__
    setattr_ = object.__setattr__
    if _np is not None and isinstance(values, _np.ndarray):
        weights = weights.tolist()
        if values.ndim == 1:
            for v, w in zip(values.tolist(), weights):
                e = new(StreamElement)
                setattr_(e, "value", (v,))
                setattr_(e, "weight", w)
                out.append(e)
            return out
        for row, w in zip(values.tolist(), weights):
            e = new(StreamElement)
            setattr_(e, "value", tuple(row))
            setattr_(e, "weight", w)
            out.append(e)
        return out
    for v, w in zip(values, weights):
        e = new(StreamElement)
        setattr_(e, "value", v if isinstance(v, tuple) else tuple(v))
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
