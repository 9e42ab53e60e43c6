"""Batch ingestion support: one validated, array-backed element batch.

The slack-aware batched fast path (``docs/PERFORMANCE.md``) amortises the
per-element constants of the Section 4 hot loop — tree descent, heap
peeks, observer calls — over a whole batch of elements.  To do that the
engines need the batch as contiguous numpy arrays; :class:`PreparedBatch`
performs the conversion (and all input validation) exactly once, up
front, so the batch driver can slice sub-ranges for free.

Values always pack: every coordinate already took the float64 round-trip
inside :class:`~repro.streams.element.StreamElement`.  Weights pack as
int64, and every sum the engines take of them is an exact int64 sum: the
DT engines only split batches whose total fits their int64 counters
(:data:`~repro.core.endpoint_tree.COUNTER_MAX`).  A batch is
*vectorizable* when every weight fits int64; a heavier weight is kept as
a Python int (an object array), which the DT engines reject and the
baselines take element by element.  ``total`` is the exact batch weight
either way.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

import numpy as _np

from ..streams.element import StreamElement

_GET_VALUE = attrgetter("value")
_INT64_MAX = int(_np.iinfo(_np.int64).max)


def _exact_sum(weights) -> int:
    """The exact sum of positive weights: one int64 sum, unless the
    heaviest weight leaves room for a wrap (then Python ints)."""
    n = weights.size
    if not n or weights.dtype == object or int(weights.max()) > _INT64_MAX // n:
        return sum(weights.tolist())
    return int(weights.sum())


class PreparedBatch:
    """An immutable, validated batch of stream elements.

    Parameters
    ----------
    elements:
        The batch, in arrival order.  Each must be a
        :class:`~repro.streams.element.StreamElement` of dimensionality
        ``dims`` (same validation as ``Engine.validate_element``).
    dims:
        The engine's data-space dimensionality.

    ``values`` is the ``(n, dims)`` float64 value block, ``weights`` the
    int64 weights (an object array of Python ints when one does not fit
    int64; ``vectorizable`` is False then) and ``total`` their exact sum.
    """

    __slots__ = (
        "elements",
        "size",
        "values",
        "weights",
        "total",
        "vectorizable",
        "_arange",
    )

    def __init__(self, elements: Sequence[StreamElement], dims: int):
        batch = list(elements)
        n = len(batch)
        # Fast pack: build the value block straight from the element
        # fields and validate in aggregate — exact type via one C-level
        # ``map(type)`` sweep, per-element dimensionality via a
        # ``map(len)`` sweep over the value tuples.  Anything else
        # (wrong type, wrong dims, ragged values) drops to the strict
        # per-element loop below, which raises the precise error.
        values = None
        strict = True
        if batch:
            try:
                if dims == 1:
                    # Lengths are non-negative, so a length sum of n with
                    # no empty tuple forces every length to be exactly 1
                    # — and an empty tuple can't slip through, since the
                    # ``e.value[0]`` pack below raises IndexError on it
                    # (caught here, dropping to the strict loop).
                    strict = not (
                        set(map(type, batch)) == {StreamElement}
                        and sum(map(len, map(_GET_VALUE, batch))) == n
                    )
                    if not strict:
                        values = _np.array(
                            [e.value[0] for e in batch], dtype=_np.float64
                        ).reshape(n, 1)
                else:
                    strict = not (
                        set(map(type, batch)) == {StreamElement}
                        and set(map(len, map(_GET_VALUE, batch))) == {dims}
                    )
                    if not strict:
                        values = _np.fromiter(
                            (v for e in batch for v in e.value),
                            dtype=_np.float64,
                            count=n * dims,
                        ).reshape(n, dims)
            except (AttributeError, IndexError, OverflowError, TypeError, ValueError):
                strict = True
        if strict:
            for element in batch:
                if not isinstance(element, StreamElement):
                    raise TypeError(f"expected a StreamElement, got {element!r}")
                if element.dims != dims:
                    raise ValueError(
                        f"element has {element.dims} coordinate(s); engine "
                        f"handles {dims} dimension(s)"
                    )
            values = _np.array(
                [e.value for e in batch], dtype=_np.float64
            ).reshape(n, dims)
        weights = [e.weight for e in batch]
        try:
            weights = _np.array(weights, dtype=_np.int64)
        except OverflowError:  # a weight beyond int64: keep the Python ints
            weights = _np.array(weights, dtype=object)
        self._wrap(batch, values, weights)

    def _wrap(self, elements, values, weights) -> None:
        self.elements = elements
        self.size = len(elements)
        self.values = values
        self.weights = weights
        self.total = _exact_sum(weights)
        self.vectorizable = weights.dtype != object
        self._arange = _np.arange(self.size, dtype=_np.intp)

    @classmethod
    def from_arrays(cls, elements, values, weights) -> "PreparedBatch":
        """Trusted construction from pre-validated elements + packed arrays.

        The sharded router validates and array-packs each ingest batch
        exactly once, then hands every shard a row-subset of the same
        arrays; this constructor re-wraps such a subset without repeating
        the per-element validation loop.  ``values`` must be the
        ``(n, dims)`` float64 rows of ``elements`` and ``weights`` their
        weights, as :class:`PreparedBatch` packs them.
        """
        batch = cls.__new__(cls)
        batch._wrap(elements, values, weights)
        return batch

    def indices(self, lo: int, hi: int):
        """Index array selecting the sub-range ``[lo, hi)`` (a view)."""
        return self._arange[lo:hi]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        kind = "vectorizable" if self.vectorizable else "scalar-only"
        return f"PreparedBatch(size={self.size}, {kind})"


def prepare_batch(
    elements: Sequence[StreamElement], dims: int
) -> PreparedBatch:
    """Coerce ``elements`` into a :class:`PreparedBatch` (idempotent).

    Shared by every engine's ``process_batch`` so the Section 4 hot
    path validates and array-packs each batch exactly once.
    """
    if isinstance(elements, PreparedBatch):
        return elements
    return PreparedBatch(elements, dims)
