"""Batch ingestion support: one validated, array-backed element batch.

The slack-aware batched fast path (``docs/PERFORMANCE.md``) amortises the
per-element constants of the Section 4 hot loop — tree descent, heap
peeks, observer calls — over a whole batch of elements.  To do that the
engines need the batch as contiguous numpy arrays; :class:`PreparedBatch`
performs the conversion (and all input validation) exactly once, up
front, so the batch driver can slice sub-ranges for free.

A batch is *vectorizable* only when the arrays are exact stand-ins for
the Python values: every coordinate must survive the float64 round-trip
it already took inside :class:`~repro.streams.element.StreamElement`, and
the total batch weight must stay below 2^53 so the float64 partial sums
``numpy.bincount`` computes are exact integers.  Otherwise the engines
silently fall back to the element-at-a-time loop — same events, no fast
path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence

from ..streams.element import StreamElement

try:  # numpy is a core dependency, but the fallback keeps this importable
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None

#: Above this total batch weight the float64 leaf sums of the vectorized
#: routing step could round; such batches take the scalar path instead.
MAX_EXACT_WEIGHT = 1 << 53

_GET_VALUE = attrgetter("value")


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
    """

    __slots__ = (
        "elements",
        "size",
        "values",
        "weights",
        "vectorizable",
        "_arange",
        "_wf64",
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
        if batch and _np is not None:
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
        self.elements = batch
        self.size = len(batch)
        self.values = None
        self.weights = None
        self._arange = None
        self._wf64 = None
        self.vectorizable = False
        if _np is None or not batch:
            return
        try:
            if strict:
                values = _np.array([e.value for e in batch], dtype=_np.float64)
            weights = _np.array([e.weight for e in batch], dtype=_np.int64)
        except (OverflowError, ValueError):
            return  # weights beyond int64: scalar fallback stays exact
        if int(weights.sum()) >= MAX_EXACT_WEIGHT:
            return
        self.values = values
        self.weights = weights
        self._arange = _np.arange(self.size, dtype=_np.intp)
        self.vectorizable = True

    @classmethod
    def from_arrays(cls, elements, values, weights) -> "PreparedBatch":
        """Trusted construction from pre-validated elements + packed arrays.

        The sharded router validates and array-packs each ingest batch
        exactly once, then hands every shard a row-subset of the same
        arrays; this constructor re-wraps such a subset without repeating
        the per-element validation loop.  ``values`` must be the
        ``(n, dims)`` float64 rows of ``elements`` (or None to disable
        the vectorized path), and the caller vouches that the
        vectorizability preconditions hold — they are inherited from the
        validated parent batch, whose total weight bounds any subset's.
        """
        batch = cls.__new__(cls)
        batch.elements = elements
        batch.size = len(elements)
        batch.values = values
        batch.weights = weights
        batch._wf64 = None
        if values is None or weights is None or _np is None or not len(elements):
            batch.values = None
            batch.weights = None
            batch._arange = None
            batch.vectorizable = False
        else:
            batch._arange = _np.arange(batch.size, dtype=_np.intp)
            batch.vectorizable = True
        return batch

    @property
    def weights_f64(self):
        """Float64 view of the weights, built once per batch.

        The columnar descent's ``bincount`` wants float64 weights; the
        conversion is exact (the vectorizability precondition bounds the
        batch's total weight below 2^53) and cached so every tree's
        routing of the batch shares it.
        """
        w = self._wf64
        if w is None:
            w = self._wf64 = self.weights.astype(_np.float64)
        return w

    def indices(self, lo: int, hi: int):
        """Index array selecting the sub-range ``[lo, hi)`` (a view)."""
        return self._arange[lo:hi]

    def total_weight(self) -> int:
        """Sum of element weights (exact, computed from the Python ints)."""
        return sum(e.weight for e in self.elements)

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


def numpy_available() -> bool:
    """True when the vectorized Section 4 routing path can run at all."""
    return _np is not None
