"""Addressable binary min-heap.

Section 4 of the paper attaches to every endpoint-tree node ``u`` a
min-heap ``H(u)`` over the values ``sigma_q(u) = lambda_q + cbar_q(u)`` of
all queries whose canonical node set contains ``u``.  The RTS algorithm
needs three operations the standard library ``heapq`` does not offer
directly:

* *addressable removal* — when a query matures or is terminated, its entry
  must be deleted from the heaps of all its canonical nodes;
* *key updates* — when a query's slack ``lambda_q`` changes at a round
  boundary, its ``sigma`` entries move;
* *stable handles* — the engine keeps one handle per (query, node) pair.

This module implements a classic array-backed binary heap where each entry
records its own array position, giving ``O(log n)`` push/pop/remove/update
and ``O(1)`` peek.
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

P = TypeVar("P")


class HeapEntry(Generic[P]):
    """A live handle into an :class:`AddressableMinHeap`.

    ``key`` orders the heap; ``payload`` is opaque to the heap.  After the
    entry is popped or removed, ``in_heap`` turns False and the handle must
    not be passed back to the heap (doing so raises).
    """

    __slots__ = ("key", "payload", "_pos")

    def __init__(self, key, payload: P):
        self.key = key
        self.payload = payload
        self._pos = -1  # -1 means "not in any heap"

    @property
    def in_heap(self) -> bool:
        """True while the entry still sits inside a heap."""
        return self._pos >= 0

    def __repr__(self) -> str:
        state = f"pos={self._pos}" if self.in_heap else "detached"
        return f"HeapEntry(key={self.key!r}, payload={self.payload!r}, {state})"


class AddressableMinHeap(Generic[P]):
    """Binary min-heap with stable entry handles.

    Keys may be any mutually comparable values (the RTS engine uses plain
    integers).  Ties are broken arbitrarily but deterministically (by array
    layout), which is fine for the algorithm: the drain loop pops *all*
    entries whose key is at most the node counter, in some order.
    """

    __slots__ = ("_arr",)

    def __init__(self) -> None:
        self._arr: List[HeapEntry[P]] = []

    # -- core operations ----------------------------------------------

    def push(self, key, payload: P) -> HeapEntry[P]:
        """Insert a new entry; returns its handle."""
        entry = HeapEntry(key, payload)
        arr = self._arr
        entry._pos = len(arr)
        arr.append(entry)
        self._sift_up(entry._pos)
        return entry

    def push_unordered(self, key, payload: P) -> HeapEntry[P]:
        """Append an entry without restoring heap order.

        Bulk-construction fast path: push all initial entries unordered,
        then call :meth:`heapify` once — O(n) instead of O(n log n).  The
        heap must not be queried between the first ``push_unordered`` and
        the ``heapify``.
        """
        entry = HeapEntry(key, payload)
        arr = self._arr
        entry._pos = len(arr)
        arr.append(entry)
        return entry

    def heapify(self) -> None:
        """Restore heap order after a batch of :meth:`push_unordered`."""
        arr = self._arr
        for pos in range(len(arr) // 2 - 1, -1, -1):
            self._sift_down(pos)

    def peek(self) -> HeapEntry[P]:
        """The minimum entry without removing it (IndexError if empty)."""
        return self._arr[0]

    @property
    def min_key(self):
        """Key of the minimum entry, or None when the heap is empty."""
        arr = self._arr
        return arr[0].key if arr else None

    def pop(self) -> HeapEntry[P]:
        """Remove and return the minimum entry (IndexError if empty)."""
        arr = self._arr
        top = arr[0]
        self._detach(0)
        top._pos = -1
        return top

    def first_due(self, threshold) -> Optional[HeapEntry[P]]:
        """The minimum entry if its key is <= ``threshold``, else None.

        This is the slack-inspection primitive of Section 4: one O(1)
        check decides whether *any* of the queries sharing this node needs
        a signal.  The hot loop calls it once per counter bump.
        """
        arr = self._arr
        if arr:
            top = arr[0]
            if top.key <= threshold:
                return top
        return None

    def remove(self, entry: HeapEntry[P]) -> None:
        """Delete an arbitrary entry via its handle."""
        pos = self._position_of(entry)
        self._detach(pos)
        entry._pos = -1

    def update_key(self, entry: HeapEntry[P], new_key) -> None:
        """Change an entry's key in place, restoring heap order."""
        pos = self._position_of(entry)
        old_key = entry.key
        entry.key = new_key
        if new_key < old_key:
            self._sift_up(pos)
        elif old_key < new_key:
            self._sift_down(pos)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._arr)

    def __bool__(self) -> bool:
        return bool(self._arr)

    def entries(self) -> Tuple[HeapEntry[P], ...]:
        """Snapshot of all entries, in internal (arbitrary) order."""
        return tuple(self._arr)

    def check_invariants(self) -> None:
        """Verify heap order and position bookkeeping.

        Delegates to the :mod:`repro.sanitize` validator (which raises
        :class:`~repro.sanitize.SanitizeError`, an AssertionError).
        """
        from ..sanitize import check

        check(self)

    # -- internals --------------------------------------------------------

    def _position_of(self, entry: HeapEntry[P]) -> int:
        pos = entry._pos
        arr = self._arr
        if pos < 0 or pos >= len(arr) or arr[pos] is not entry:
            raise ValueError(f"entry is not in this heap: {entry!r}")
        return pos

    def _detach(self, pos: int) -> None:
        """Remove the entry at ``pos`` by swapping in the last element."""
        arr = self._arr
        last = arr.pop()
        if pos == len(arr):
            return  # removed the final slot; nothing to fix
        last._pos = pos
        arr[pos] = last
        # The swapped-in element may need to move either direction.
        self._sift_up(pos)
        self._sift_down(last._pos)

    def _sift_up(self, pos: int) -> None:
        arr = self._arr
        entry = arr[pos]
        key = entry.key
        while pos > 0:
            parent_pos = (pos - 1) >> 1
            parent = arr[parent_pos]
            if parent.key <= key:
                break
            parent._pos = pos
            arr[pos] = parent
            pos = parent_pos
        entry._pos = pos
        arr[pos] = entry

    def _sift_down(self, pos: int) -> None:
        arr = self._arr
        n = len(arr)
        entry = arr[pos]
        key = entry.key
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            right = child + 1
            if right < n and arr[right].key < arr[child].key:
                child = right
            if arr[child].key >= key:
                break
            mover = arr[child]
            mover._pos = pos
            arr[pos] = mover
            pos = child
        entry._pos = pos
        arr[pos] = entry


class ScanMinList(Generic[P]):
    """Drop-in *non*-heap replacement used for the slack-inspection ablation.

    Section 4 motivates the per-node min-heap by noting that inspecting
    the slack condition of **every** query at a node on each counter bump
    "is overly expensive, and will blow up the overall cost essentially to
    quadratic again".  This class realises that naive strategy behind the
    same interface as :class:`AddressableMinHeap` — entries sit in an
    unordered list, so ``min_key``/``peek`` cost a full scan — letting the
    benchmark suite quantify exactly what the heap buys.
    """

    __slots__ = ("_arr",)

    def __init__(self) -> None:
        self._arr: List[HeapEntry[P]] = []

    def push(self, key, payload: P) -> HeapEntry[P]:
        entry = HeapEntry(key, payload)
        entry._pos = len(self._arr)
        self._arr.append(entry)
        return entry

    def _min_pos(self) -> int:
        arr = self._arr
        best = 0
        best_key = arr[0].key
        for i in range(1, len(arr)):
            if arr[i].key < best_key:
                best = i
                best_key = arr[i].key
        return best

    def peek(self) -> HeapEntry[P]:
        return self._arr[self._min_pos()]

    @property
    def min_key(self):
        arr = self._arr
        if not arr:
            return None
        return min(entry.key for entry in arr)

    def pop(self) -> HeapEntry[P]:
        entry = self._arr[self._min_pos()]
        self.remove(entry)
        return entry

    def remove(self, entry: HeapEntry[P]) -> None:
        pos = entry._pos
        arr = self._arr
        if pos < 0 or pos >= len(arr) or arr[pos] is not entry:
            raise ValueError(f"entry is not in this container: {entry!r}")
        last = arr.pop()
        if pos < len(arr):
            last._pos = pos
            arr[pos] = last
        entry._pos = -1

    def update_key(self, entry: HeapEntry[P], new_key) -> None:
        pos = entry._pos
        arr = self._arr
        if pos < 0 or pos >= len(arr) or arr[pos] is not entry:
            raise ValueError(f"entry is not in this container: {entry!r}")
        entry.key = new_key

    def push_unordered(self, key, payload: P) -> HeapEntry[P]:
        """Same as :meth:`push` (a scan list has no order to restore)."""
        return self.push(key, payload)

    def heapify(self) -> None:
        """No-op: a scan list has no order to restore."""

    def first_due(self, threshold) -> Optional[HeapEntry[P]]:
        """Scan variant of the slack inspection: O(#entries) per call —
        exactly the naive strategy Section 4's heaps avoid."""
        best = None
        for entry in self._arr:
            if entry.key <= threshold and (best is None or entry.key < best.key):
                best = entry
        return best

    def __len__(self) -> int:
        return len(self._arr)

    def __bool__(self) -> bool:
        return bool(self._arr)

    def entries(self) -> Tuple[HeapEntry[P], ...]:
        return tuple(self._arr)

    def check_invariants(self) -> None:
        """Verify position bookkeeping (no order to check in a scan list).

        Delegates to the :mod:`repro.sanitize` validator (which raises
        :class:`~repro.sanitize.SanitizeError`, an AssertionError).
        """
        from ..sanitize import check

        check(self)

