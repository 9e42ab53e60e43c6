"""The sigma-heaps of one endpoint tree, as one flat arena.

Section 4 of the paper attaches to every endpoint-tree node ``u`` a
min-heap ``H(u)`` over ``sigma_q(u) = lambda_q + cbar_q(u)`` for every
query whose canonical set contains ``u``, with *addressable removal*
(maturity, termination), *key updates* (round boundaries) and a stable
handle per (query, node) pair.  A built tree's heaps never gain entries
(a new query goes to a new tree, Section 5), so they all live in one
fixed-capacity :class:`HeapArena`: each (query, node) pair is an integer
*entry id*, and column ``u``'s heap is a CSR segment of one flat slot
list.  Each entry records its slot (relative to its segment, so most are
small cached ints): ``O(log n)`` removal and key update, ``O(1)`` peek,
no Python object per entry or per heap.
"""

from __future__ import annotations

from array import array as _array
from itertools import accumulate, compress
from typing import List, Optional, Sequence

import numpy as _np

#: The ``mins`` value of an empty segment, and the cap on stored minima:
#: the int64 bound of the counter store the arena writes into.
MIN_CAP = int(_np.iinfo(_np.int64).max)


#: Arenas of fewer entries than this are laid out entry by entry in
#: Python, and only the segments whose registration order breaks heap
#: order are sifted; larger ones in array passes by
#: :func:`_heapify_segments`.  Both give the identical layout; the cutoff
#: is where the array passes start to win (docs/PERFORMANCE.md, "Tree
#: build").
ARRAY_LAYOUT_ENTRIES = 1024


class HeapArena:
    """Every sigma-heap of one endpoint tree in flat, fixed-capacity lists.

    Parameters
    ----------
    cols:
        The column (node) of every entry, in entry-id order: an intp
        array (a tree build's ``qcols``) or a list of ints.
    run_keys, run_payloads, run_lengths:
        Run ``i`` is the next ``run_lengths[i]`` entry ids, with initial
        key ``run_keys[i]`` and owner ``run_payloads[i]`` (opaque to the
        arena): one run per query, in registration order.
    mins:
        The owner's int64 ``min H(u)`` column; the arena writes every
        column's minimum (capped at :data:`MIN_CAP`, which an empty
        segment reads) and keeps it exact after each operation.
    scan:
        The slack-inspection ablation: segments stay in registration
        order, removal swaps the last entry in, and ``first_due`` scans
        the whole segment — the naive strategy Section 4's heaps avoid.

    Each segment holds its column's entries laid out exactly as pushing
    them in registration order and heapifying would, so ties break the
    same way at every scale.
    """

    __slots__ = ("_ekey", "_slots", "_pos", "_ecol", "_seg_start", "_seg_size", "_owners", "_mins", "scan", "moved")

    def __init__(
        self,
        cols,
        run_keys: Sequence,
        run_payloads: Sequence[object],
        run_lengths: Sequence[int],
        mins,
        scan: bool = False,
    ):
        self._mins = mins
        self.scan = scan
        #: When a list, every re-key and removal appends its column: the
        #: columns whose minimum may have moved (the batch split reads it).
        self.moved: Optional[List[int]] = None
        keys: List[int] = []
        owners: List[object] = []
        for key, owner, h in zip(run_keys, run_payloads, run_lengths):
            keys += [key] * h  # a run's entries share one key object
            owners += [owner] * h
        self._ekey = keys
        self._owners = owners
        self._ecol: List[int] = cols if isinstance(cols, list) else cols.tolist()
        if len(keys) >= ARRAY_LAYOUT_ENTRIES:
            self._lay_out(_np.asarray(cols, dtype=_np.intp), run_keys, run_lengths)
        else:
            self._lay_out_entries()

    def _lay_out_entries(self) -> None:
        """Push entry by entry, noting each segment whose registration
        order is not a heap, then heapify just those (heapify leaves a
        heap as it is)."""
        cols, keys, mins = self._ecol, self._ekey, self._mins
        sizes = [0] * len(mins)
        for c in cols:
            sizes[c] += 1
        starts = list(accumulate(sizes, initial=0))
        starts.pop()
        fill = starts[:]
        slots = [0] * len(cols)
        pos = [0] * len(cols)
        broken = {}  # a dict, not a set: iterated in the order found
        for e, c in enumerate(cols):
            p = fill[c]
            fill[c] = p + 1
            slots[p] = e
            r = pos[e] = p - starts[c]
            if r and keys[slots[p - r + ((r - 1) >> 1)]] > keys[e]:
                broken[c] = None
        self._slots, self._pos = slots, pos
        self._seg_start, self._seg_size = starts, sizes
        full = list(compress(range(len(sizes)), sizes))
        if self.scan:
            tops = [self.top(c) for c in full]
        else:
            sift_down = self._sift_down
            for c in broken:
                s = starts[c]
                n = sizes[c]
                for p in range(s + (n >> 1) - 1, s - 1, -1):
                    sift_down(p, s, s + n)
            tops = [keys[slots[starts[c]]] for c in full]
        mins[full] = [MIN_CAP if t > MIN_CAP else t for t in tops]

    def _lay_out(self, col, run_keys, run_lengths) -> None:
        """The same layout in array passes: a stable sort groups the entries
        by column and :func:`_heapify_segments` sifts every segment."""
        mins = self._mins
        n = len(col)
        sizes = _np.bincount(col, minlength=len(mins))
        starts = _np.cumsum(sizes) - sizes
        heap = _np.argsort(col, kind="stable")  # by column, ids in order
        del col  # temporaries go as soon as they are used: peak memory
        try:
            run_col = _np.array(run_keys, dtype=_np.int64)
            values = None
        except OverflowError:
            # Keys beyond int64: order by dense rank, which sifts
            # identically, and map the minima back to their values.
            values, run_col = _np.unique(_np.array(run_keys, dtype=object), return_inverse=True)
        hk = _np.repeat(run_col, run_lengths)[heap]
        full = _np.flatnonzero(sizes)
        tops = _np.minimum.reduceat(hk, starts[full])
        if values is not None:
            tops = _np.minimum(values[tops], MIN_CAP).astype(_np.int64)
        mins[full] = tops
        if not self.scan:
            _heapify_segments(hk, heap, starts, sizes)
        del hk
        pos = _np.empty(n, dtype=_np.intp)
        pos[heap] = _np.arange(n) - _np.repeat(starts, sizes)
        self._pos: List[int] = pos.tolist()
        del pos
        # Segment starts as packed int64: read once per operation, so
        # compactness wins over list-of-int speed here.
        self._seg_start = _array("q", starts.astype(_np.int64).tobytes())
        self._seg_size: List[int] = sizes.tolist()
        self._slots: List[int] = heap.tolist()

    # -- queries ------------------------------------------------------------

    def key(self, entry: int):
        """Current key of ``entry``."""
        return self._ekey[entry]

    def payload(self, entry: int):
        """The owner ``entry`` was built with."""
        return self._owners[entry]

    def column(self, entry: int) -> int:
        """The column (node) whose heap holds ``entry``."""
        return self._ecol[entry]

    def in_heap(self, entry: int) -> bool:
        """True until ``entry`` is removed."""
        return self._pos[entry] >= 0

    def segment(self, col: int) -> List[int]:
        """Entry ids of column ``col``'s heap, in slot order."""
        s = self._seg_start[col]
        return self._slots[s : s + self._seg_size[col]]

    def top(self, col: int) -> Optional[int]:
        """``min H(u)`` of column ``col``, or None when it is empty."""
        n = self._seg_size[col]
        if not n:
            return None
        keys = self._ekey
        s = self._seg_start[col]
        if self.scan:
            return min(keys[e] for e in self._slots[s : s + n])
        return keys[self._slots[s]]

    def first_due(self, col: int, threshold) -> int:
        """The minimum entry of column ``col`` if its key is at most
        ``threshold``, else -1.

        This is the slack-inspection primitive of Section 4: one O(1)
        check decides whether *any* of the queries sharing this node needs
        a signal.  (The scan ablation pays a pass over the segment, taking
        the first entry with the smallest due key.)
        """
        n = self._seg_size[col]
        if not n:
            return -1
        keys = self._ekey
        s = self._seg_start[col]
        if self.scan:
            best = -1
            for e in self._slots[s : s + n]:
                k = keys[e]
                if k <= threshold and (best < 0 or k < keys[best]):
                    best = e
            return best
        e = self._slots[s]
        return e if keys[e] <= threshold else -1

    def __len__(self) -> int:
        """Entries still in some heap."""
        return sum(self._seg_size)

    # -- updates ------------------------------------------------------------

    def rekey(self, entry: int, key) -> None:
        """Change ``entry``'s key, restoring heap order and its column's
        ``mins`` slot."""
        keys = self._ekey
        old = keys[entry]
        keys[entry] = key
        col = self._ecol[entry]
        if self.moved is not None:
            self.moved.append(col)
        if self.scan:
            self._sync(col)
            return
        s = self._seg_start[col]
        if key < old:
            self._sift_up(s + self._pos[entry], s)
        elif old < key:
            self._sift_down(s + self._pos[entry], s, s + self._seg_size[col])
        top = keys[self._slots[s]]
        self._mins[col] = top if top <= MIN_CAP else MIN_CAP

    def remove(self, entry: int) -> None:
        """Delete ``entry`` from its heap (ValueError if already removed)."""
        self.remove_run(entry, 1)

    def remove_run(self, first: int, count: int) -> None:
        """Delete entries ``first .. first + count - 1`` — TERMINATE's hot
        loop, with every local bound once and the ``mins`` update inline."""
        pos, heap, keys, mins = self._pos, self._slots, self._ekey, self._mins
        col_of, start, size, scan = self._ecol, self._seg_start, self._seg_size, self.scan
        sift_up, sift_down = self._sift_up, self._sift_down
        if self.moved is not None:
            self.moved.extend(col_of[first : first + count])
        for entry in range(first, first + count):
            rel = pos[entry]
            if rel < 0:
                raise ValueError(f"entry {entry} is not in the arena")
            col = col_of[entry]
            s = start[col]
            n = size[col] - 1
            size[col] = n
            pos[entry] = -1
            p = s + rel
            last_p = s + n
            if p != last_p:
                last = heap[last_p]
                heap[p] = last
                pos[last] = rel
                if not scan:
                    # The swapped-in entry may need to move either way.
                    sift_up(p, s)
                    sift_down(s + pos[last], s, last_p)
            if scan:
                self._sync(col)
            elif n:
                top = keys[heap[s]]
                mins[col] = top if top <= MIN_CAP else MIN_CAP
            else:
                mins[col] = MIN_CAP

    # -- internals ------------------------------------------------------------

    def _sync(self, col: int) -> None:
        top = self.top(col)
        self._mins[col] = MIN_CAP if top is None or top > MIN_CAP else top

    def _sift_up(self, p: int, s: int) -> None:
        heap, keys, pos = self._slots, self._ekey, self._pos
        e = heap[p]
        k = keys[e]
        while p > s:
            pp = s + ((p - s - 1) >> 1)
            pe = heap[pp]
            if keys[pe] <= k:
                break
            pos[pe] = p - s
            heap[p] = pe
            p = pp
        pos[e] = p - s
        heap[p] = e

    def _sift_down(self, p: int, s: int, end: int) -> None:
        heap, keys, pos = self._slots, self._ekey, self._pos
        e = heap[p]
        k = keys[e]
        while True:
            c = 2 * p - s + 1
            if c >= end:
                break
            r = c + 1
            if r < end and keys[heap[r]] < keys[heap[c]]:
                c = r
            ce = heap[c]
            if keys[ce] >= k:
                break
            pos[ce] = p - s
            heap[p] = ce
            p = c
        pos[e] = p - s
        heap[p] = e


def _heapify_segments(hk, ids, starts, sizes) -> None:
    """Bottom-up heapify of every CSR segment at once, in place.

    ``hk`` holds the keys by slot and ``ids`` the entry ids.  Sequential
    heapify sifts slots ``n//2 - 1`` down to ``0``; every slot of one depth
    roots a subtree disjoint from the others, and all deeper slots come
    first, so sifting a whole depth band (of every segment) at once, band
    by band from the deepest, produces exactly the sequential layout.
    """
    half = sizes >> 1
    if not half.any():
        return
    seg = _np.repeat(_np.arange(len(sizes)), half)
    rel = _np.arange(len(seg)) - _np.repeat(_np.cumsum(half) - half, half)
    slot = starts[seg] + rel
    depth = _np.log2(rel + 1).astype(_np.intp)
    last = len(hk) - 1
    for d in range(int(depth.max()), -1, -1):
        band = depth == d
        cur = slot[band]
        s = starts[seg[band]]
        end = s + sizes[seg[band]]
        k = hk[cur]
        e = ids[cur]
        act = _np.arange(len(cur))
        while act.size:
            here = cur[act]
            c = 2 * here - s[act] + 1
            ok = c < end[act]
            act, here, c = act[ok], here[ok], c[ok]
            r = c + 1
            rk = hk[_np.minimum(r, last)]
            ck = hk[c]
            use_r = (r < end[act]) & (rk < ck)
            c = _np.where(use_r, r, c)
            ck = _np.where(use_r, rk, ck)
            mv = ck < k[act]
            act, here, c, ck = act[mv], here[mv], c[mv], ck[mv]
            hk[here] = ck
            ids[here] = ids[c]
            cur[act] = c
        hk[cur] = k
        ids[cur] = e
