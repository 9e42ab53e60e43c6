"""One endpoint tree and the shared batched-ingestion driver (Section 4).

:class:`TreeInstance` bundles one (static) endpoint tree with the DT
state of the queries on it and implements the per-element hot path: counter
maintenance along the descent paths, then the heap-drain slack inspection
at each due node (:meth:`TreeInstance.drain`).  Its counters and heap
minima live in one int64 store (``cnts`` / ``mins``, one column per
last-dimension node) that the scalar path and the batched path both read
and write directly.

:func:`bisect_batch` is the batch driver: it bulk-applies each batch up
to and through its first *crossing* (the first element that makes some
node due), drains the nodes that element made due, and goes on from the
next.  :class:`TreeSplit` finds one tree's crossings and due nodes;
:class:`BatchSplit` runs the split across all trees of an engine.  The
engines built on them — the
logarithmic method and its one-tree Section 4 variant — live in
:mod:`repro.core.logmethod`.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..obs.observer import NULL_OBS
from ..streams.element import StreamElement
from .batch import PreparedBatch
from .endpoint_tree import EndpointTree
from .engine import Engine, WorkCounters
from .events import MaturityEvent
from .query import Query
from .tracker import DONE, TrackerColumns


def apply_collected(out, counters: WorkCounters) -> None:
    """Apply the routing records of a quiet range in one step.

    ``out`` holds the ``(cnts, deltas, final, elems, rows, hot)`` records
    :meth:`TreeInstance.collect_batch` built.  Quiet means ``c(u) +
    delta(u) < min H(u)`` at every node, so the range cannot fire a
    single signal and bumping the counters *is* the whole of Section 4's
    per-element work for it.  One bump per touched node is what lands in
    the machine-independent accounting — the saved work is the point.
    """
    bumps = 0
    for cnts, deltas, final, _elems, _rows, _hot in out:
        cnts[...] = final
        bumps += int(_np.count_nonzero(deltas))
    counters.counter_bumps += bumps


def bisect_batch(engine: Engine, batch: PreparedBatch, timestamp: int, try_bulk, run_scalar):
    """Batch driver: bulk-apply up to each first crossing, drain the
    crossing's due nodes (Section 4's slack inspection, batched; see
    docs/PERFORMANCE.md).

    ``try_bulk(lo, hi, hints, stash)`` bulk-applies the longest prefix of
    ``[lo, hi)`` in which no node becomes due and returns True when that
    prefix is the whole range; otherwise it records the element that ends
    the prefix — the first *crossing*, at which some counter ``c(u)``
    reaches ``min H(u)`` — as ``stash["cross"]``, with the counters
    brought through it wherever it can signal.  The driver then hands
    that one element to ``run_scalar(lo, hi, events, hints, stash)``,
    which runs the engine's ``process`` on it — the engine finds the
    crossing's due nodes in the open split and only drains them — and
    continues after it.  Bulk ranges fire nothing and every crossing
    drains exactly the nodes the per-element path would, in its order,
    so the event stream is bit-identical to one-at-a-time processing.
    The driver ends on a ``try_bulk`` call that returns True, also when
    the last element was a crossing (the range is then empty), so the
    callbacks can finish the batch there.

    The name, the argument order and the callbacks' ``hints`` (always
    None) and ``stash`` slots stay only because perfbench's traced ledger
    wraps this function and its callbacks by name and position; they go
    when a benchmark change retires those wraps.
    """
    events: List[MaturityEvent] = []
    obs = engine.obs
    size = batch.size
    found: dict = {}
    lo = 0
    while not try_bulk(lo, size, None, found):
        cross = found["cross"]
        if obs.enabled:
            if cross > lo:
                obs.inc("rts_columnar_descents_total")
            obs.inc("rts_batch_bisections_total")
        run_scalar(cross, cross + 1, events, None, None)
        lo = cross + 1
    if obs.enabled and lo < size:
        obs.inc("rts_columnar_descents_total")
    return events


class TreeSplit:
    """One tree's side of a batch split at its crossings.

    Built from the tree's routing record of the batch range ``[lo, hi)``
    (see :meth:`TreeInstance.collect_batch`).  ``final`` is every store
    column's counter with the whole range applied.  It does not move
    while the range goes in piece by piece — every piece moves weight
    from the pending deltas into ``cnts`` — so a column can become due
    before the range ends only while it is *hot*, ``final >= mins``; the
    routing record lists the columns hot when it was taken.  Only a
    drain on this tree moves ``mins``, and the tree's
    :class:`~repro.structures.heap.HeapArena` logs the columns it touches
    while a split is open, so after a drain just those are looked at
    again (Section 4: every new sigma key is above its node's counter).

    For each hot column the split keeps its *crossing*: the first element
    at which the column's counter reaches its heap minimum.  That is a
    binary search of the column's slack at routing time over the
    cumulative weight, in arrival order, of the elements routed through
    it; the cumulative sums depend only on the batch and are kept per
    column, so a re-keyed column is searched again without touching an
    array.  The nodes due at a crossing ``x`` are exactly the hot
    columns whose crossing is ``x``, which :meth:`cross` drains.  A tree
    without hot columns fires nothing for the rest of the range: it is
    left alone until :meth:`finish` brings its counters up to ``final``.

    :meth:`apply` brings the counters through a run of elements and the
    crossing that ends it with one scatter-add over their routed
    descents (their padding lands in the store's spare slot).  Counter
    bumps are counted when the split ends, exactly as the element-wise
    path would have made them: one per distinct column per run before
    its crossing, one per column on each crossing's paths.  ``crossed``
    is the batch's list of crossings (shared by all splits): this split
    was open from ``crossed[first]`` on and took the next ``taken`` in
    its runs.  ``total`` is the tree's ingest total when it joined the
    split: :meth:`finish` sets it to this plus the range's weight.
    """

    __slots__ = (
        "slot",
        "tree",
        "rec",
        "lo",
        "total",
        "weights",
        "counters",
        "crossed",
        "first",
        "taken",
        "crossing",
        "heap",
        "through",
        "ranked",
        "flat",
        "runs",
        "paths",
        "starts",
    )

    def __init__(self, slot: int, tree: "TreeInstance", recs, lo: int, weights, counters: WorkCounters, crossed: List[int]):
        self.slot = slot
        self.tree = tree
        self.rec = recs[0] if recs else None
        self.lo = lo
        self.total = tree.total
        self.weights = weights
        self.counters = counters
        self.crossed = crossed
        self.first = len(crossed)
        self.taken = 0
        #: hot column -> its crossing; ``heap`` orders the crossings, with
        #: entries whose column moved on left in place until popped
        self.crossing: Dict[int, int] = {}
        self.heap: List[Tuple[int, int]] = []
        #: column -> ``(elements, cumulative weights, offset, a, b)``:
        #: its elements are ``elements[a:b]`` (lists shared by the
        #: columns indexed together; see :meth:`_index`)
        self.through: Dict[int, Tuple[list, list, int, int, int]] = {}
        self.ranked = None
        self.flat = None
        #: the applied runs before their crossings, as ``(first, end)``
        #: pair indices
        self.runs: List[Tuple[int, int]] = []
        #: the routed pairs' path matrix (see ``leaf_rows``)
        self.paths = None if self.rec is None else tree.tree.leaf_rows()[0]
        #: d >= 2: element ``lo + i``'s pairs start at ``starts[i]``
        #: (see :meth:`_starts`)
        self.starts: Optional[List[int]] = None
        hot = None if self.rec is None else self.rec[5]
        if hot is None:
            return
        tree.arena.moved = []
        cols = hot.tolist()
        self._index(cols)
        cross = self._cross
        for col, key in zip(cols, tree.mins[hot].tolist()):
            cross(col, key)

    # -- crossings -----------------------------------------------------------

    def _cross(self, col: int, key: int) -> None:
        """Find the crossing of hot column ``col``, whose heap minimum is
        now ``key``."""
        elems, cum, off, a, b = self.through[col]
        x = elems[bisect_left(cum, key - off, a, b)]
        self.crossing[col] = x
        heappush(self.heap, (x, col))

    def _index(self, cols: List[int]) -> None:
        """Index the elements through each of ``cols`` (columns hot for
        the first time) for :meth:`_cross`, all in one pass.

        A lone column's pairs are found by one scan, already in arrival
        order.  For several, the pairs are ordered by leaf row (sorted
        once per split) and a column's pairs are the block whose rows lie
        in its range; each block is put back in arrival order.  Column
        ``col``'s crossing is the first position of its block where the
        block's running weight total reaches the column's slack.
        """
        _cnts, deltas, final, elems, rows, _hot = self.rec
        _paths, klo, khi = self.tree.tree.leaf_rows()
        if len(cols) == 1:
            # A lone column: one scan finds its pairs, in arrival order.
            col = cols[0]
            mine = elems[(rows >= klo.item(col)) & (rows < khi.item(col))]
            cum = self.weights[mine].cumsum()
            firsts, ends = [0], [mine.size]
        else:
            ranked = self.ranked
            if ranked is None:
                order = rows.argsort()
                ranked = self.ranked = (rows[order], elems[order])
            keys, ranked_elems = ranked
            at = _np.array(cols, dtype=_np.intp)
            a = keys.searchsorted(klo[at])
            lens = keys.searchsorted(khi[at]) - a
            # Tag each block so that one sort keeps the blocks apart.
            size = self.weights.size
            tag = _np.repeat(_np.arange(0, len(cols) * size, size), lens)
            mine = _np.sort(ranked_elems[_spans(a, lens)] + tag) - tag
            cum = self.weights[mine].cumsum()
            ends = lens.cumsum()
            firsts = ends - lens
            # Re-base each block's running total to its own start.  The
            # total over all blocks may wrap int64, but the difference
            # is exact: a block sums to its column's delta, which fits.
            # (a hot column has elements: its delta reaches its slack)
            before = cum[firsts - 1]
            before[0] = 0
            cum -= _np.repeat(before, lens)
            firsts, ends = firsts.tolist(), ends.tolist()
        # The counter at routing time.
        offs = (final[cols] - deltas[cols]).tolist()
        mine, cum = mine.tolist(), cum.tolist()
        through = self.through
        for col, off, a, b in zip(cols, offs, firsts, ends):
            through[col] = (mine, cum, off, a, b)

    def next_crossing(self) -> Optional[int]:
        """The tree's first crossing from here on, or None."""
        heap, crossing = self.heap, self.crossing
        while heap:
            x, col = heap[0]
            if crossing.get(col) == x:
                return x
            heappop(heap)
        return None

    def cross(self, x: int) -> List[Tuple[Query, int]]:
        """Drain this tree at its crossing ``x`` (applied already): the
        due columns are the hot columns whose crossing is ``x``, in
        descent order, which is column order (see
        :class:`~repro.core.endpoint_tree.EndpointTree`); the no-heap
        ablation inspects every column ``x`` descends through (and
        :meth:`BatchSplit.cross` has it inspect the other routed trees'
        columns too).  Returns
        :meth:`TreeInstance.drain`'s maturities."""
        heap, crossing = self.heap, self.crossing
        due = []
        while heap and heap[0][0] == x:
            col = heappop(heap)[1]
            if crossing.get(col) == x:
                del crossing[col]
                due.append(col)
        tree = self.tree
        return tree.drain(self._touched(x) if tree._scan else due)

    def _touched(self, x: int) -> List[int]:
        """The columns crossing ``x`` descends through, in descent order:
        its pairs' paths in routing order."""
        rows = self.rec[4]
        tree = self.tree.tree
        i = x - self.lo
        if tree.ndims == 1:
            a, b = i, i + 1
        else:
            starts = self._starts()
            a, b = starts[i], starts[i + 1]
        cols = self.paths[rows[a:b]].ravel()
        return cols[cols < tree.cnts.size].tolist()

    def refresh(self) -> None:
        """Re-take the columns whose heap the last drain touched."""
        arena = self.tree.arena
        moved = arena.moved
        if not moved:
            return
        arena.moved = []
        final_at, mins_at = self.rec[2].item, self.tree.mins.item
        crossing, through, cross = self.crossing, self.through, self._cross
        fresh = []
        for col in dict.fromkeys(moved) if len(moved) > 1 else moved:
            key = mins_at(col)
            if final_at(col) < key:
                crossing.pop(col, None)
            elif col in through:
                cross(col, key)
            else:
                fresh.append(col)
        if fresh:
            self._index(fresh)
            for col in fresh:
                cross(col, mins_at(col))

    # -- counters ------------------------------------------------------------

    def apply(self, lo: int, x: int) -> None:
        """Bring the counters through elements ``[lo, x]``, the run up to
        crossing ``x`` and ``x`` itself (only a tree with a crossing ahead
        needs this; see the class docstring): one scatter-add over their
        routed descents, or a direct bump for ``x`` alone."""
        rows, paths, store = self.rec[4], self.paths, self.tree.tree.store
        i, j = lo - self.lo, x - self.lo
        self.taken += 1
        if self.tree.tree.ndims == 1:
            a, b, c = i, j, j + 1  # one pair per element, from ``lo`` on
        else:
            starts = self._starts()
            a, b, c = starts[i], starts[j], starts[j + 1]
        if a == b:
            # Only the crossing: its paths' columns are distinct but for
            # the padding, which lands in the spare slot.
            if b < c:
                store[paths[rows.item(b)] if c - b == 1 else paths[rows[b:c]]] += self.weights.item(x)
            return
        elems = self.rec[3]
        self.runs.append((a, b))
        flat = self.flat
        if flat is None:
            # The first run flattens only its own pairs' descents; a
            # second one flattens every routed pair's, once.
            self.flat = False
            cols = paths[rows[a:c]].ravel()
            weights = _np.repeat(self.weights[elems[a:c]], paths.shape[1])
        else:
            if flat is False:
                width = paths.shape[1]
                flat = self.flat = (
                    width,
                    paths[rows].ravel(),
                    _np.repeat(self.weights[elems], width),
                )
            width, cols, weights = flat
            a *= width
            c *= width
            cols, weights = cols[a:c], weights[a:c]
        _np.add.at(store, cols, weights)

    def _bumps(self) -> int:
        """Bumps of the crossings this split has seen and of its runs.

        A crossing bumps every column on its paths, whether it was taken
        in a run or not.  A run bumps each distinct column it touches
        once: its columns are the union of its pairs' root-to-leaf
        paths.  With the pairs in leaf order, each adds its path less the
        prefix it shares with the previous pair's (their lowest common
        ancestor and everything above it), and a path matrix row holds a
        node at its depth, so that prefix is the count of equal, unpadded
        entries.  All runs are counted in one pass, at the batch end.
        """
        if self.rec is None:
            return 0  # (nothing in the range reaches this tree)
        rows, paths, pad = self.rec[4], self.paths, self.tree.cnts.size
        bumps = 0
        crossed = self.crossed[self.first :]
        if crossed:
            bumps += int(_np.count_nonzero(paths[rows[self._pairs(crossed)]] != pad))
        runs = self.runs
        if runs:
            a, b = _np.array(runs, dtype=_np.intp).T
            lens = b - a
            # Sort by (run, leaf row): each run's rows (from -1, the
            # drop-outs' all-padding row) are tagged into a range of their own.
            span = paths.shape[0]
            tag = _np.repeat(_np.arange(0, len(runs) * span, span), lens)
            ordered = paths[_np.sort(tag + rows[_spans(a, lens)]) - tag]
            real = ordered != pad
            shared = (ordered[1:] == ordered[:-1]) & real[1:]
            shared[tag[1:] != tag[:-1]] = False
            bumps += int(_np.count_nonzero(real)) - int(_np.count_nonzero(shared))
        return bumps

    def _pairs(self, xs: List[int]):
        """The routed pairs of the (ascending) batch elements ``xs``."""
        at = _np.subtract(xs, self.lo)
        if self.tree.tree.ndims == 1:  # one pair per element, from ``lo`` on
            return at
        starts = _np.array(self._starts())
        return _spans(starts[at], starts[at + 1] - starts[at])

    def _starts(self) -> List[int]:
        """d >= 2: the first pair of each element of the range and, last,
        the pair count (built on first use)."""
        starts = self.starts
        if starts is None:
            elems = self.rec[3]
            starts = self.starts = elems.searchsorted(_np.arange(self.lo, self.weights.size + 1)).tolist()
        return starts

    def finish(self, hi: int) -> None:
        """Apply everything still pending: the counters become ``final``
        and the ingest total counts the range ``[lo, hi)``.

        The crossings this tree took in no run go in first, as the
        element-wise path adds them; the rest bumps each column it
        touches once."""
        bumps = self._bumps()
        if self.rec is not None:
            cnts, _deltas, final, elems, rows, _hot = self.rec
            skipped = self.crossed[self.first + self.taken :]
            if skipped:
                pairs = self._pairs(skipped)
                paths = self.paths
                cols = paths[rows[pairs]].ravel()
                _np.add.at(self.tree.tree.store, cols, _np.repeat(self.weights[elems[pairs]], paths.shape[1]))
            bumps += int(_np.count_nonzero(cnts != final))
            cnts[...] = final
        self.counters.counter_bumps += bumps
        self.tree.total = self.total + int(self.weights[self.lo : hi].sum())
        self.close()

    def drop(self) -> None:
        """Retire the split of a tree a crossing rebuilt: its runs and
        crossings still count, its pending deltas are gone with it."""
        self.counters.counter_bumps += self._bumps()
        self.close()

    def close(self) -> None:
        """Stop the arena's log."""
        self.tree.arena.moved = None


def _spans(a, lens):
    """The indices of the ranges ``[a[i], a[i] + lens[i])``, concatenated."""
    ends = lens.cumsum()
    return _np.arange(ends.item(-1)) + _np.repeat(a - (ends - lens), lens)


class BatchSplit:
    """The exact first-crossing split of one batch over an engine's trees.

    ``trees`` is the engine's slot list (read live: a crossing may rebuild
    a tree in place).  :meth:`try_bulk` is the engines' driver callback:
    the first call routes the range once per tree and, when no tree has a hot
    node, applies it whole — exactly the cost of a quiet batch.
    Otherwise each tree gets a :class:`TreeSplit`, and every call brings
    the trees with hot columns up to and through the earliest crossing
    of any tree; a tree without one waits for the batch end.  The
    engine's ``process`` then finds that crossing in ``pending`` and
    drains it through :meth:`cross`, in the trees it is due in only.
    After a crossing only those trees are looked at again, and only a
    tree rebuilt by it is routed again, over what is left.
    """

    __slots__ = ("trees", "batch", "counters", "hot", "cold", "crossed", "due", "pending")

    def __init__(self, trees: List[Optional["TreeInstance"]], batch: PreparedBatch, counters: WorkCounters):
        self.trees = trees
        self.batch = batch
        self.counters = counters
        #: splits with a crossing still ahead (None until a range is hot)
        self.hot: Optional[List[TreeSplit]] = None
        #: splits that fire nothing more, waiting for the batch end
        self.cold: List[TreeSplit] = []
        #: the batch indices of the crossings so far
        self.crossed: List[int] = []
        #: the splits due at the last crossing, in slot order
        self.due: List[TreeSplit] = []
        #: the element of a crossing not yet drained, else None
        self.pending: Optional[StreamElement] = None

    def try_bulk(self, lo: int, hi: int, hints=None, stash=None) -> bool:
        """The driver's ``try_bulk`` (see :func:`bisect_batch`): apply
        ``[lo, hi)`` up to and through its first crossing and record that
        element as ``stash["cross"]``, or apply all of it and return
        True."""
        hot = self.hot
        if hot is None:
            batch, counters = self.batch, self.counters
            routed = []
            quiet = True
            for slot, tree in enumerate(self.trees):
                if tree is not None:
                    recs: list = []
                    quiet &= tree.collect_batch(batch, lo, hi, recs)
                    routed.append((slot, tree, recs))
            if quiet:
                weight = int(batch.weights[lo:hi].sum())
                for _slot, tree, recs in routed:
                    apply_collected(recs, counters)
                    tree.total += weight
                return True
            hot = self.hot = []
            for slot, tree, recs in routed:
                self._join(TreeSplit(slot, tree, recs, lo, batch.weights, counters, self.crossed))
        else:
            # After the crossing at lo - 1: only the trees it drained can
            # have moved a heap minimum or been rebuilt.
            trees = self.trees
            rebuilt = False
            for s in self.due:
                if trees[s.slot] is s.tree:
                    s.refresh()
                else:
                    rebuilt = True
            if rebuilt:
                hot = self._reroute(lo, hi)
        cross = hi
        due: List[TreeSplit] = []
        for s in hot:
            x = s.next_crossing()
            if x is not None and x <= cross:
                if x < cross:
                    cross = x
                    due = []
                due.append(s)
        if cross == hi:
            # No hot column left anywhere: nothing fires in the rest.
            for s in hot + self.cold:
                s.finish(hi)
            hot.clear()
            self.cold.clear()
            return True
        assert cross >= lo, "a crossing behind the split point"
        for s in hot:
            if s.heap:  # (a tree without a crossing waits for the end)
                s.apply(lo, cross)
        self.due = due
        self.crossed.append(cross)
        self.pending = self.batch.elements[cross]
        stash["cross"] = cross
        return False

    def cross(self):
        """Drain the pending crossing (the engine's ``process`` calls
        this): yields ``(slot, tree, maturities)`` for each tree it is
        due in, in slot order.

        The no-heap ablation then inspects every column the crossing
        descends through in the other routed trees too, as the
        element-wise path does.  Those trees' counters are at most their
        value through ``x``, below every minimum there, so nothing fires."""
        self.pending = None
        x = self.crossed[-1]
        due = self.due
        for s in due:
            yield s.slot, s.tree, s.cross(x)
        if due[0].tree._scan:
            for s in self.hot + self.cold:
                if s.rec is not None and s not in due:
                    matured = s.tree.drain(s._touched(x))
                    assert not matured, "a crossing matured a tree it is not due in"

    def _join(self, split: TreeSplit) -> None:
        (self.hot if split.heap else self.cold).append(split)

    def _reroute(self, lo: int, hi: int) -> List[TreeSplit]:
        """Replace the split of every tree the crossing at ``lo - 1``
        rebuilt (or emptied): a fresh tree, whose counters start after
        that crossing, is routed over what is left of the range.
        Returns the new list of hot splits."""
        old, self.hot = self.hot, []
        for s in old:
            tree = self.trees[s.slot]
            if tree is s.tree:
                self.hot.append(s)
                continue
            s.drop()
            if tree is not None:
                recs: list = []
                tree.collect_batch(self.batch, lo, hi, recs)
                self._join(TreeSplit(s.slot, tree, recs, lo, self.batch.weights, self.counters, self.crossed))
        return self.hot

    def close(self) -> None:
        """Stop every open split's arena log (after the batch, or when
        it raised part-way)."""
        for s in (self.hot or []) + self.cold:
            s.close()


class TreeInstance(TrackerColumns):
    """One endpoint tree plus the DT state of the queries it manages.

    Parameters
    ----------
    entries:
        ``(query, remaining_threshold, consumed)`` triples.  Thresholds are
        relative to this tree's epoch (the moment of construction): callers
        re-base them by subtracting weight already collected elsewhere,
        accumulating that weight into ``consumed`` so maturity events can
        report the lifetime total ``W(q)``.
    dims:
        Data-space dimensionality.
    counters:
        Shared work-counter sink.
    scan:
        Build the no-heap ablation's arena (see
        :class:`~repro.structures.heap.HeapArena`).

    The queries' DT state is the inherited per-slot columns (see
    :class:`~repro.core.tracker.TrackerColumns`), slot ``s`` being
    ``entries[s]``.  ``cnts`` / ``mins`` are the tree's counter store (see
    :class:`~repro.core.endpoint_tree.EndpointTree`) and ``arena`` holds
    every sigma-heap.  ``total`` is the weight ingested since
    construction, which bounds every counter; the engines keep it at or
    below :data:`~repro.core.endpoint_tree.COUNTER_MAX`.
    """

    __slots__ = (
        "tree",
        "mins",
        "total",
        "built_count",
        "alive",
        "_scan",
    )

    def __init__(
        self,
        entries: Sequence[Tuple[Query, int, int]],
        dims: int,
        counters: WorkCounters,
        scan: bool = False,
        obs=NULL_OBS,
    ):
        super().__init__(entries)
        tree = self.tree = EndpointTree([q.rect for q in self.query], dims, counters)
        self.mins = tree.mins
        self.total = 0
        self.start(tree.qptr, tree.qcols, tree.cnts, tree.mins, counters, obs, scan)
        self.built_count = self.alive = len(entries)
        #: The no-heap ablation inspects every touched node on every
        #: bump: pre-filtering by ``mins`` would hand it the very
        #: per-node minimum whose absence it measures.
        self._scan = scan

    def set_observability(self, obs) -> None:
        """Re-point the telemetry sink (engines attach after construction)."""
        self._obs = obs if obs is not None else NULL_OBS

    # -- hot path ---------------------------------------------------------

    def process(self, element: StreamElement) -> List[Tuple[Query, int]]:
        """Feed one element; return ``(query, W(q))`` for each maturity.

        Implements the two per-element steps of Section 4: bump ``c(u)``
        along the descent path(s) — one fancy-indexed add on the store —
        then :meth:`drain` the due nodes (``mins <= cnts``), picked once
        and in descent order.  (The batch split bumps the counters of a
        crossing element itself and drains its due nodes directly.)
        """
        weight = element.weight
        touched = self.tree.columns(element.value)
        cnts = self.cnts
        now = cnts[touched] + weight
        cnts[touched] = now
        self.total += weight
        self._counters.counter_bumps += len(touched)
        if self._scan:
            return self.drain(touched.tolist())
        due = self.mins[touched] <= now
        if not _np.count_nonzero(due):
            return []
        return self.drain(touched[due].tolist())

    def drain(self, cols: List[int]) -> List[Tuple[Query, int]]:
        """Section 4's slack inspection at the columns ``cols``, in order;
        returns ``(query, W(q))`` for each maturity.

        Each column's heap is drained against its counter ``c(u)``: sigma
        entries are popped while the minimum is at most ``c(u)``, and the
        owning slot runs the DT round rule.  The caller picks the
        due columns once, before the first drain, in descent order.  That
        is exact: a query's canonical regions are disjoint, so an element
        lies in at most one of them, and a drain re-keys the query only
        at that node and at nodes the element does not touch — always
        above their counters (see :meth:`TrackerColumns.signal`).
        """
        arena = self.arena
        first_due, payload, signal = arena.first_due, arena.payload, self.signal
        cnts = self.cnts
        matured: List[Tuple[Query, int]] = []
        for i in cols:
            c = cnts.item(i)
            while True:
                entry = first_due(i, c)
                if entry < 0:
                    break
                slot = payload(entry)
                weight_seen = signal(slot, entry, c)
                if weight_seen is not None:
                    matured.append((self.query[slot], weight_seen))
                    self.alive -= 1
        return matured

    def collect_batch(
        self,
        batch: PreparedBatch,
        lo: int,
        hi: int,
        out,
        hints=None,
        stash=None,
    ) -> bool:
        """Route the batch range ``[lo, hi)`` through this tree once.

        Appends the record ``(cnts, deltas, final, elems, rows, hot)`` to
        ``out`` — the counter store, the range's per-column deltas,
        ``final = cnts + deltas``, the routed ``(element, leaf row)``
        pairs (see
        :meth:`~repro.core.endpoint_tree.EndpointTree.route_batch`) and
        the hot columns, ``final >= mins`` (None when there are none) —
        and returns True when the range is quiet here: no node's counter
        reaches its heap minimum by the range's end, so none can signal
        inside it.  Nothing is applied either way.  ``hints`` and
        ``stash`` are unused; like :meth:`resync_batch` they stay only
        while perfbench's ledger wraps these methods by name.
        """
        routed = self.tree.route_batch(
            batch.values[lo:hi], batch.weights[lo:hi], batch.indices(lo, hi)
        )
        if routed is None:
            return True
        deltas, elems, rows = routed
        cnts = self.cnts
        final = cnts + deltas
        # A node would signal inside the range iff its counter plus the
        # range's delta reaches its heap minimum.  Untouched nodes (delta
        # zero) never trigger here: between elements no due signal is
        # left undrained, so ``cnts < mins``.
        due = final >= self.mins
        if not due.any():
            out.append((cnts, deltas, final, elems, rows, None))
            return True
        out.append((cnts, deltas, final, elems, rows, _np.flatnonzero(due)))
        return False

    def resync_batch(
        self,
        batch: PreparedBatch,
        lo: int,
        hi: int,
        hints=None,
        stash=None,
    ) -> None:
        """No-op, never called: crossings write the counter store
        directly, so nothing is left to fold back.  Kept only because
        perfbench's traced ledger wraps it by name; it goes when a
        benchmark change retires that wrap."""

    # -- management ---------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        """TERMINATE: detach the query's heap entries; skeleton unchanged."""
        slot = self.slot.get(query_id)
        if slot is None or self.state[slot] == DONE:
            return False
        self.detach(slot)
        self.alive -= 1
        return True

    def contains(self, query_id: object) -> bool:
        slot = self.slot.get(query_id)
        return slot is not None and self.state[slot] != DONE

    def collected_weight(self, query_id: object) -> int:
        """Exact W(q) for an alive query: canonical counter sum plus the
        weight absorbed in earlier tree epochs (Section 4's derivation,
        ``O(h_q)`` = polylog time)."""
        slot = self.slot.get(query_id)
        if slot is None or self.state[slot] == DONE:
            raise KeyError(f"query {query_id!r} is not alive")
        return self.consumed[slot] + self.collected(slot)

    @property
    def needs_rebuild(self) -> bool:
        """Global-rebuilding trigger: alive count halved since build."""
        return self.built_count > 0 and 2 * self.alive <= self.built_count

    def stats(self) -> Dict[str, object]:
        """Structural snapshot of this tree (diagnostics)."""
        primary = self.tree.primary()
        return {
            "alive": self.alive,
            "built": self.built_count,
            "primary_height": self.tree.height(),
            "primary_nodes": 0 if primary is None else primary.n,
            "heap_entries": len(self.arena),
        }
