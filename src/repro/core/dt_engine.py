"""One endpoint tree and the shared batched-ingestion driver (Section 4).

:class:`TreeInstance` bundles one (static) endpoint tree with the query
trackers living on it and implements the per-element hot path: counter
maintenance along the descent paths, then the heap-drain slack inspection
at each due node.  Its counters and heap minima live in one int64 store
(``cnts`` / ``mins``, one column per last-dimension node) that the scalar
path and the batched path both read and write directly.

:func:`bisect_batch` is the batch driver: it bulk-applies each batch up
to its first *crossing* (the first element that makes some node due),
runs that one element through the scalar path, and goes on from the next.
:class:`TreeSplit` finds one tree's crossings; :class:`BatchSplit` runs
the split across all trees of an engine.  The engines built on them — the
logarithmic method and its one-tree Section 4 variant — live in
:mod:`repro.core.logmethod`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..obs.observer import NULL_OBS
from ..streams.element import StreamElement
from .batch import PreparedBatch
from .endpoint_tree import EndpointTree
from .engine import Engine, EngineError, WorkCounters
from .events import MaturityEvent
from .query import Query
from .tracker import QueryTracker, TrackerState, start_trackers


def apply_collected(out, counters: WorkCounters) -> None:
    """Apply the routing records of a quiet range in one step.

    ``out`` holds the ``(cnts, deltas, final, elems, rows)`` records
    :meth:`TreeInstance.collect_batch` built.  Quiet means ``c(u) +
    delta(u) < min H(u)`` at every node, so the range cannot fire a
    single signal and bumping the counters *is* the whole of Section 4's
    per-element work for it.  One bump per touched node is what lands in
    the machine-independent accounting — the saved work is the point.
    """
    bumps = 0
    for cnts, deltas, final, _elems, _rows in out:
        cnts[...] = final
        bumps += int(_np.count_nonzero(deltas))
    counters.counter_bumps += bumps


def bisect_batch(engine: Engine, batch: PreparedBatch, timestamp: int, try_bulk, run_scalar):
    """Batch driver: bulk-apply up to each first crossing, replay the
    crossing element scalar (Section 4's slack inspection, batched; see
    docs/PERFORMANCE.md).

    ``try_bulk(lo, hi, hints, stash)`` bulk-applies the longest prefix of
    ``[lo, hi)`` in which no node becomes due and returns True when that
    prefix is the whole range; otherwise it records the element that ends
    the prefix — the first *crossing*, at which some counter ``c(u)``
    reaches ``min H(u)`` — as ``stash["cross"]``.  The driver then hands
    that one element to ``run_scalar(lo, hi, events, hints, stash)``,
    which replays it through the engine's exact per-element path, and
    continues after it.  Bulk ranges fire nothing and every crossing runs
    the scalar path, so the event stream is bit-identical to
    one-at-a-time processing.  The driver ends on a ``try_bulk`` call
    that returns True, also when the last element was a crossing (the
    range is then empty), so the callbacks can finish the batch there.

    The name, the argument order and the callbacks' ``hints`` (always
    None) and ``stash`` slots stay only because perfbench's traced ledger
    wraps this function and its callbacks by name and position; they go
    when a benchmark change retires those wraps.
    """
    events: List[MaturityEvent] = []
    obs = engine.obs
    size = batch.size
    lo = 0
    while True:
        found: dict = {}
        if try_bulk(lo, size, None, found):
            if obs.enabled and lo < size:
                obs.columnar_descent(size - lo)
            return events
        cross = found["cross"]
        if obs.enabled:
            if cross > lo:
                obs.columnar_descent(cross - lo)
            obs.batch_bisected(size - lo)
            obs.columnar_fallback(1)
        run_scalar(cross, cross + 1, events, None, None)
        lo = cross + 1


class TreeSplit:
    """One tree's side of a batch split at its crossings.

    Built from the tree's routing record of the batch range ``[lo, hi)``
    (see :meth:`TreeInstance.collect_batch`).  ``final`` is every store
    column's counter with the whole range applied.  It does not move
    while the range goes in piece by piece — every piece moves weight
    from the pending deltas into ``cnts`` — so a column can become due
    before the range ends only while it is *hot*, ``final >= mins``.
    Only a drain on this tree moves ``mins``, and the tree's
    :class:`~repro.structures.heap.HeapArena` logs the columns it touches
    while a split is open, so after a crossing just those are looked at
    again (Section 4: every new sigma key is above its node's counter).

    For each hot column the split keeps its *crossing*: the first element
    at which the column's counter reaches its heap minimum.  That is a
    ``searchsorted`` of the column's slack at routing time over the
    cumulative weight, in arrival order, of the elements routed through
    it; the cumulative sums depend only on the batch and are kept per
    column, so a re-keyed column is searched again in O(log n).  A tree
    without hot columns fires nothing for the rest of the range, so its
    counters are brought up to ``final`` only when the range ends
    (:meth:`finish`); the scalar crossings of other trees meanwhile bump
    them by exactly their own elements, which ``final`` already holds.
    """

    __slots__ = (
        "slot",
        "tree",
        "rec",
        "weights",
        "counters",
        "seen",
        "crossing",
        "heap",
        "through",
        "ranked",
        "marks",
    )

    def __init__(self, slot: int, tree: "TreeInstance", recs, weights, counters: WorkCounters):
        self.slot = slot
        self.tree = tree
        self.rec = recs[0] if recs else None
        self.weights = weights
        self.counters = counters
        #: column -> the ``mins`` value its hot status was last taken at
        self.seen: Dict[int, int] = {}
        #: hot column -> its crossing; ``heap`` orders the crossings, with
        #: entries whose column moved on left in place until popped
        self.crossing: Dict[int, int] = {}
        self.heap: List[Tuple[int, int]] = []
        self.through: Dict[int, Tuple[object, object]] = {}
        self.ranked = None
        self.marks = None
        if self.rec is None:
            return
        tree.arena.moved = []
        final = self.rec[2]
        mins = tree.mins
        hot = _np.flatnonzero(final >= mins)
        for col, key in zip(hot.tolist(), mins[hot].tolist()):
            self.seen[col] = key
            self._cross(col, key)

    # -- crossings -----------------------------------------------------------

    def _cross(self, col: int, key: int) -> None:
        """Find the crossing of hot column ``col``, whose heap minimum is
        now ``key``."""
        got = self.through.get(col)
        if got is None:
            # The routed pairs ordered by leaf row (built once): column
            # col's elements are the block with rows in [klo, khi), put
            # back in arrival order.
            ranked = self.ranked
            if ranked is None:
                _cnts, _deltas, _final, elems, rows = self.rec
                order = _np.argsort(rows, kind="stable")
                _paths, klo, khi = self.tree.tree.leaf_rows()
                ranked = self.ranked = (rows[order], elems[order], klo, khi)
            rows, elems, klo, khi = ranked
            a = rows.searchsorted(klo.item(col))
            b = rows.searchsorted(khi.item(col))
            elems = _np.sort(elems[a:b])
            got = self.through[col] = (elems, self.weights[elems].cumsum())
        elems, cum = got
        # Slack at routing time, when the counter was final - deltas.
        _cnts, deltas, final, _elems, _rows = self.rec
        x = elems.item(cum.searchsorted(key - final.item(col) + deltas.item(col)))
        self.crossing[col] = x
        heappush(self.heap, (x, col))

    def next_crossing(self) -> Optional[int]:
        """The tree's first crossing from here on, or None."""
        heap, crossing = self.heap, self.crossing
        while heap:
            x, col = heap[0]
            if crossing.get(col) == x:
                return x
            heappop(heap)
        return None

    def refresh(self) -> None:
        """Re-take the columns whose heap a scalar crossing touched."""
        arena = self.tree.arena
        moved = arena.moved
        if not moved:
            return
        arena.moved = []
        final = self.rec[2]
        mins, seen, crossing = self.tree.mins, self.seen, self.crossing
        for col in dict.fromkeys(moved):
            key = mins.item(col)
            if seen.get(col) == key:
                continue
            seen[col] = key
            if final.item(col) >= key:
                self._cross(col, key)
            else:
                crossing.pop(col, None)

    # -- counters ------------------------------------------------------------

    def apply(self, lo: int, hi: int) -> None:
        """Bring the counters through elements ``[lo, hi)``, which make no
        node due (only a tree with hot columns needs this; see the class
        docstring)."""
        cnts, _deltas, _final, elems, rows = self.rec
        a = elems.searchsorted(lo)
        b = elems.searchsorted(hi)
        if a == b:
            return
        # The pairs' descents, less the path padding and the drop-outs'
        # all-sentinel row (both read the column count).
        paths = self.tree.tree.leaf_rows()[0]
        cols = paths[rows[a:b]].ravel()
        real = cols < cnts.size
        cols = cols[real]
        _np.add.at(cnts, cols, _np.repeat(self.weights[elems[a:b]], paths.shape[1])[real])
        # One bump per distinct column touched.
        marks = self.marks
        if marks is None:
            marks = self.marks = _np.zeros(cnts.size, dtype=bool)
        marks[cols] = True
        self.counters.counter_bumps += int(_np.count_nonzero(marks))
        marks[cols] = False

    def finish(self) -> None:
        """Apply everything still pending: the counters become ``final``."""
        if self.rec is not None:
            cnts, _deltas, final, _elems, _rows = self.rec
            self.counters.counter_bumps += int(_np.count_nonzero(cnts != final))
            cnts[...] = final
        self.close()

    def close(self) -> None:
        """Stop the arena's log."""
        self.tree.arena.moved = None


class BatchSplit:
    """The exact first-crossing split of one batch over an engine's trees.

    ``trees`` is the engine's slot list (read live: a crossing may rebuild
    a tree in place).  :meth:`advance` is the engines' ``try_bulk``: the
    first call routes the range once per tree and, when no tree has a hot
    node, applies it whole — exactly the cost of a quiet batch.
    Otherwise each tree gets a :class:`TreeSplit`, and every call brings
    all trees up to the earliest crossing of any tree.  After a crossing
    only a tree rebuilt by it is routed again, over what is left.
    """

    __slots__ = ("trees", "batch", "counters", "splits", "wsum")

    def __init__(self, trees: List[Optional["TreeInstance"]], batch: PreparedBatch, counters: WorkCounters):
        self.trees = trees
        self.batch = batch
        self.counters = counters
        self.splits: Optional[List[TreeSplit]] = None
        self.wsum = None

    def _ingest(self, lo: int, hi: int) -> None:
        """Every tree has taken elements ``[lo, hi)`` (running totals)."""
        wsum = self.wsum
        if wsum is None:
            wsum = self.wsum = [0, *_np.cumsum(self.batch.weights).tolist()]
        weight = wsum[hi] - wsum[lo]
        for tree in self.trees:
            if tree is not None:
                tree.total += weight

    def advance(self, lo: int, hi: int) -> Optional[int]:
        """Apply ``[lo, hi)`` up to its first crossing and return that
        element, or apply all of it and return None."""
        batch, counters = self.batch, self.counters
        splits = self.splits
        if splits is None:
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
                return None
            weights = batch.weights
            splits = self.splits = [
                TreeSplit(slot, tree, recs, weights, counters) for slot, tree, recs in routed
            ]
        else:
            self._after_crossing(lo, hi)
        # Trees without a crossing have no hot column left: they fire
        # nothing more in this range and catch up in ``finish``.
        hot = [(x, s) for x, s in ((s.next_crossing(), s) for s in splits) if x is not None]
        if not hot:
            for s in splits:
                s.finish()
            self._ingest(lo, hi)
            return None
        cross = min(x for x, _s in hot)
        assert cross >= lo, "a crossing behind the split point"
        if cross > lo:
            for _x, s in hot:
                s.apply(lo, cross)
            self._ingest(lo, cross)
        return cross

    def _after_crossing(self, lo: int, hi: int) -> None:
        """Update every split after the scalar crossing at ``lo - 1``."""
        splits = self.splits
        for k, s in enumerate(splits):
            tree = self.trees[s.slot]
            if tree is s.tree:
                s.refresh()
                continue
            # Rebuilt by the crossing (or emptied): a fresh tree whose
            # counters start after it.  Route what is left of the range.
            s.close()
            splits[k] = None
            if tree is not None:
                recs: list = []
                tree.collect_batch(self.batch, lo, hi, recs)
                splits[k] = TreeSplit(s.slot, tree, recs, self.batch.weights, self.counters)
        if None in splits:
            splits[:] = [s for s in splits if s is not None]

    def close(self) -> None:
        """Stop every open split's arena log (after the batch, or when
        it raised part-way)."""
        for s in self.splits or ():
            s.close()


class TreeInstance:
    """One endpoint tree plus the DT trackers of the queries it manages.

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

    ``cnts`` / ``mins`` are the tree's counter store (see
    :class:`~repro.core.endpoint_tree.EndpointTree`) and ``arena`` holds
    every sigma-heap.  ``total`` is the weight ingested since
    construction, which bounds every counter; the engines keep it at or
    below :data:`~repro.core.endpoint_tree.COUNTER_MAX`.
    """

    __slots__ = (
        "trackers",
        "tree",
        "cnts",
        "mins",
        "arena",
        "total",
        "built_count",
        "alive",
        "_scan",
        "_counters",
        "_obs",
    )

    def __init__(
        self,
        entries: Sequence[Tuple[Query, int, int]],
        dims: int,
        counters: WorkCounters,
        scan: bool = False,
        obs=NULL_OBS,
    ):
        self._counters = counters
        self._obs = obs
        self.trackers: Dict[object, QueryTracker] = {}
        rects = []
        for query, tau, consumed in entries:
            if query.query_id in self.trackers:
                raise EngineError(f"duplicate query id {query.query_id!r}")
            self.trackers[query.query_id] = QueryTracker(query, tau, consumed)
            rects.append(query.rect)
        tree = self.tree = EndpointTree(rects, dims, counters)
        self.cnts = tree.cnts
        self.mins = tree.mins
        self.total = 0
        self.arena = start_trackers(
            list(self.trackers.values()),
            tree.cnts,
            tree.mins,
            tree.qptr,
            tree.qcols,
            counters,
            obs,
            scan,
        )
        self.built_count = len(self.trackers)
        self.alive = self.built_count
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
        then drain each due node's heap, popping sigma entries while the
        minimum is at most ``c(u)`` and letting the owning tracker run
        the DT protocol step.  The due nodes (``mins <= cnts``) are
        picked once, before the first drain, and drained in descent
        order.  That is exact: a query's canonical regions are disjoint,
        so the element lies in at most one of them, and a drain re-keys
        the query only at that node and at nodes this element does not
        touch — always above their counters (see
        :meth:`QueryTracker.on_signal`).
        """
        counters = self._counters
        weight = element.weight
        touched = self.tree.columns(element.value)
        cnts = self.cnts
        now = cnts[touched] + weight
        cnts[touched] = now
        self.total += weight
        counters.counter_bumps += len(touched)
        matured: List[Tuple[Query, int]] = []
        if self._scan:
            due_cols, due_counts = touched.tolist(), now.tolist()
        else:
            due = self.mins[touched] <= now
            if not _np.count_nonzero(due):
                return matured
            due_cols, due_counts = touched[due].tolist(), now[due].tolist()
        obs = self._obs
        arena = self.arena
        for i, c in zip(due_cols, due_counts):
            while True:
                entry = arena.first_due(i, c)
                if entry < 0:
                    break
                tracker: QueryTracker = arena.payload(entry)
                weight_seen = tracker.on_signal(arena, entry, c, counters, obs)
                if weight_seen is not None:
                    matured.append((tracker.query, weight_seen))
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

        Appends the record ``(cnts, deltas, final, elems, rows)`` to
        ``out`` — the counter store, the range's per-column deltas,
        ``final = cnts + deltas`` and the routed ``(element, leaf row)``
        pairs (see
        :meth:`~repro.core.endpoint_tree.EndpointTree.route_batch`) — and
        returns True when the range is quiet here: no node's counter
        reaches its heap minimum by the range's end, so none can signal
        inside it.  Nothing is applied either way.  ``hints`` and
        ``stash`` are unused; like :meth:`resync_batch` they stay only
        while perfbench's ledger wraps these methods by name.
        """
        routed = self.tree.route_batch(
            batch.values[lo:hi], batch.weights_f64[lo:hi], batch.indices(lo, hi)
        )
        if routed is None:
            return True
        deltas, elems, rows = routed
        cnts = self.cnts
        final = cnts + deltas
        out.append((cnts, deltas, final, elems, rows))
        # A node would signal inside the range iff its counter plus the
        # range's delta reaches its heap minimum.  Untouched nodes (delta
        # zero) never trigger here: between elements no due signal is
        # left undrained, so ``cnts < mins``.
        return not (final >= self.mins).any()

    def resync_batch(
        self,
        batch: PreparedBatch,
        lo: int,
        hi: int,
        hints=None,
        stash=None,
    ) -> None:
        """No-op, never called: scalar crossings write the counter store
        directly, so nothing is left to fold back.  Kept only because
        perfbench's traced ledger wraps it by name; it goes when a
        benchmark change retires that wrap."""

    # -- management ---------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        """TERMINATE: detach the query's heap entries; skeleton unchanged."""
        tracker = self.trackers.get(query_id)
        if tracker is None or tracker.state is TrackerState.DONE:
            return False
        tracker.detach(self.arena, self._counters)
        self.alive -= 1
        return True

    def alive_entries(self) -> List[Tuple[Query, int, int]]:
        """Snapshot of alive queries with re-based remaining thresholds.

        For each alive query the exact collected weight ``W(q)`` (sum of
        its canonical counters) is subtracted from its epoch-relative
        threshold — Section 4's threshold adjustment during rebuilding —
        and added to the query's ``consumed`` offset.
        """
        out: List[Tuple[Query, int, int]] = []
        for tracker in self.trackers.values():
            if tracker.state is TrackerState.DONE:
                continue
            collected = tracker.collected_weight()
            remaining = tracker.tau - collected
            if remaining < 1:
                raise AssertionError(
                    f"query {tracker.query.query_id!r} should have matured: "
                    f"remaining threshold {remaining}"
                )
            out.append((tracker.query, remaining, tracker.consumed + collected))
        return out

    def contains(self, query_id: object) -> bool:
        tracker = self.trackers.get(query_id)
        return tracker is not None and tracker.state is not TrackerState.DONE

    def collected_weight(self, query_id: object) -> int:
        """Exact W(q) for an alive query: canonical counter sum plus the
        weight absorbed in earlier tree epochs (Section 4's derivation,
        ``O(h_q)`` = polylog time)."""
        tracker = self.trackers.get(query_id)
        if tracker is None or tracker.state is TrackerState.DONE:
            raise KeyError(f"query {query_id!r} is not alive")
        return tracker.consumed + tracker.collected_weight()

    @property
    def needs_rebuild(self) -> bool:
        """Global-rebuilding trigger: alive count halved since build."""
        return self.built_count > 0 and 2 * self.alive <= self.built_count

    def stats(self) -> Dict[str, object]:
        """Structural snapshot of this tree (diagnostics)."""
        root = self.tree.root
        return {
            "alive": self.alive,
            "built": self.built_count,
            "primary_height": self.tree.height(),
            "primary_nodes": 0 if root is None else root.n,
            "heap_entries": len(self.arena),
        }
