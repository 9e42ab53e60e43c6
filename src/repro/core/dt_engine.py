"""One endpoint tree and the shared batched-ingestion driver (Section 4).

:class:`TreeInstance` bundles one (static) endpoint tree with the query
trackers living on it and implements the per-element hot path: counter
maintenance along the descent paths, then the heap-drain slack inspection
at each due node.  Its counters and heap minima live in one int64 store
(``cnts`` / ``mins``, one column per last-dimension node) that the scalar
path and the batched path both read and write directly.

:func:`bisect_batch` is the slack-aware batch driver, and
:func:`apply_collected` adds a safe range's deltas to the store.  The
engines built on them — the logarithmic method and its one-tree Section 4
variant — live in :mod:`repro.core.logmethod`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..obs.observer import NULL_OBS
from ..streams.element import StreamElement
from ..structures.heap import AddressableMinHeap, ScanMinList
from .batch import PreparedBatch
from .endpoint_tree import EndpointTree, ETNode, sync_min
from .engine import Engine, EngineError, WorkCounters
from .events import MaturityEvent
from .query import Query
from .tracker import QueryTracker, TrackerState

#: Ranges at most this long skip the bulk attempt and replay element by
#: element — below the cutoff a vectorized pass costs more than the
#: scalar loop it would replace.
BATCH_SCALAR_CUTOFF = 4

#: Failed bulk attempts allowed per batch before the driver stops trying
#: and replays the rest scalar.  On slack-starved workloads (signals due
#: inside almost every range) bisection would otherwise pay a vectorized
#: pass per level per failure; the fuel bound keeps the worst case within
#: a small constant factor of plain scalar processing.
BATCH_FAIL_FUEL = 24

#: Consecutive fuel-exhausted batches before the driver backs off to
#: plain scalar replay, and how many *elements* the backoff lasts
#: (element-denominated so small batches don't probe proportionally more
#: often).  On a persistently slack-starved stream the probe batches are
#: then a small minority, bounding steady-state overhead at a few percent
#: of scalar throughput while still re-probing often enough to catch the
#: stream leaving the starved regime.
BATCH_BACKOFF_STRIKES = 2
BATCH_BACKOFF_ELEMENTS = 16384


def apply_collected(out, counters: WorkCounters) -> None:
    """Apply the ``(columnar tree, deltas)`` pairs a safe ``bulk_collect``
    built.

    Safety (``min H(u) > c(u) + delta(u)`` at every touched node) means
    no heap drain is needed: the range cannot fire a single signal, so
    bumping the counters *is* the whole of Section 4's per-element work
    for the range.  Each tree's deltas are added to its slice of the
    counter store in place; one bump per touched node is what lands in
    the machine-independent accounting — the saved work is the point.
    """
    bumps = 0
    for col, deltas in out:
        # deltas[-1] is the columnar scratch slot (paths padding), not a
        # node; only real node bumps enter the store and the accounting.
        real = deltas[:-1]
        col.cnts += real
        bumps += int(_np.count_nonzero(real))
    counters.counter_bumps += bumps


def bisect_batch(engine: Engine, batch: PreparedBatch, timestamp: int, try_bulk, run_scalar):
    """Shared slack-aware batch bisection driver (docs/PERFORMANCE.md)
    amortising the Section 4 per-element hot loop over whole batches.

    Processes batch ranges in arrival order from an explicit stack:
    ``try_bulk(lo, hi, hints, stash)`` either applies the whole range
    (True) or declines (False), in which case the range is split in half
    and both halves are retried — down to :data:`BATCH_SCALAR_CUTOFF`
    (or until the failure fuel runs out), where
    ``run_scalar(lo, hi, events, hints, stash)`` replays the engine's
    exact per-element code path.  Because bulk application only ever
    happens on ranges that provably produce no events, and scalar leaves
    replay the exact per-element code path (including rebuild checks),
    the event stream is bit-identical to one-at-a-time processing.

    Delta vectors are additive over disjoint element ranges, so the
    driver caches each attempted range's per-tree deltas (``stash``)
    and hands every *right* half the exact difference ``parent - left``
    as ``hints`` — a right sibling never pays a second vectorized
    routing pass.  The cached vectors depend only on the batch values
    and the frozen skeleton, so they stay exact across scalar replays
    and heap mutations within the batch; a mid-batch rebuild replaces
    the columnar tree itself, which misses the tree-keyed lookup and
    routes fresh.
    """
    events: List[MaturityEvent] = []
    obs = engine.obs
    if engine._bulk_backoff > 0:
        # Recent batches exhausted their fuel: the stream is slack-starved
        # right now, so skip the probing entirely for a while.  A maturity
        # detaches its tracker's heap entries — often the very entries
        # that starved the slack — so it ends the backoff early.
        engine._bulk_backoff -= batch.size
        if obs.enabled:
            obs.columnar_fallback(batch.size)
        run_scalar(0, batch.size, events, None)
        if events:
            engine._bulk_backoff = 0
            engine._bulk_strikes = 0
        return events
    stack: List[Tuple[int, int, Optional[Tuple[int, int]]]] = [
        (0, batch.size, None)
    ]
    cache: Dict[Tuple[int, int], dict] = {}
    # Scale the failure budget with the batch so small batches don't pay
    # a disproportionate number of failed vectorized passes per element.
    fuel = min(BATCH_FAIL_FUEL, max(4, batch.size >> 5))
    while stack:
        lo, hi, parent = stack.pop()
        hints = None
        if parent is not None and lo != parent[0]:
            # Right half: derive deltas from the parent attempt minus the
            # (already processed) left sibling.  Only states routed by
            # *both* attempts are derivable; a None entry means the range
            # routed nowhere, i.e. an all-zero delta vector.
            parent_deltas = cache.pop(parent, None)
            left_deltas = cache.pop((parent[0], lo), None)
            if parent_deltas is not None and left_deltas is not None:
                hints = {}
                for state, pd in parent_deltas.items():
                    if pd is None:
                        hints[state] = None
                    elif state in left_deltas:
                        ld = left_deltas[state]
                        hints[state] = pd if ld is None else pd - ld
        if hi - lo > BATCH_SCALAR_CUTOFF and fuel:
            stash: dict = {}
            if try_bulk(lo, hi, hints, stash):
                if obs.enabled:
                    obs.columnar_descent(hi - lo)
                cache[(lo, hi)] = stash
                continue
            cache[(lo, hi)] = stash
            fuel -= 1
            if obs.enabled:
                obs.batch_bisected(hi - lo)
            mid = (lo + hi) >> 1
            stack.append((mid, hi, (lo, hi)))
            stack.append((lo, mid, (lo, hi)))
        else:
            if obs.enabled:
                obs.columnar_fallback(hi - lo)
            stash = {}
            run_scalar(lo, hi, events, hints, stash)
            cache[(lo, hi)] = stash
    if fuel == 0:
        engine._bulk_strikes += 1
        if engine._bulk_strikes >= BATCH_BACKOFF_STRIKES:
            engine._bulk_strikes = 0
            engine._bulk_backoff = BATCH_BACKOFF_ELEMENTS
    else:
        engine._bulk_strikes = 0
    return events


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

    ``cnts`` / ``mins`` are the tree's counter store (see
    :class:`~repro.core.endpoint_tree.EndpointTree`); ``nodes`` maps a
    store column to its node.  ``total`` is the weight ingested since
    construction, which bounds every counter; the engines keep it at or
    below :data:`~repro.core.endpoint_tree.COUNTER_MAX`.
    """

    __slots__ = (
        "trackers",
        "tree",
        "cnts",
        "mins",
        "nodes",
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
        heap_factory=AddressableMinHeap,
        obs=NULL_OBS,
    ):
        self._counters = counters
        self._obs = obs
        self.trackers: Dict[object, QueryTracker] = {}
        items = []
        for query, tau, consumed in entries:
            if query.query_id in self.trackers:
                raise EngineError(f"duplicate query id {query.query_id!r}")
            tracker = QueryTracker(query, tau, consumed)
            self.trackers[query.query_id] = tracker
            items.append((query.rect, tracker.nodes))
        tree = self.tree = EndpointTree(items, 0, dims, counters)
        cnts = self.cnts = tree.cnts
        mins = self.mins = tree.mins
        self.nodes = tree.nodes
        self.total = 0
        # Deduplicate by column but keep registration order so the
        # heapify sweep is deterministic (dict preserves insertion).
        heapified: Dict[int, ETNode] = {}
        for tracker in self.trackers.values():
            tracker.start(cnts, mins, counters, heap_factory, obs)
            for node in tracker.nodes:
                heapified[node.idx] = node
        for node in heapified.values():
            node.heap.heapify()
            sync_min(mins, node)
        self.built_count = len(self.trackers)
        self.alive = self.built_count
        #: The no-heap ablation inspects every touched node on every
        #: bump: pre-filtering by ``mins`` would hand it the very
        #: per-node minimum whose absence it measures.
        self._scan = heap_factory is ScanMinList

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
        nodes = self.nodes
        for i, c in zip(due_cols, due_counts):
            heap = nodes[i].heap
            if heap is None:
                continue  # heap-less (scan ablation, or c(u) at COUNTER_MAX)
            node = nodes[i]
            while True:
                entry = heap.first_due(c)
                if entry is None:
                    break
                tracker: QueryTracker = entry.payload
                weight_seen = tracker.on_signal(node, entry, c, counters, obs)
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
        """Slack-check the batch range ``[lo, hi)`` against this tree.

        Appends ``(columnar tree, deltas)`` pairs to ``out`` and returns
        True when the range is bulk-safe here (see
        :meth:`~repro.core.endpoint_tree.EndpointTree.bulk_collect`);
        nothing is applied either way — the caller applies via
        :func:`apply_collected` once every participating tree agrees.
        """
        return self.tree.bulk_collect(
            batch.values,
            batch.weights_f64,
            batch.indices(lo, hi),
            out,
            hints,
            stash,
        )

    def resync_batch(
        self,
        batch: PreparedBatch,
        lo: int,
        hi: int,
        hints=None,
        stash=None,
    ) -> None:
        """Hook the batch driver calls after replaying ``[lo, hi)`` scalar.

        The replay wrote this tree's counter store directly and kept its
        heap minima exact as it went, so nothing is left to fold back.
        The call stays so the layer keeps its name in traced runs
        (perfbench's ledger times it; it reads about zero).
        """

    # -- management ---------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        """TERMINATE: detach the query's heap entries; skeleton unchanged."""
        tracker = self.trackers.get(query_id)
        if tracker is None or tracker.state is TrackerState.DONE:
            return False
        tracker.detach(self._counters)
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
        heap_entries = 0
        nodes = 0
        for node in self.tree.iter_nodes():
            nodes += 1
            if node.heap is not None:
                heap_entries += len(node.heap)
        return {
            "alive": self.alive,
            "built": self.built_count,
            "primary_height": self.tree.height(),
            "primary_nodes": nodes,
            "heap_entries": heap_entries,
        }
