"""The full dynamic RTS engine: logarithmic method over endpoint trees
(paper Section 5) — the algorithm of Theorem 1.

The endpoint tree of Section 4 is *semi-dynamic*: deletions (maturity,
TERMINATE) are easy, but inserting a new query's endpoints would trigger
BST rebalancing that disrupts the canonical node sets of many queries.
The logarithmic method (Bentley–Saxe) converts the semi-dynamic structure
into a fully dynamic one.  The engine maintains ``g = O(log m)`` endpoint
trees ``T_1 ... T_g`` such that:

* **P1** ``g = O(log m)``;
* **P2** every alive query is managed by exactly one tree;
* **P3** tree ``T_i`` manages at most ``2^(i-1)`` alive queries.

``REGISTER(q)`` finds the smallest ``j`` with
``sum_{i<=j} m_alive(i) < 2^(j-1)`` (Eq. 8), merges the alive queries of
``T_1 ... T_j`` together with ``q`` into a freshly built ``T_j`` — with
every moved query's threshold re-based by the weight it has already
collected — and empties the lower slots.  A query only ever moves to a
higher-ranked tree, so it is charged ``O(log m)`` moves overall.

Each incoming element updates the counters of every tree (``O(log^2 m)``
for d = 1).  Global rebuilding (Section 4) applies *per tree*: when a
tree's alive count halves, it is rebuilt in place, which preserves P3
because alive counts only shrink between merges.

The module holds all three DT engines:

* :class:`DTEngine` — the logarithmic method above (``"dt"``);
* :class:`StaticDTEngine` — Section 4's single tree with global
  rebuilding (``"dt-static"``).  It is the logarithmic method with every
  registration merging *all* trees: with every slot emptied, Eq. (8)
  picks the smallest slot that fits every alive query, so one tree holds
  them all.  A mid-stream ``register`` therefore rebuilds the whole tree
  — the naive dynamization Section 5 improves upon, kept as the
  ablation baseline for that design choice;
* :class:`ScanDTEngine` — the logarithmic method without the per-node
  min-heaps (``"dt-scan"``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..streams.element import StreamElement
from .batch import prepare_batch
from .dt_engine import BatchSplit, TreeInstance, bisect_batch
from .endpoint_tree import COUNTER_MAX
from .engine import Engine, EngineError
from .events import MaturityEvent
from .query import Query


class DTEngine(Engine):
    """The paper's proposed method ("DT" in the experiment legends).

    Processes ``n`` elements and ``m`` queries in
    ``O(n log^(d+1) m + m log^(d+1) m log tau_max)`` time with
    ``O(m_alive log^d m_alive)`` space — Theorem 1.

    Parameters
    ----------
    dims:
        Data-space dimensionality ``d`` (any constant >= 1).
    """

    name = "DT"

    def __init__(self, dims: int = 1, scan: bool = False):
        super().__init__(dims)
        self._scan = scan
        #: Slot s holds T_{s+1} (paper indexing is 1-based); None = empty.
        self._trees: List[Optional[TreeInstance]] = []
        #: query_id -> slot index of the tree currently managing it.
        self._locator: Dict[object, int] = {}
        #: The split of the batch being ingested (see :meth:`process`).
        self._split: Optional[BatchSplit] = None

    # -- registration (Section 5) ----------------------------------------

    def register(self, query: Query) -> None:
        self.validate_query(query)
        if query.query_id in self._locator:
            raise EngineError(f"query id {query.query_id!r} already registered")
        self._merge_into_slot([(query, query.threshold, 0)])

    def register_batch(self, queries: Iterable[Query]) -> None:
        """Register many queries at once with a single merge.

        Follows the same Eq. (8) rule as ``register``, with all ``k``
        queries entering together: only the slots the rule picks are
        merged, so a small batch on a loaded engine builds a small tree.
        On an empty engine it builds one tree holding every query, which
        reproduces the paper's static scenario (all queries present
        before the first element) at construction cost ``O(m log m)``.
        """
        new_entries: List[Tuple[Query, int, int]] = []
        seen = set(self._locator)
        for query in queries:
            self.validate_query(query)
            if query.query_id in seen:
                raise EngineError(f"query id {query.query_id!r} already registered")
            seen.add(query.query_id)
            new_entries.append((query, query.threshold, 0))
        if new_entries:
            self._merge_into_slot(new_entries)

    def restore_entries(self, entries: Iterable) -> None:
        """Checkpoint restore: one merge over re-based thresholds.

        Equivalent to the Section 5 merge a batch registration performs,
        except each ``(query, consumed)`` pair enters with the threshold
        re-based by its checkpointed collected weight — Section 4's
        rebuild adjustment — so all future maturity events are identical
        to the pre-checkpoint run's.
        """
        if self._locator:
            raise EngineError("restore_entries requires a fresh engine")
        rebased: List[Tuple[Query, int, int]] = []
        seen = set()
        for query, consumed in entries:
            self.validate_query(query)
            if query.query_id in seen:
                raise EngineError(f"duplicate query id {query.query_id!r}")
            seen.add(query.query_id)
            remaining = query.threshold - consumed
            if remaining < 1:
                raise EngineError(
                    f"query {query.query_id!r} already matured at checkpoint "
                    f"time (consumed {consumed} of {query.threshold})"
                )
            rebased.append((query, remaining, consumed))
        if rebased:
            self._merge_into_slot(rebased)

    def _merge_into_slot(self, new_entries: List[Tuple[Query, int, int]]) -> None:
        """Merge lower trees plus ``new_entries`` into one rebuilt slot.

        Implements Eq. (8) for ``k = len(new_entries)`` queries at once:
        the target slot ``s`` (0-based; ``j = s + 1``) is the smallest
        with ``k + sum_{i<=s} m_alive(i) <= 2^s``, empty and missing
        slots counting 0.  On an empty engine that is the smallest
        capacity that fits all ``k``.
        """
        trees = self._trees
        cumulative = len(new_entries)
        slot = 0
        while True:
            if slot < len(trees) and trees[slot] is not None:
                cumulative += trees[slot].alive
            if cumulative <= (1 << slot):
                break
            slot += 1

        # Collect alive queries (with re-based thresholds) from the merged
        # prefix, then discard those trees.
        entries = list(new_entries)
        for s in range(min(slot + 1, len(trees))):
            tree = trees[s]
            if tree is None:
                continue
            entries.extend(tree.alive_entries())
            trees[s] = None

        while len(trees) <= slot:
            trees.append(None)
        instance = TreeInstance(
            entries, self.dims, self.counters, self._scan, self.obs
        )
        trees[slot] = instance
        for query, _tau, _consumed in entries:
            self._locator[query.query_id] = slot
        if self.obs.enabled:
            self.obs.logmethod_merge(slot, len(entries))

    # -- stream processing (Section 5) --------------------------------------

    def _make_room(self, weight: int) -> None:
        """Keep every tree's counters in int64 for an ingest of ``weight``.

        A tree's counters never exceed the weight it has ingested since
        it was built (``total``).  A tree the ingest would carry past
        :data:`COUNTER_MAX` is rebuilt first — Section 4's rebuild, which
        re-bases every threshold by the weight already collected and
        starts the counters at zero.  An ingest heavier than the bound
        itself cannot fit any tree: it raises before any state changes.
        (``process`` runs the same rule inline, per tree.)
        """
        self.validate_weight(weight)
        for slot, tree in enumerate(self._trees):
            if tree is not None and tree.total > COUNTER_MAX - weight:
                self._rebuild_slot(slot, "overflow")

    def validate_weight(self, weight: int) -> None:
        """An ingest heavier than :data:`COUNTER_MAX` fits no tree's int64
        counters (Section 4's rebuild cannot make room for it)."""
        if weight > COUNTER_MAX:
            raise EngineError(
                f"ingest weight {weight} exceeds the counter bound "
                f"{COUNTER_MAX} (2^63 - 1)"
            )

    def process(self, element: StreamElement, timestamp: int) -> List[MaturityEvent]:
        events: List[MaturityEvent] = []
        split = self._split
        if split is not None and split.pending is element:
            # A crossing of the batch being ingested: the split has
            # brought the counters through it and knows its due nodes.
            for slot, tree, matured in split.cross():
                if matured:
                    self._matured(slot, tree, matured, timestamp, events)
            return events
        self.validate_element(element)
        weight = element.weight
        room = COUNTER_MAX - weight
        if room < 0:
            self._make_room(weight)  # raises: no tree can take it
        for slot, tree in enumerate(self._trees):
            if tree is None:
                continue
            if tree.total > room:
                tree = self._rebuild_slot(slot, "overflow")
                if tree is None:
                    continue
            matured = tree.process(element)
            if matured:
                self._matured(slot, tree, matured, timestamp, events)
        return events

    def _matured(self, slot: int, tree: TreeInstance, matured, timestamp: int, events) -> None:
        """Report the maturities of ``tree`` (slot ``slot``) at one element
        and rebuild the tree if they halved it (only a maturity can: a
        termination rebuilds at once)."""
        for query, weight_seen in matured:
            del self._locator[query.query_id]
            events.append(
                MaturityEvent(query=query, timestamp=timestamp, weight_seen=weight_seen)
            )
        if tree.needs_rebuild:
            self._rebuild_slot(slot)

    def process_batch(
        self, elements, timestamp: int
    ) -> List[MaturityEvent]:
        """Batched ingestion across all logarithmic-method trees, split
        exactly at each crossing (see :func:`bisect_batch`).

        The batch is routed once per tree.  A crossing — the first
        element at which some tree's counter reaches its heap minimum —
        goes through :meth:`process`, which drains it, through the open
        split, in the trees it is due in; every tree that can signal
        later in the batch is first brought up to and through it, and
        the others catch up at the batch end.  Trees never interact
        (each query's trackers live in exactly one tree), so the per-
        element order of Section 5 — slots ascending within each element
        — is preserved.
        """
        batch = prepare_batch(elements, self.dims)
        if batch.total > COUNTER_MAX:
            # No tree's counters can take the whole batch at once: its
            # elements go in one by one, each after the overflow rebuilds
            # it needs (a single element too heavy raises first).
            self.validate_weight(max(e.weight for e in batch.elements))
            return super().process_batch(batch, timestamp)
        if not batch.size:
            return []
        self._make_room(batch.total)
        scalar_elements = batch.elements
        split = self._split = BatchSplit(self._trees, batch, self.counters)

        def run_scalar(
            lo: int, hi: int, events: List[MaturityEvent], hints=None, stash=None
        ) -> None:
            for i in range(lo, hi):
                events.extend(self.process(scalar_elements[i], timestamp + i))

        try:
            return bisect_batch(self, batch, timestamp, split.try_bulk, run_scalar)
        finally:
            self._split = None
            split.close()

    # -- termination ------------------------------------------------------

    def terminate(self, query_id: object) -> bool:
        slot = self._locator.get(query_id)
        if slot is None:
            return False
        tree = self._trees[slot]
        assert tree is not None, "locator points at an empty slot"
        removed = tree.terminate(query_id)
        if removed:
            del self._locator[query_id]
            if tree.needs_rebuild:
                self._rebuild_slot(slot)
        return removed

    def _rebuild_slot(self, slot: int, kind: str = "halved") -> Optional[TreeInstance]:
        """Per-tree global rebuilding (Section 4) in place.

        Rebuilding never grows the alive count, so property P3 holds for
        the slot afterwards.  A tree whose queries all disappeared becomes
        an empty placeholder.  ``kind`` labels the trigger in telemetry:
        ``"halved"`` (alive count halved) or ``"overflow"`` (see
        :meth:`_make_room`).  Returns the new tree, or None.
        """
        tree = self._trees[slot]
        assert tree is not None
        entries = tree.alive_entries()
        if not entries:
            self._trees[slot] = None
            return None
        tree = self._trees[slot] = TreeInstance(
            entries, self.dims, self.counters, self._scan, self.obs
        )
        if self.obs.enabled:
            self.obs.rebuild(kind, len(entries), heap_entries=tree.stats()["heap_entries"])
        return tree

    # -- introspection ------------------------------------------------------

    def attach_observability(self, obs) -> None:
        super().attach_observability(obs)
        for tree in self._trees:
            if tree is not None:
                tree.set_observability(self.obs)

    @property
    def alive_count(self) -> int:
        return len(self._locator)

    @property
    def tree_count(self) -> int:
        """Number of non-empty endpoint trees (``<= g``; P1 bounds it)."""
        return sum(1 for tree in self._trees if tree is not None)

    def slot_sizes(self) -> List[int]:
        """Alive query count per slot — tests assert P3 on this."""
        return [tree.alive if tree is not None else 0 for tree in self._trees]

    def collected_weight(self, query_id: object) -> int:
        slot = self._locator.get(query_id)
        if slot is None:
            raise KeyError(f"query {query_id!r} is not alive")
        tree = self._trees[slot]
        assert tree is not None, "locator points at an empty slot"
        return tree.collected_weight(query_id)

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["slots"] = [
            None if tree is None else tree.stats() for tree in self._trees
        ]
        return payload


class StaticDTEngine(DTEngine):
    """Section 4's algorithm: one endpoint tree, global rebuilding.

    ``register_batch`` is the intended entry point (one-time registration).
    Every registration merges all trees, so ``register`` mid-stream
    triggers a *full* rebuild of the tree — an O(m log m) operation per
    registration that this engine accepts for completeness and for
    ablating the logarithmic method against.
    """

    name = "DT-static"

    def _merge_into_slot(self, new_entries: List[Tuple[Query, int, int]]) -> None:
        # Alive queries first, new ones last: the order fixes the heap
        # tie-breaks, hence the order of same-element maturity events.
        entries: List[Tuple[Query, int, int]] = []
        for slot, tree in enumerate(self._trees):
            if tree is not None:
                entries.extend(tree.alive_entries())
                self._trees[slot] = None
        rebuilt = bool(entries)
        entries.extend(new_entries)
        super()._merge_into_slot(entries)
        if rebuilt and self.obs.enabled:
            # Registering on a live tree forces the full rebuild this
            # engine exists to ablate; the initial build is not a rebuild.
            self.obs.rebuild("static-register", len(entries))

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        tree = next((t for t in self._trees if t is not None), None)
        payload["tree"] = tree.stats() if tree is not None else None
        return payload


class ScanDTEngine(DTEngine):
    """Ablation: DT without the per-node min-heaps of Section 4.

    Slack inspection scans every query at a node on each counter
    bump — the naive strategy the paper calls "overly expensive".
    """

    name = "DT-scan"

    def __init__(self, dims: int = 1):
        super().__init__(dims, scan=True)
