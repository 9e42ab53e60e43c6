"""The invariant catalogue: one validator per structure / engine.

Every validator is a generator ``(obj, level) -> Iterator[Violation]``
registered with :func:`repro.sanitize.checker.register_checker`.  The
catalogue (with the paper sections each invariant protects) is documented
in ``docs/CORRECTNESS.md``; identifiers here must stay in sync with it.

The validators consolidate the ad-hoc ``check_invariants``/``validate``
helpers that used to be duplicated across ``structures/`` — those methods
now delegate here via :func:`repro.sanitize.check`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..baselines.interval_engine import IntervalTreeEngine
from ..baselines.naive import NaiveEngine
from ..baselines.rtree_engine import RTreeEngine
from ..baselines.seg_intv_engine import SegIntvEngine
from ..core.dt_engine import TreeInstance
from ..core.endpoint_tree import COUNTER_MAX, ColumnarTree, EndpointTree, ETNode
from ..core.engine import Engine
from ..core.logmethod import DTEngine
from ..core.system import RTSSystem
from ..core.tracker import FINAL_PHASE_FACTOR, QueryTracker, TrackerState
from ..dt.coordinator import Coordinator
from ..dt.faults import FaultyNetwork
from ..dt.reliable import (
    TRANSPORT_OVERHEAD_FACTOR,
    TRANSPORT_OVERHEAD_SLACK,
    ReliableChannel,
)
from ..shard.executor import ParallelExecutor, SerialExecutor
from ..shard.system import ShardedRTSSystem
from ..structures.heap import AddressableMinHeap, ScanMinList
from ..structures.interval_tree import CenteredIntervalTree
from ..structures.rtree import RTree, mbr_union
from ..structures.seg_intv_tree import SegIntvTree
from ..structures.segment_tree import SegmentTree
from .checker import Violation, level_covers, register_checker


def _ctx(**kwargs) -> Dict[str, object]:
    return kwargs


def max_dt_rounds(tau: int) -> int:
    """Upper bound on normal DT rounds for remaining threshold ``tau``.

    Each completed round removes at least a third of the remaining
    threshold (Section 3.2: ``tau' <= 2 tau / 3`` whenever ``tau > 6h``),
    so the round count is at most ``log_{3/2} tau`` plus slop for the
    opening and closing rounds.
    """
    return math.ceil(math.log(max(tau, 2)) / math.log(1.5)) + 2


def max_dt_messages(h: int, tau: int) -> int:
    """Upper bound on DT messages for one instance (Section 3.2).

    Per completed round: ``h`` signals, ``2h`` counter collection, and
    ``h`` for the next slack (or final-phase) announcement; plus the
    opening announcement, at most ``h - 1`` signals of an unfinished
    round, and at most ``6h`` forwarded deltas in the final phase.  The
    closed form below dominates all of that — the protocol's
    ``O(h log tau)`` bound with explicit constants.
    """
    return h * (5 * max_dt_rounds(tau) + 8)


# ---------------------------------------------------------------------------
# Addressable heaps (Section 4, Eq. 5)
# ---------------------------------------------------------------------------


@register_checker(AddressableMinHeap)
def validate_min_heap(heap: AddressableMinHeap, level: str) -> Iterator[Violation]:
    """Heap order plus handle-position bookkeeping."""
    if not level_covers(level, "full"):
        return
    arr = heap._arr  # rtslint: disable=heap-internals
    subject = f"AddressableMinHeap(len={len(arr)})"
    for i, entry in enumerate(arr):
        pos = entry._pos  # rtslint: disable=heap-internals
        if pos != i:
            yield Violation(
                "heap-handle",
                f"entry at slot {i} records position {pos}",
                section="S4",
                subject=subject,
                context=_ctx(slot=i, recorded=pos, key=entry.key),
            )
        if i > 0:
            parent = arr[(i - 1) >> 1]
            if parent.key > entry.key:
                yield Violation(
                    "heap-order",
                    f"parent key {parent.key!r} > child key {entry.key!r} "
                    f"at slot {i}",
                    section="S4",
                    subject=subject,
                    context=_ctx(slot=i, parent_key=parent.key, child_key=entry.key),
                )


@register_checker(ScanMinList)
def validate_scan_list(heap: ScanMinList, level: str) -> Iterator[Violation]:
    """The ablation container has no order, but handles must be exact."""
    if not level_covers(level, "full"):
        return
    arr = heap._arr  # rtslint: disable=heap-internals
    for i, entry in enumerate(arr):
        pos = entry._pos  # rtslint: disable=heap-internals
        if pos != i:
            yield Violation(
                "heap-handle",
                f"scan-list entry at slot {i} records position {pos}",
                section="S4",
                subject=f"ScanMinList(len={len(arr)})",
                context=_ctx(slot=i, recorded=pos, key=entry.key),
            )


# ---------------------------------------------------------------------------
# Endpoint trees (Sections 4 and 6)
# ---------------------------------------------------------------------------


@register_checker(EndpointTree)
def validate_endpoint_tree(tree: EndpointTree, level: str) -> Iterator[Violation]:
    """Jurisdiction tiling, per-dimension layering, the counter store."""
    if not level_covers(level, "full"):
        return
    yield from _walk_level(tree)
    for owner, col in _column_trees(tree):
        yield from _validate_counter_store(owner, col)


def _walk_level(tree: EndpointTree) -> Iterator[Violation]:
    stack: List[ETNode] = [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        subject = repr(node)
        if node.lo >= node.hi:
            yield Violation(
                "jurisdiction-empty",
                f"jurisdiction [{node.lo!r}, {node.hi!r}) is empty",
                section="S4",
                subject=subject,
                context=_ctx(dim=tree.dim),
            )
        if (node.left is None) != (node.right is None):
            yield Violation(
                "skeleton-shape",
                "node has exactly one child (skeleton must be proper)",
                section="S4",
                subject=subject,
                context=_ctx(dim=tree.dim),
            )
        elif node.left is not None:
            left, right = node.left, node.right
            if left.lo != node.lo or right.hi != node.hi or left.hi != right.lo:
                yield Violation(
                    "jurisdiction-tiling",
                    "children do not tile the parent jurisdiction "
                    f"([{left.lo!r},{left.hi!r}) + [{right.lo!r},{right.hi!r}) "
                    f"!= [{node.lo!r},{node.hi!r}))",
                    section="S4",
                    subject=subject,
                    context=_ctx(dim=tree.dim),
                )
            stack.append(left)
            stack.append(right)
        if tree.last_dim:
            if node.secondary is not None:
                yield Violation(
                    "dimension-layering",
                    "last-dimension node carries a secondary tree",
                    section="S6",
                    subject=subject,
                    context=_ctx(dim=tree.dim),
                )
        else:
            if node.heap is not None:
                yield Violation(
                    "dimension-layering",
                    "non-final-dimension node carries a heap "
                    "(only last-dimension nodes hold H(u))",
                    section="S6",
                    subject=subject,
                    context=_ctx(dim=tree.dim),
                )
            if node.idx != -1:
                yield Violation(
                    "dimension-layering",
                    "non-final-dimension node owns a counter column "
                    "(only last-dimension nodes count weight)",
                    section="S6",
                    subject=subject,
                    context=_ctx(dim=tree.dim, column=node.idx),
                )
            if node.secondary is not None:
                if node.secondary.dim != tree.dim + 1:
                    yield Violation(
                        "dimension-layering",
                        f"secondary tree indexes dim {node.secondary.dim}, "
                        f"expected {tree.dim + 1}",
                        section="S6",
                        subject=subject,
                    )
                yield from _walk_level(node.secondary)


def _column_trees(tree: EndpointTree) -> Iterator[Tuple[EndpointTree, ColumnarTree]]:
    """Yield ``(last-dim tree, its ColumnarTree)`` over all levels."""
    if tree.last_dim:
        if tree._col is not None:
            yield tree, tree._col
        return
    for node in tree.iter_nodes():
        if node.secondary is not None:
            yield from _column_trees(node.secondary)


def _validate_counter_store(tree: EndpointTree, col: ColumnarTree) -> Iterator[Violation]:
    """The one counter store, on one last-dimension tree's slice of it.

    ``cnts`` holds every ``c(u)`` and nothing else does, so the Section 4
    identities are checked on it directly: counters are non-negative and
    every internal node counts exactly what its two children count (an
    element bumps a whole root-to-leaf path).  ``mins`` must equal each
    heap's minimum key, capped at :data:`COUNTER_MAX` — the value an
    empty or absent heap reads — because the slack checks trust it.
    """
    import numpy as np

    cnts, mins, base = col.cnts, col.mins, col.base
    subject = f"ColumnarTree(base={base}, n={col.n})"
    neg = np.flatnonzero(cnts < 0)
    if neg.size:
        i = int(neg[0])
        yield Violation(
            "counter-negative",
            f"{neg.size} counter(s) negative; c(u) = {cnts.item(i)} at "
            f"column {base + i}",
            section="S4",
            subject=subject,
            context=_ctx(dim=tree.dim, column=base + i, counter=cnts.item(i)),
        )
    par = np.flatnonzero(col.left >= 0)
    off = par[cnts[par] != cnts[col.left[par]] + cnts[col.right[par]]]
    if off.size:
        i = int(off[0])
        yield Violation(
            "counter-sum",
            f"{off.size} internal node(s) with c(u) != c(left) + c(right); "
            f"first at column {base + i}: {cnts.item(i)} != "
            f"{cnts.item(int(col.left[i]))} + {cnts.item(int(col.right[i]))}",
            section="S4",
            subject=subject,
            context=_ctx(dim=tree.dim, column=base + i),
        )
    for i, node in enumerate(col.nodes):
        top = None if node.heap is None else node.heap.min_key
        want = COUNTER_MAX if top is None or top > COUNTER_MAX else top
        if mins.item(i) != want:
            yield Violation(
                "min-column",
                f"mins = {mins.item(i)} at column {base + i} but the heap "
                f"minimum is {top!r}",
                section="S4",
                subject=repr(node),
                context=_ctx(dim=tree.dim, column=base + i, min_key=top),
            )


def _last_dim_nodes(tree: EndpointTree) -> Iterator[Tuple[EndpointTree, ETNode]]:
    """Yield ``(owning last-dimension tree, node)`` over all levels."""
    if tree.last_dim:
        for node in tree.iter_nodes():
            yield tree, node
    else:
        for node in tree.iter_nodes():
            if node.secondary is not None:
                yield from _last_dim_nodes(node.secondary)


# ---------------------------------------------------------------------------
# Query trackers (Sections 3.2, 4 and 7)
# ---------------------------------------------------------------------------


@register_checker(QueryTracker)
def validate_tracker(tracker: QueryTracker, level: str) -> Iterator[Violation]:
    """Round/slack accounting and protocol-state bounds (all cheap)."""
    subject = repr(tracker)
    h = len(tracker.nodes)
    state = tracker.state
    if tracker.tau < 1:
        yield Violation(
            "tracker-threshold",
            f"remaining threshold tau = {tracker.tau} must be >= 1",
            section="S4",
            subject=subject,
        )
    if tracker.consumed < 0:
        yield Violation(
            "tracker-threshold",
            f"consumed weight {tracker.consumed} is negative",
            section="S4",
            subject=subject,
        )
    if state in (TrackerState.ROUND, TrackerState.FINAL):
        if len(tracker.entries) != h:
            yield Violation(
                "tracker-entries",
                f"{len(tracker.entries)} heap entries for {h} canonical "
                "nodes (must be parallel)",
                section="S4",
                subject=subject,
            )
        else:
            for i, entry in enumerate(tracker.entries):
                if not entry.in_heap:
                    yield Violation(
                        "tracker-entries",
                        f"entry {i} of a live tracker is detached",
                        section="S4",
                        subject=subject,
                        context=_ctx(index=i),
                    )
                if entry.payload is not tracker:
                    yield Violation(
                        "tracker-entries",
                        f"entry {i} does not point back at its tracker",
                        section="S4",
                        subject=subject,
                        context=_ctx(index=i),
                    )
    if state is TrackerState.ROUND:
        # tau' > 6h when the round opened, so lambda = floor(tau'/(2h)) >= 3.
        if tracker.lam < 3:
            yield Violation(
                "tracker-slack",
                f"normal-round slack lambda = {tracker.lam} < 3 "
                "(rounds open only while tau' > 6h, so "
                "floor(tau'/(2h)) >= 3)",
                section="S3.2",
                subject=subject,
                context=_ctx(lam=tracker.lam, h=h, tau=tracker.tau),
            )
        if h > 0 and tracker.lam > tracker.tau // (2 * h):
            yield Violation(
                "tracker-slack",
                f"slack lambda = {tracker.lam} exceeds floor(tau/(2h)) = "
                f"{tracker.tau // (2 * h)} (slack must shrink with tau')",
                section="S3.2",
                subject=subject,
                context=_ctx(lam=tracker.lam, h=h, tau=tracker.tau),
            )
        if not 0 <= tracker.signals < max(h, 1):
            yield Violation(
                "tracker-signals",
                f"{tracker.signals} signals recorded in a round of h = {h} "
                "participants (the h-th signal must close the round)",
                section="S3.2",
                subject=subject,
                context=_ctx(signals=tracker.signals, h=h),
            )
    elif state is TrackerState.FINAL:
        if tracker.lam != 0:
            yield Violation(
                "tracker-slack",
                f"final phase must have zero slack, found lambda = {tracker.lam}",
                section="S7",
                subject=subject,
                context=_ctx(lam=tracker.lam),
            )
        if not 0 <= tracker.w_run < tracker.tau:
            yield Violation(
                "tracker-final-phase",
                f"final-phase running total {tracker.w_run} outside "
                f"[0, tau = {tracker.tau}) — the query should have matured",
                section="S7",
                subject=subject,
                context=_ctx(w_run=tracker.w_run, tau=tracker.tau),
            )
        if tracker.tau > FINAL_PHASE_FACTOR * h and tracker.rounds_run == 0:
            yield Violation(
                "tracker-final-phase",
                f"final phase entered at start although tau = {tracker.tau} "
                f"> {FINAL_PHASE_FACTOR}h = {FINAL_PHASE_FACTOR * h}",
                section="S7",
                subject=subject,
                context=_ctx(tau=tracker.tau, h=h),
            )
    elif state is TrackerState.INERT:
        if h != 0 or tracker.entries:
            yield Violation(
                "tracker-entries",
                "inert tracker holds canonical nodes or heap entries",
                section="S4",
                subject=subject,
                context=_ctx(h=h, entries=len(tracker.entries)),
            )
    elif state is TrackerState.DONE:
        if tracker.entries:
            yield Violation(
                "tracker-entries",
                "done tracker still holds heap entries",
                section="S4",
                subject=subject,
                context=_ctx(entries=len(tracker.entries)),
            )
    if tracker.rounds_run > max_dt_rounds(tracker.tau):
        yield Violation(
            "dt-round-bound",
            f"{tracker.rounds_run} rounds exceed the O(log tau) bound "
            f"{max_dt_rounds(tracker.tau)} for tau = {tracker.tau}",
            section="S3.2",
            subject=subject,
            context=_ctx(rounds=tracker.rounds_run, tau=tracker.tau),
        )
    if h > 0 and tracker.msgs > max_dt_messages(h, tracker.tau):
        yield Violation(
            "dt-message-bound",
            f"{tracker.msgs} DT messages exceed the O(h log tau) bound "
            f"{max_dt_messages(h, tracker.tau)} (h = {h}, tau = {tracker.tau})",
            section="S3.2",
            subject=subject,
            context=_ctx(msgs=tracker.msgs, h=h, tau=tracker.tau),
        )


# ---------------------------------------------------------------------------
# Tree instances: tracker <-> tree <-> heap cross-consistency (Section 4)
# ---------------------------------------------------------------------------


@register_checker(TreeInstance)
def validate_tree_instance(inst: TreeInstance, level: str) -> Iterator[Violation]:
    subject = f"TreeInstance(alive={inst.alive}, built={inst.built_count})"
    non_done = sum(
        1 for t in inst.trackers.values() if t.state is not TrackerState.DONE
    )
    if inst.alive != non_done:
        yield Violation(
            "alive-count",
            f"alive = {inst.alive} but {non_done} trackers are not DONE",
            section="S4",
            subject=subject,
            context=_ctx(alive=inst.alive, non_done=non_done),
        )
    for tracker in inst.trackers.values():
        yield from validate_tracker(tracker, level)
        if tracker.state in (TrackerState.INERT, TrackerState.DONE):
            continue  # detached states carry no due-signal obligations
        if tracker.state in (TrackerState.ROUND, TrackerState.FINAL):
            collected = tracker.collected_weight()
            if collected >= tracker.tau:
                yield Violation(
                    "maturity-missed",
                    f"live query {tracker.query.query_id!r} has collected "
                    f"{collected} >= tau = {tracker.tau} without maturing",
                    section="S4",
                    subject=subject,
                    context=_ctx(
                        query=tracker.query.query_id,
                        collected=collected,
                        tau=tracker.tau,
                    ),
                )
    if not level_covers(level, "full"):
        return

    yield from validate_endpoint_tree(inst.tree, level)

    # One walk over every last-dimension node: heap integrity, drain
    # quiescence, and entry-ownership, plus the node -> owning-tree map
    # needed for the canonical disjointness check below.
    live_entry_ids: Set[int] = set()
    for tracker in inst.trackers.values():
        for entry in tracker.entries:
            live_entry_ids.add(id(entry))
    owner_tree: Dict[int, int] = {}
    for tree_idx, (owner, node) in enumerate(_last_dim_nodes(inst.tree)):
        owner_tree[id(node)] = id(owner)
        heap = node.heap
        if heap is None:
            continue
        yield from _validate_heap_like(heap, level)
        min_key = heap.min_key
        counter = inst.cnts.item(node.idx)
        if min_key is not None and min_key <= counter:
            yield Violation(
                "heap-quiescence",
                f"due signal left undrained: min sigma {min_key!r} <= "
                f"c(u) = {counter}",
                section="S4",
                subject=repr(node),
                context=_ctx(min_key=min_key, counter=counter),
            )
        for entry in heap.entries():
            if id(entry) not in live_entry_ids:
                yield Violation(
                    "heap-entry-owner",
                    "heap entry does not belong to any tracker of this tree",
                    section="S4",
                    subject=repr(node),
                    context=_ctx(key=entry.key, payload=repr(entry.payload)),
                )

    # Canonical-set consistency: the nodes a tracker signals on must be
    # exactly the canonical decomposition of its query rectangle, and
    # within each (last-dimension) tree the jurisdictions must be disjoint.
    for tracker in inst.trackers.values():
        if tracker.state is TrackerState.DONE:
            continue
        qid = tracker.query.query_id
        sink: List[ETNode] = []
        try:
            inst.tree._collect_canonical(tracker.query.rect, sink)
        except AssertionError as exc:
            # The decomposition itself fell apart — the structure is too
            # corrupted to recompute canonical sets at all.
            yield Violation(
                "canonical-consistency",
                f"query {qid!r}: canonical decomposition failed: {exc}",
                section="S4",
                subject=subject,
                context=_ctx(query=qid),
            )
            continue
        if {id(n) for n in sink} != {id(n) for n in tracker.nodes}:
            yield Violation(
                "canonical-consistency",
                f"query {qid!r}: tracked canonical set does not match the "
                f"decomposition of its rectangle ({len(tracker.nodes)} "
                f"tracked vs {len(sink)} recomputed)",
                section="S4",
                subject=subject,
                context=_ctx(query=qid, tracked=len(tracker.nodes), actual=len(sink)),
            )
        by_tree: Dict[int, List[ETNode]] = {}
        for node in tracker.nodes:
            by_tree.setdefault(owner_tree.get(id(node), -1), []).append(node)
        for group in by_tree.values():
            group.sort(key=lambda n: n.lo)
            for a, b in zip(group, group[1:]):
                if a.hi > b.lo:
                    yield Violation(
                        "canonical-disjoint",
                        f"query {qid!r}: canonical jurisdictions "
                        f"[{a.lo!r},{a.hi!r}) and [{b.lo!r},{b.hi!r}) overlap",
                        section="S4",
                        subject=subject,
                        context=_ctx(query=qid),
                    )


def _validate_heap_like(heap, level: str) -> Iterator[Violation]:
    if isinstance(heap, AddressableMinHeap):
        yield from validate_min_heap(heap, level)
    elif isinstance(heap, ScanMinList):
        yield from validate_scan_list(heap, level)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


@register_checker(Engine)
def validate_engine_counters(engine: Engine, level: str) -> Iterator[Violation]:
    """Work counters are monotone tallies; negatives mean double-refunds."""
    for name, value in engine.counters.snapshot().items():
        if value < 0:
            yield Violation(
                "counter-negative",
                f"work counter {name} = {value} is negative",
                section="S8",
                subject=f"{engine.name} counters",
                context=_ctx(counter=name, value=value),
            )


@register_checker(DTEngine)
def validate_dt_engine(engine: DTEngine, level: str) -> Iterator[Violation]:
    """Logarithmic-method properties P2/P3 and locator consistency."""
    subject = f"{type(engine).__name__}(dims={engine.dims})"
    trees = engine._trees
    locator = engine._locator
    for qid, slot in locator.items():
        tree = trees[slot] if 0 <= slot < len(trees) else None
        if tree is None or not tree.contains(qid):
            yield Violation(
                "locator-consistency",
                f"locator points query {qid!r} at slot {slot}, which does "
                "not manage it (P2: every alive query in exactly one tree)",
                section="S5",
                subject=subject,
                context=_ctx(query=qid, slot=slot),
            )
    total_alive = 0
    for slot, tree in enumerate(trees):
        if tree is None:
            continue
        total_alive += tree.alive
        if tree.alive > (1 << slot):
            yield Violation(
                "logmethod-capacity",
                f"slot {slot} manages {tree.alive} alive queries, over its "
                f"capacity 2^{slot} = {1 << slot} (P3)",
                section="S5",
                subject=subject,
                context=_ctx(slot=slot, alive=tree.alive),
            )
    if total_alive != len(locator):
        yield Violation(
            "alive-count",
            f"trees hold {total_alive} alive queries but the locator maps "
            f"{len(locator)}",
            section="S5",
            subject=subject,
            context=_ctx(in_trees=total_alive, in_locator=len(locator)),
        )
    for tree in trees:
        if tree is not None:
            yield from validate_tree_instance(tree, level)


@register_checker(NaiveEngine)
def validate_naive_engine(engine: NaiveEngine, level: str) -> Iterator[Violation]:
    for qid, record in engine._alive.items():
        query, remaining, bounds = record
        if remaining < 1:
            yield Violation(
                "baseline-remaining",
                f"alive query {qid!r} has remaining threshold {remaining} "
                "<= 0 (it should have matured)",
                section="S3.1",
                subject="NaiveEngine",
                context=_ctx(query=qid, remaining=remaining),
            )
        expect = tuple((iv.lo, iv.hi) for iv in query.rect.intervals)
        if bounds != expect:
            yield Violation(
                "baseline-bounds",
                f"cached bounds of query {qid!r} diverge from its rectangle",
                section="S3.1",
                subject="NaiveEngine",
                context=_ctx(query=qid),
            )


def _validate_stabbing_records(
    engine, tree, level: str, name: str
) -> Iterator[Violation]:
    """Shared checks for the handle-based stabbing baselines."""
    for qid, record in engine._records.items():
        if record.remaining < 1:
            yield Violation(
                "baseline-remaining",
                f"alive query {qid!r} has remaining threshold "
                f"{record.remaining} <= 0 (it should have matured)",
                section="S3.1",
                subject=name,
                context=_ctx(query=qid, remaining=record.remaining),
            )
        handle = record.handle
        if handle is None or not handle.alive:
            yield Violation(
                "baseline-handle",
                f"alive query {qid!r} has a dead or missing index handle",
                section="S3.1",
                subject=name,
                context=_ctx(query=qid),
            )
        elif handle.payload is not record:
            yield Violation(
                "baseline-handle",
                f"index handle of query {qid!r} does not point back at "
                "its record",
                section="S3.1",
                subject=name,
                context=_ctx(query=qid),
            )
    if len(tree) != len(engine._records):
        yield Violation(
            "alive-count",
            f"index holds {len(tree)} alive items but the engine tracks "
            f"{len(engine._records)} queries",
            section="S3.1",
            subject=name,
            context=_ctx(in_index=len(tree), in_engine=len(engine._records)),
        )


@register_checker(IntervalTreeEngine)
def validate_interval_engine(
    engine: IntervalTreeEngine, level: str
) -> Iterator[Violation]:
    yield from _validate_stabbing_records(
        engine, engine._tree, level, "IntervalTreeEngine"
    )
    if level_covers(level, "full"):
        yield from validate_interval_tree(engine._tree, level)


@register_checker(SegIntvEngine)
def validate_seg_intv_engine(
    engine: SegIntvEngine, level: str
) -> Iterator[Violation]:
    yield from _validate_stabbing_records(
        engine, engine._tree, level, "SegIntvEngine"
    )
    if level_covers(level, "full"):
        yield from validate_seg_intv_tree(engine._tree, level)


@register_checker(RTreeEngine)
def validate_rtree_engine(engine: RTreeEngine, level: str) -> Iterator[Violation]:
    yield from _validate_stabbing_records(
        engine, engine._tree, level, "RTreeEngine"
    )
    if level_covers(level, "full"):
        yield from validate_rtree(engine._tree, level)


@register_checker(RTSSystem)
def validate_system(system: RTSSystem, level: str) -> Iterator[Violation]:
    """Facade-level lifecycle bookkeeping, then the engine's invariants."""
    from ..core.query import QueryStatus

    statuses = system._status
    alive_ids = [qid for qid, st in statuses.items() if st is QueryStatus.ALIVE]
    if len(alive_ids) != system.engine.alive_count:
        yield Violation(
            "alive-count",
            f"system tracks {len(alive_ids)} ALIVE queries but the engine "
            f"reports {system.engine.alive_count}",
            section="S2",
            subject=repr(system),
            context=_ctx(
                system_alive=len(alive_ids), engine_alive=system.engine.alive_count
            ),
        )
    from .checker import collect

    yield from collect(system.engine, level)


@register_checker(ShardedRTSSystem)
def validate_sharded_system(
    system: ShardedRTSSystem, level: str
) -> Iterator[Violation]:
    """Partition coverage, extent soundness, and (in-process) shard state.

    The *partition-coverage* invariant of ``docs/SHARDING.md``: every
    alive query is owned by exactly one in-range shard, carries a unique
    registration sequence (the deterministic-merge tie-break), and —
    when the shards run in-process — actually lives on the shard the
    router believes owns it, with the shard's routing extent covering
    its dim-0 range.
    """
    from ..core.geometry import encoded_key
    from ..core.query import QueryStatus

    subject = repr(system)
    alive_ids = {
        qid
        for qid, st in system._status.items()
        if st is QueryStatus.ALIVE
    }
    owned_ids = set(system._owner)
    for qid in alive_ids ^ owned_ids:
        yield Violation(
            "shard-partition-coverage",
            f"query {qid!r} is "
            + (
                "ALIVE but owned by no shard"
                if qid in alive_ids
                else "owned by a shard but not ALIVE"
            ),
            section="S3.2",
            subject=subject,
            context=_ctx(query=qid),
        )
    seqs: Dict[int, object] = {}
    for qid, owner in system._owner.items():
        if not 0 <= owner < system.shards:
            yield Violation(
                "shard-partition-coverage",
                f"query {qid!r} owned by shard {owner}, outside "
                f"[0, {system.shards})",
                section="S3.2",
                subject=subject,
                context=_ctx(query=qid, owner=owner),
            )
        seq = system._seq.get(qid)
        if seq is None:
            yield Violation(
                "shard-merge-seq",
                f"alive query {qid!r} has no registration sequence "
                "(the deterministic merge cannot break its ties)",
                section="S3.2",
                subject=subject,
                context=_ctx(query=qid),
            )
        elif seq in seqs:
            yield Violation(
                "shard-merge-seq",
                f"queries {seqs[seq]!r} and {qid!r} share registration "
                f"sequence {seq}",
                section="S3.2",
                subject=subject,
                context=_ctx(seq=seq),
            )
        else:
            seqs[seq] = qid
        query = system._queries.get(qid)
        if query is not None and 0 <= owner < system.shards:
            iv = query.rect.intervals[0]
            lo, hi = system._extents[owner]
            if encoded_key(iv.lo) < lo or encoded_key(iv.hi) > hi:
                yield Violation(
                    "shard-extent-cover",
                    f"shard {owner} extent [{lo!r}, {hi!r}) does not cover "
                    f"owned query {qid!r}'s dim-0 range (elements it needs "
                    "could be routed away)",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(query=qid, owner=owner),
                )
    executor = system.executor
    if isinstance(executor, SerialExecutor) and executor.systems:
        by_owner: Dict[int, Set[object]] = {}
        for qid, owner in system._owner.items():
            by_owner.setdefault(owner, set()).add(qid)
        from .checker import collect

        for shard, shard_system in enumerate(executor.systems):
            shard_alive = {
                qid
                for qid, st in shard_system._status.items()
                if st is QueryStatus.ALIVE
            }
            expected = by_owner.get(shard, set())
            if shard_alive != expected:
                yield Violation(
                    "shard-partition-coverage",
                    f"shard {shard} holds {len(shard_alive)} alive queries "
                    f"but the router assigns it {len(expected)} "
                    f"(diverging ids: {sorted(map(repr, shard_alive ^ expected))[:4]})",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(shard=shard),
                )
            yield from collect(shard_system, level)
    if isinstance(executor, ParallelExecutor):
        for shard, st in enumerate(executor._states):
            if st.orphans:
                yield Violation(
                    "shard-replay-exactly-once",
                    f"shard {shard}'s journal replay produced {st.orphans} "
                    "event keys the parent never emitted before the restart "
                    "(recovery diverged from the fault-free decision "
                    "sequence)",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(shard=shard, orphans=st.orphans),
                )
            journal_batches = sum(
                1 for entry in st.journal if entry[0] == "process"
            )
            if journal_batches != st.since_snapshot:
                yield Violation(
                    "shard-journal-consistency",
                    f"shard {shard} journals {journal_batches} batches since "
                    f"its checkpoint but counts {st.since_snapshot} "
                    "(a restart would replay the wrong suffix)",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(
                        shard=shard,
                        journal_batches=journal_batches,
                        since_snapshot=st.since_snapshot,
                    ),
                )
            if st.quarantined and st.pool is not None:
                yield Violation(
                    "shard-quarantine-accounting",
                    f"shard {shard} is quarantined but still holds a live "
                    "worker pool (its loss accounting no longer matches "
                    "what the pool could process)",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(shard=shard, failure=st.failure),
                )


# ---------------------------------------------------------------------------
# Standalone DT protocol simulation (Sections 3.2 and 7)
# ---------------------------------------------------------------------------


@register_checker(Coordinator)
def validate_coordinator(coord: Coordinator, level: str) -> Iterator[Violation]:
    subject = repr(coord)
    # While counters are being collected the round's h-th signal has
    # arrived, so _signals == h is legal exactly then; otherwise the h-th
    # signal must have opened a collection already.
    max_signals = coord.h if coord._collecting else coord.h - 1
    if not 0 <= coord._signals <= max_signals:
        yield Violation(
            "tracker-signals",
            f"coordinator holds {coord._signals} signals with h = {coord.h} "
            f"(collecting={coord._collecting}; the h-th signal must open "
            "counter collection)",
            section="S3.2",
            subject=subject,
            context=_ctx(
                signals=coord._signals, h=coord.h, collecting=coord._collecting
            ),
        )
    if not coord._collecting and coord._collect_pending != 0:
        yield Violation(
            "tracker-signals",
            f"{coord._collect_pending} reports pending outside a collection",
            section="S3.2",
            subject=subject,
            context=_ctx(pending=coord._collect_pending),
        )
    if coord.rounds > max_dt_rounds(coord.tau):
        yield Violation(
            "dt-round-bound",
            f"{coord.rounds} rounds exceed the O(log tau) bound "
            f"{max_dt_rounds(coord.tau)} for tau = {coord.tau}",
            section="S3.2",
            subject=subject,
            context=_ctx(rounds=coord.rounds, tau=coord.tau),
        )
    if coord.matured_at is not None and coord.matured_at < coord.tau:
        yield Violation(
            "maturity-early",
            f"maturity declared at total {coord.matured_at} < tau = "
            f"{coord.tau}",
            section="S3.2",
            subject=subject,
            context=_ctx(total=coord.matured_at, tau=coord.tau),
        )
    # Only ideal transports count raw protocol messages; over a reliable
    # channel the bound is enforced on the channel itself (retry
    # amplification included) by validate_reliable_channel.
    sent = getattr(coord.network, "messages_sent", None)
    if sent is not None and sent > max_dt_messages(coord.h, coord.tau):
        yield Violation(
            "dt-message-bound",
            f"{sent} messages exceed the O(h log tau) bound "
            f"{max_dt_messages(coord.h, coord.tau)} "
            f"(h = {coord.h}, tau = {coord.tau})",
            section="S3.2",
            subject=subject,
            context=_ctx(messages=sent, h=coord.h, tau=coord.tau),
        )


# ---------------------------------------------------------------------------
# Fault-tolerant transport stack (docs/ROBUSTNESS.md)
# ---------------------------------------------------------------------------


@register_checker(FaultyNetwork)
def validate_faulty_network(
    net: FaultyNetwork, level: str
) -> Iterator[Violation]:
    """Packet conservation: every enqueued copy is accounted for."""
    subject = repr(net)
    stats = net.stats
    accounted = stats.delivered + stats.lost_to_crash + net.pending
    if stats.enqueued() != accounted:
        yield Violation(
            "transport-conservation",
            f"{stats.enqueued()} packets enqueued but "
            f"{stats.delivered} delivered + {stats.lost_to_crash} lost to "
            f"crashes + {net.pending} queued = {accounted}",
            section="S3.2",
            subject=subject,
            context=_ctx(
                enqueued=stats.enqueued(),
                delivered=stats.delivered,
                lost_to_crash=stats.lost_to_crash,
                queued=net.pending,
            ),
        )
    if min(stats.sent, stats.dropped, stats.duplicated, stats.deferred) < 0:
        yield Violation(
            "counter-negative",
            "fault statistics went negative",
            section="S3.2",
            subject=subject,
        )


@register_checker(ReliableChannel)
def validate_reliable_channel(
    channel: ReliableChannel, level: str
) -> Iterator[Violation]:
    """Sequencing sanity plus the documented retry-amplification bound."""
    subject = repr(channel)
    for (src, dst), sender in channel._senders.items():
        for seq in sender.pending:
            if seq >= sender.next_seq:
                yield Violation(
                    "channel-sequencing",
                    f"link {src}->{dst}: unacked seq {seq} >= next_seq "
                    f"{sender.next_seq} (never allocated)",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(src=src, dst=dst, seq=seq),
                )
    for (src, dst), receiver in channel._receivers.items():
        for seq in receiver.held:
            if seq <= receiver.watermark:
                yield Violation(
                    "channel-sequencing",
                    f"link {src}->{dst}: held seq {seq} at or below the "
                    f"delivery watermark {receiver.watermark}",
                    section="S3.2",
                    subject=subject,
                    context=_ctx(src=src, dst=dst, seq=seq),
                )
    stats = channel.stats
    if stats.delivered > stats.data_sent:
        yield Violation(
            "channel-exactly-once",
            f"{stats.delivered} unique deliveries exceed the "
            f"{stats.data_sent} messages ever submitted",
            section="S3.2",
            subject=subject,
            context=_ctx(delivered=stats.delivered, data_sent=stats.data_sent),
        )
    # Retry amplification must stay within a constant factor of the
    # messages actually delivered, or the paper's O(h log tau)
    # communication bound no longer survives the lossy channel.
    bound = TRANSPORT_OVERHEAD_FACTOR * stats.delivered + TRANSPORT_OVERHEAD_SLACK
    if stats.wire_total > bound:
        yield Violation(
            "transport-overhead",
            f"{stats.wire_total} wire frames for {stats.delivered} "
            f"delivered messages exceed the documented bound "
            f"{TRANSPORT_OVERHEAD_FACTOR}x + {TRANSPORT_OVERHEAD_SLACK} "
            f"= {bound}",
            section="S3.2",
            subject=subject,
            context=_ctx(
                wire=stats.wire_total,
                delivered=stats.delivered,
                factor=TRANSPORT_OVERHEAD_FACTOR,
            ),
        )


# ---------------------------------------------------------------------------
# Baseline index structures (consolidated from their old check_invariants)
# ---------------------------------------------------------------------------


@register_checker(CenteredIntervalTree)
def validate_interval_tree(
    tree: CenteredIntervalTree, level: str
) -> Iterator[Violation]:
    """Center BST order, sorted secondary lists, center containment."""
    if not level_covers(level, "full"):
        return
    subject = f"CenteredIntervalTree(len={len(tree)})"
    alive_seen = 0
    stack = [(tree._root, None, None)]
    while stack:
        node, lo_bound, hi_bound = stack.pop()
        if node is None:
            continue
        if (lo_bound is not None and node.center <= lo_bound) or (
            hi_bound is not None and node.center > hi_bound
        ):
            yield Violation(
                "interval-tree-order",
                f"center {node.center!r} violates the BST order",
                section="S3.1",
                subject=subject,
            )
        los = [t[0] for t in node.by_lo]
        if los != sorted(los):
            yield Violation(
                "interval-tree-order",
                "by_lo list is not sorted",
                section="S3.1",
                subject=subject,
                context=_ctx(center=node.center),
            )
        his = [t[0] for t in node.by_hi]
        if his != sorted(his):
            yield Violation(
                "interval-tree-order",
                "by_hi list is not sorted",
                section="S3.1",
                subject=subject,
                context=_ctx(center=node.center),
            )
        for _lo, _tie, item in node.by_lo:
            iv = item.interval
            if not iv.lo <= node.center < iv.hi:
                yield Violation(
                    "interval-tree-center",
                    f"item {item!r} does not contain its node center "
                    f"{node.center!r}",
                    section="S3.1",
                    subject=subject,
                )
            if item.alive:
                alive_seen += 1
        stack.append((node.left, lo_bound, node.center))
        stack.append((node.right, node.center, hi_bound))
    if alive_seen != len(tree):
        yield Violation(
            "alive-count",
            f"tree stores {alive_seen} alive items but reports {len(tree)}",
            section="S3.1",
            subject=subject,
            context=_ctx(stored=alive_seen, reported=len(tree)),
        )


@register_checker(SegmentTree)
def validate_segment_tree(tree: SegmentTree, level: str) -> Iterator[Violation]:
    """Every alive item's canonical cover tiles its snapped interval."""
    if not level_covers(level, "full"):
        return
    subject = f"SegmentTree(len={len(tree)})"
    alive = tree._collect_alive()
    for item in alive:
        lo = tree._snap_down(item.interval.lo)
        hi = tree._snap_up(item.interval.hi)
        covered = sorted((n.lo, n.hi) for n in item._nodes)
        if not covered:
            yield Violation(
                "segment-cover",
                f"alive item {item!r} is stored nowhere",
                section="S3.1",
                subject=subject,
            )
            continue
        if covered[0][0] != lo or covered[-1][1] != hi:
            yield Violation(
                "segment-cover",
                f"cover of {item!r} does not span its snapped interval",
                section="S3.1",
                subject=subject,
                context=_ctx(snapped_lo=lo, snapped_hi=hi),
            )
        for (_a_lo, a_hi), (b_lo, _b_hi) in zip(covered, covered[1:]):
            if a_hi != b_lo:
                yield Violation(
                    "segment-cover",
                    f"cover of {item!r} has a gap or overlap",
                    section="S3.1",
                    subject=subject,
                )
        for node in item._nodes:
            if node.items.get(id(item)) is not item:
                yield Violation(
                    "segment-handle",
                    f"node cover of {item!r} lost its back-reference",
                    section="S3.1",
                    subject=subject,
                )
    if len(alive) != len(tree):
        yield Violation(
            "alive-count",
            f"tree stores {len(alive)} alive items but reports {len(tree)}",
            section="S3.1",
            subject=subject,
            context=_ctx(stored=len(alive), reported=len(tree)),
        )


@register_checker(SegIntvTree)
def validate_seg_intv_tree(tree: SegIntvTree, level: str) -> Iterator[Violation]:
    """x-cover tiling plus y-tree handle consistency per alive item."""
    if not level_covers(level, "full"):
        return
    subject = f"SegIntvTree(len={len(tree)})"
    alive = tree._collect_alive()
    for item in alive:
        if not item._placements:
            yield Violation(
                "segment-cover",
                f"alive item {item!r} is stored nowhere",
                section="S3.1",
                subject=subject,
            )
            continue
        xiv = item.rect.intervals[0]
        lo = tree._snap_down(xiv.lo)
        hi = tree._snap_up(xiv.hi)
        covered = sorted((node.lo, node.hi) for node, _h in item._placements)
        if covered[0][0] != lo or covered[-1][1] != hi:
            yield Violation(
                "segment-cover",
                f"x-cover of {item!r} does not span its snapped interval",
                section="S3.1",
                subject=subject,
                context=_ctx(snapped_lo=lo, snapped_hi=hi),
            )
        for (_a_lo, a_hi), (b_lo, _b_hi) in zip(covered, covered[1:]):
            if a_hi != b_lo:
                yield Violation(
                    "segment-cover",
                    f"x-cover of {item!r} has a gap or overlap",
                    section="S3.1",
                    subject=subject,
                )
        for node, yhandle in item._placements:
            if node.ytree is None or not yhandle.alive or yhandle.payload is not item:
                yield Violation(
                    "segment-handle",
                    f"y-tree handle of {item!r} is dead or detached",
                    section="S3.1",
                    subject=subject,
                )
    if len(alive) != len(tree):
        yield Violation(
            "alive-count",
            f"tree stores {len(alive)} alive items but reports {len(tree)}",
            section="S3.1",
            subject=subject,
            context=_ctx(stored=len(alive), reported=len(tree)),
        )


@register_checker(RTree)
def validate_rtree(tree: RTree, level: str) -> Iterator[Violation]:
    """MBR containment, parent/leaf pointers, fill factors, leaf depth."""
    if not level_covers(level, "full"):
        return
    subject = f"RTree(len={len(tree)})"
    items_seen = 0
    leaf_depth = -1
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        n_entries = len(node.entries)
        if node is not tree._root and not (
            tree.min_entries <= n_entries <= tree.max_entries
        ):
            yield Violation(
                "rtree-fill",
                f"node fill {n_entries} outside "
                f"[{tree.min_entries}, {tree.max_entries}]",
                section="S3.1",
                subject=subject,
                context=_ctx(fill=n_entries, depth=depth),
            )
        if node.entries:
            expect = node.entries[0].mbr
            for e in node.entries[1:]:
                expect = mbr_union(expect, e.mbr)
            if node.mbr != expect:
                yield Violation(
                    "rtree-mbr",
                    "node MBR is stale (not the union of its entries)",
                    section="S3.1",
                    subject=subject,
                    context=_ctx(depth=depth),
                )
        if node.is_leaf:
            if leaf_depth == -1:
                leaf_depth = depth
            elif leaf_depth != depth:
                yield Violation(
                    "rtree-balance",
                    f"leaves at different depths ({leaf_depth} vs {depth})",
                    section="S3.1",
                    subject=subject,
                )
            items_seen += len(node.entries)
            for item in node.entries:
                if item._leaf is not node:
                    yield Violation(
                        "rtree-handle",
                        f"item {item!r} has a stale leaf pointer",
                        section="S3.1",
                        subject=subject,
                    )
        else:
            for child in node.entries:
                if child.parent is not node:
                    yield Violation(
                        "rtree-handle",
                        "child node has a stale parent pointer",
                        section="S3.1",
                        subject=subject,
                        context=_ctx(depth=depth),
                    )
                stack.append((child, depth + 1))
    if items_seen != len(tree):
        yield Violation(
            "alive-count",
            f"tree stores {items_seen} items but reports {len(tree)}",
            section="S3.1",
            subject=subject,
            context=_ctx(stored=items_seen, reported=len(tree)),
        )
