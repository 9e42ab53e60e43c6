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
from ..core.endpoint_tree import COUNTER_MAX, EndpointTree, Forest
from ..core.engine import Engine
from ..core.logmethod import DTEngine
from ..core.system import RTSSystem
from ..core.tracker import DONE, FINAL, FINAL_PHASE_FACTOR, INERT, ROUND, STATE_NAMES
from ..dt.coordinator import Coordinator
from ..shard.executor import ParallelExecutor, SerialExecutor
from ..shard.system import ShardedRTSSystem
from ..structures.heap import HeapArena
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
# Heap arenas (Section 4, Eq. 5)
# ---------------------------------------------------------------------------


@register_checker(HeapArena)
def validate_heap_arena(arena: HeapArena, level: str) -> Iterator[Violation]:
    """Per-segment heap order, slot <-> position bookkeeping, and the
    ``mins`` column against every segment's top key."""
    if not level_covers(level, "full"):
        return
    keys = arena._ekey  # rtslint: disable=heap-internals
    heap = arena._slots  # rtslint: disable=heap-internals
    pos = arena._pos  # rtslint: disable=heap-internals
    starts = arena._seg_start  # rtslint: disable=heap-internals
    sizes = arena._seg_size  # rtslint: disable=heap-internals
    mins = arena._mins  # rtslint: disable=heap-internals
    subject = f"HeapArena(entries={len(pos)}, columns={len(starts)})"
    live = 0
    for col, (s, n) in enumerate(zip(starts, sizes)):
        live += n
        for p in range(s, s + n):
            e = heap[p]
            if pos[e] != p - s:
                yield Violation(
                    "heap-handle",
                    f"entry {e} at slot {p - s} of column {col} records "
                    f"slot {pos[e]}",
                    section="S4",
                    subject=subject,
                    context=_ctx(column=col, slot=p, recorded=pos[e]),
                )
            if p > s and not arena.scan:
                parent = heap[s + ((p - s - 1) >> 1)]
                if keys[parent] > keys[e]:
                    yield Violation(
                        "heap-order",
                        f"parent key {keys[parent]!r} > child key {keys[e]!r} "
                        f"at slot {p} of column {col}",
                        section="S4",
                        subject=subject,
                        context=_ctx(column=col, slot=p),
                    )
        top = arena.top(col)
        want = COUNTER_MAX if top is None or top > COUNTER_MAX else top
        if mins.item(col) != want:
            yield Violation(
                "min-column",
                f"mins = {mins.item(col)} at column {col} but the heap "
                f"minimum is {top!r}",
                section="S4",
                subject=subject,
                context=_ctx(column=col, min_key=top),
            )
    attached = sum(1 for p in pos if p >= 0)
    if attached != live:
        yield Violation(
            "heap-handle",
            f"{attached} entries record a slot but the segments hold {live}",
            section="S4",
            subject=subject,
            context=_ctx(attached=attached, live=live),
        )


# ---------------------------------------------------------------------------
# Endpoint trees (Sections 4 and 6)
# ---------------------------------------------------------------------------


@register_checker(EndpointTree)
def validate_endpoint_tree(tree: EndpointTree, level: str) -> Iterator[Violation]:
    """Jurisdiction tiling, per-dimension layering, the counter store,
    each checked once per dimension over that dimension's forest."""
    if not level_covers(level, "full"):
        return
    forests = tree.forests
    if forests and len(forests) != tree.ndims:
        yield Violation(
            "dimension-layering",
            f"{len(forests)} forest(s) in {tree.ndims} dimension(s)",
            section="S6",
            subject="EndpointTree",
        )
    for dim, forest in enumerate(forests):
        yield from _validate_forest(forest, dim)
        nxt = forests[dim + 1] if dim + 1 < len(forests) else None
        yield from _validate_layering(forest, nxt, tree.cnts.size)
    if forests:
        yield from _validate_counter_store(forests[-1], tree.cnts)


def _forest_subject(forest: Forest) -> str:
    return f"Forest(dim={forest.dim}, trees={forest.ks.size}, keys={forest.vals.size})"


def _validate_forest(forest: Forest, dim: int) -> Iterator[Violation]:
    """One dimension's keys and nodes: within every tree the keys rise
    strictly and every jurisdiction is non-empty, and every internal node
    is tiled exactly by its two children."""
    import numpy as np

    subject = _forest_subject(forest)
    vals, bits = forest.vals, forest.bits
    rising = (vals[1:] > vals[:-1]) | ((vals[1:] == vals[:-1]) & (bits[1:] > bits[:-1]))
    rising[forest.kbase[1:] - 1] = True  # a tree's first key follows another tree's
    bad = np.flatnonzero(~rising)
    left, right, klo, khi = forest.left, forest.right, forest.klo, forest.khi
    if bad.size or (klo >= khi).any():
        i = int(bad[0]) if bad.size else -1
        yield Violation(
            "jurisdiction-empty",
            "keys are not strictly increasing, or a node covers no key "
            f"(first repeated key at index {i + 1})",
            section="S4",
            subject=subject,
            context=_ctx(dim=dim, rank=i + 1),
        )
    lonely = np.flatnonzero((left < 0) != (right < 0))
    if lonely.size:
        yield Violation(
            "skeleton-shape",
            f"node {int(lonely[0])} has exactly one child (skeleton must be proper)",
            section="S4",
            subject=subject,
            context=_ctx(dim=dim),
        )
    par = np.flatnonzero((left >= 0) & (right >= 0))
    lc, rc = left[par], right[par]
    torn = par[(klo[lc] != klo[par]) | (khi[rc] != khi[par]) | (khi[lc] != klo[rc])]
    if torn.size:
        u = int(torn[0])
        yield Violation(
            "jurisdiction-tiling",
            f"{torn.size} node(s) whose children do not tile the parent "
            f"jurisdiction; first at node {u}: {forest.jurisdiction(u)!r}",
            section="S4",
            subject=subject,
            context=_ctx(dim=dim, node=u),
        )
    if forest.dim != dim:
        yield Violation(
            "dimension-layering",
            f"forest of dim {forest.dim} sits at dimension {dim}",
            section="S6",
            subject=subject,
        )


def _validate_layering(forest: Forest, nxt, n_cols: int) -> Iterator[Violation]:
    """Section 6's layering: an interior dimension maps nodes to the next
    dimension's trees, one owner per tree, in owner order; only the last
    dimension's nodes are counter columns."""
    import numpy as np

    subject = _forest_subject(forest)
    owner = forest.owner
    if nxt is None:
        if owner is not None:
            yield Violation(
                "dimension-layering",
                "last-dimension forest maps nodes to secondary trees",
                section="S6",
                subject=subject,
                context=_ctx(dim=forest.dim),
            )
        elif forest.n != n_cols:
            yield Violation(
                "dimension-layering",
                f"the counter store has {n_cols} columns but the last "
                f"dimension has {forest.n} nodes (only last-dimension nodes "
                "count weight and hold H(u))",
                section="S6",
                subject=subject,
                context=_ctx(dim=forest.dim, columns=n_cols, nodes=forest.n),
            )
        return
    owned = None if owner is None else owner[owner >= 0]
    if owned is None or not np.array_equal(owned, np.arange(nxt.ks.size)):
        yield Violation(
            "dimension-layering",
            f"the owner map does not give each of the {nxt.ks.size} trees "
            f"of dim {nxt.dim} one owner node, in owner order",
            section="S6",
            subject=subject,
            context=_ctx(dim=forest.dim),
        )


def _validate_counter_store(forest: Forest, cnts) -> Iterator[Violation]:
    """The one counter store, over the last dimension's forest.

    ``cnts`` holds every ``c(u)`` and nothing else does, so the Section 4
    identities are checked on it directly: counters are non-negative and
    every internal node counts exactly what its two children count (an
    element bumps a whole root-to-leaf path).
    """
    import numpy as np

    subject = _forest_subject(forest)
    neg = np.flatnonzero(cnts < 0)
    if neg.size:
        i = int(neg[0])
        yield Violation(
            "counter-negative",
            f"{neg.size} counter(s) negative; c(u) = {cnts.item(i)} at column {i}",
            section="S4",
            subject=subject,
            context=_ctx(dim=forest.dim, column=i, counter=cnts.item(i)),
        )
    left, right = forest.left[: cnts.size], forest.right[: cnts.size]
    par = np.flatnonzero(left >= 0)
    off = par[cnts[par] != cnts[left[par]] + cnts[right[par]]]
    if off.size:
        i = int(off[0])
        yield Violation(
            "counter-sum",
            f"{off.size} internal node(s) with c(u) != c(left) + c(right); "
            f"first at column {i}: {cnts.item(i)} != "
            f"{cnts.item(int(left[i]))} + {cnts.item(int(right[i]))}",
            section="S4",
            subject=subject,
            context=_ctx(dim=forest.dim, column=i),
        )


# ---------------------------------------------------------------------------
# Tree instances: per-slot DT state, tree and heap (Sections 3.2, 4 and 7)
# ---------------------------------------------------------------------------


def _validate_slot(inst: TreeInstance, s: int, h: int, subject: str) -> Iterator[Violation]:
    """Round/slack accounting and protocol-state bounds of slot ``s``,
    whose canonical set has ``h`` columns (all cheap)."""
    state, tau, lam = inst.state[s], inst.tau[s], inst.lam[s]
    rounds, msgs = inst.rounds[s], inst.msgs[s]
    subject = f"{subject} slot {s} (query {inst.query[s].query_id!r}, {STATE_NAMES[state]})"
    if tau < 1:
        yield Violation(
            "tracker-threshold",
            f"remaining threshold tau = {tau} must be >= 1",
            section="S4",
            subject=subject,
        )
    if inst.consumed[s] < 0:
        yield Violation(
            "tracker-threshold",
            f"consumed weight {inst.consumed[s]} is negative",
            section="S4",
            subject=subject,
        )
    if state == ROUND:
        # tau' > 6h when the round opened, so lambda = floor(tau'/(2h)) >= 3.
        if lam < 3:
            yield Violation(
                "tracker-slack",
                f"normal-round slack lambda = {lam} < 3 "
                "(rounds open only while tau' > 6h, so "
                "floor(tau'/(2h)) >= 3)",
                section="S3.2",
                subject=subject,
                context=_ctx(lam=lam, h=h, tau=tau),
            )
        if h > 0 and lam > tau // (2 * h):
            yield Violation(
                "tracker-slack",
                f"slack lambda = {lam} exceeds floor(tau/(2h)) = "
                f"{tau // (2 * h)} (slack must shrink with tau')",
                section="S3.2",
                subject=subject,
                context=_ctx(lam=lam, h=h, tau=tau),
            )
        signals = inst.signals[s]
        if not 0 <= signals < max(h, 1):
            yield Violation(
                "tracker-signals",
                f"{signals} signals recorded in a round of h = {h} "
                "participants (the h-th signal must close the round)",
                section="S3.2",
                subject=subject,
                context=_ctx(signals=signals, h=h),
            )
    elif state == FINAL:
        if lam != 0:
            yield Violation(
                "tracker-slack",
                f"final phase must have zero slack, found lambda = {lam}",
                section="S7",
                subject=subject,
                context=_ctx(lam=lam),
            )
        w_run = inst.w_run[s]
        if not 0 <= w_run < tau:
            yield Violation(
                "tracker-final-phase",
                f"final-phase running total {w_run} outside "
                f"[0, tau = {tau}) — the query should have matured",
                section="S7",
                subject=subject,
                context=_ctx(w_run=w_run, tau=tau),
            )
        if tau > FINAL_PHASE_FACTOR * h and rounds == 0:
            yield Violation(
                "tracker-final-phase",
                f"final phase entered at start although tau = {tau} "
                f"> {FINAL_PHASE_FACTOR}h = {FINAL_PHASE_FACTOR * h}",
                section="S7",
                subject=subject,
                context=_ctx(tau=tau, h=h),
            )
    elif state == INERT:
        if h:
            yield Violation(
                "tracker-entries",
                f"inert slot holds {h} canonical columns",
                section="S4",
                subject=subject,
                context=_ctx(h=h),
            )
    if rounds > max_dt_rounds(tau):
        yield Violation(
            "dt-round-bound",
            f"{rounds} rounds exceed the O(log tau) bound "
            f"{max_dt_rounds(tau)} for tau = {tau}",
            section="S3.2",
            subject=subject,
            context=_ctx(rounds=rounds, tau=tau),
        )
    if h > 0 and msgs > max_dt_messages(h, tau):
        yield Violation(
            "dt-message-bound",
            f"{msgs} DT messages exceed the O(h log tau) bound "
            f"{max_dt_messages(h, tau)} (h = {h}, tau = {tau})",
            section="S3.2",
            subject=subject,
            context=_ctx(msgs=msgs, h=h, tau=tau),
        )
    if state <= FINAL:
        collected = inst.collected(s)
        if collected >= tau:
            yield Violation(
                "maturity-missed",
                f"live query {inst.query[s].query_id!r} has collected "
                f"{collected} >= tau = {tau} without maturing",
                section="S4",
                subject=subject,
                context=_ctx(query=inst.query[s].query_id, collected=collected, tau=tau),
            )


@register_checker(TreeInstance)
def validate_tree_instance(inst: TreeInstance, level: str) -> Iterator[Violation]:
    subject = f"TreeInstance(alive={inst.alive}, built={inst.built_count})"
    non_done = sum(1 for state in inst.state if state != DONE)
    if inst.alive != non_done:
        yield Violation(
            "alive-count",
            f"alive = {inst.alive} but {non_done} slots are not DONE",
            section="S4",
            subject=subject,
            context=_ctx(alive=inst.alive, non_done=non_done),
        )
    qptr = inst.qptr
    for s in range(len(inst.state)):
        yield from _validate_slot(inst, s, qptr[s + 1] - qptr[s], subject)
    if not level_covers(level, "full"):
        return

    yield from validate_endpoint_tree(inst.tree, level)
    arena = inst.arena
    yield from validate_heap_arena(arena, level)

    # Entry ownership: a live slot's id range sits in the arena at its
    # canonical columns, a finished one's is gone, and every entry left in
    # a segment belongs to a live slot of this tree.
    qcols = inst.qcols.tolist()
    n_entries = len(arena._ecol)  # rtslint: disable=heap-internals
    for s, state in enumerate(inst.state):
        qid = inst.query[s].query_id
        ids = range(qptr[s], qptr[s + 1])
        if state <= FINAL:
            for e in ids:
                col = qcols[e] if e < len(qcols) else None
                if (
                    e >= n_entries
                    or not arena.in_heap(e)
                    or arena.column(e) != col
                    or arena.payload(e) != s
                ):
                    yield Violation(
                        "tracker-entries",
                        f"query {qid!r}: entry {e} is not its attached sigma "
                        f"entry at canonical column {col}",
                        section="S4",
                        subject=subject,
                        context=_ctx(query=qid, entry=e, column=col),
                    )
        elif state == DONE:
            if any(e < n_entries and arena.in_heap(e) for e in ids):
                yield Violation(
                    "tracker-entries",
                    f"done query {qid!r} still has entries in the arena",
                    section="S4",
                    subject=subject,
                    context=_ctx(query=qid),
                )
    cnts = inst.cnts
    for col in range(len(cnts)):
        top = arena.top(col)
        if top is None:
            continue
        counter = cnts.item(col)
        if top <= counter:
            yield Violation(
                "heap-quiescence",
                f"due signal left undrained at column {col}: min sigma "
                f"{top!r} <= c(u) = {counter}",
                section="S4",
                subject=subject,
                context=_ctx(column=col, min_key=top, counter=counter),
            )
        for e in arena.segment(col):
            owner = arena.payload(e)
            if not (0 <= owner < len(inst.state) and inst.state[owner] <= FINAL):
                yield Violation(
                    "heap-entry-owner",
                    f"entry {e} at column {col} does not belong to a live "
                    "slot of this tree",
                    section="S4",
                    subject=subject,
                    context=_ctx(column=col, entry=e, key=arena.key(e)),
                )

    # Canonical-set consistency: the columns a slot signals on must be
    # exactly the canonical decomposition of its query rectangle, and
    # within each last-dimension tree the jurisdictions must be disjoint.
    forest = inst.tree.forests[-1] if inst.tree.forests else None
    for s, state in enumerate(inst.state):
        if state == DONE:
            continue
        query = inst.query[s]
        qid = query.query_id
        cols = qcols[qptr[s] : qptr[s + 1]]
        try:
            found = inst.tree.canonical_columns(query.rect)
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
        if sorted(found) != sorted(cols):
            yield Violation(
                "canonical-consistency",
                f"query {qid!r}: tracked canonical set does not match the "
                f"decomposition of its rectangle ({len(cols)} "
                f"tracked vs {len(found)} recomputed)",
                section="S4",
                subject=subject,
                context=_ctx(query=qid, tracked=len(cols), actual=len(found)),
            )
        by_tree: Dict[int, List[Tuple[int, int]]] = {}
        for col in cols:
            if not 0 <= col < forest.n:
                continue
            by_tree.setdefault(forest.tree_of(col), []).append(
                (int(forest.klo[col]), int(forest.khi[col]))
            )
        for spans in by_tree.values():
            spans.sort()
            for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
                if ahi > blo:
                    yield Violation(
                        "canonical-disjoint",
                        f"query {qid!r}: canonical key ranges [{alo},{ahi}) "
                        f"and [{blo},{bhi}) overlap",
                        section="S4",
                        subject=subject,
                        context=_ctx(query=qid),
                    )


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
    sent = coord.network.messages_sent
    if sent > max_dt_messages(coord.h, coord.tau):
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
