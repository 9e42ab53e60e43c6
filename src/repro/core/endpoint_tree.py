"""The d-dimensional endpoint tree (paper Sections 4 and 6).

One dimension (Section 4)
-------------------------
The endpoint tree ``T`` is a balanced binary search tree over the distinct
endpoints of all query intervals.  Every node ``u`` owns a *jurisdiction
interval* ``I(u)``:

* a leaf storing endpoint ``x`` has ``I(u) = [x, x')`` where ``x'`` is the
  endpoint stored by the succeeding leaf (``+inf`` for the last leaf);
* an internal node's jurisdiction is the union of its children's.

A query interval ``R_q = [x, y)`` is partitioned by the jurisdiction
intervals of its *canonical node set* ``U_q`` — the minimum set of nodes
with disjoint jurisdictions whose union equals ``R_q`` (at most two nodes
per level, so ``|U_q| = O(log m)``).

Every node carries a counter ``c(u)`` accumulating the total weight of
stream elements whose value falls in ``I(u)``; an element updates the
``O(log m)`` counters along a single root-to-leaf descent, and is then
discarded — the structure never stores elements.

Higher dimensions (Section 6)
-----------------------------
For ``d >= 2`` the construction layers like a range tree: the primary tree
indexes the dimension-0 endpoints; each primary node ``u`` that appears in
some query's canonical set owns a *secondary* endpoint tree over the
dimension-1 endpoints of exactly those queries, and so on recursively.
Only nodes of the **last** dimension carry counters (and the per-node
min-heaps ``H(u)`` used by the tracking algorithm); the geometric region
of such a node is the box ``I(u_0) x I(u_1) x ... x I(u_{d-1})`` along the
chain of trees that leads to it, and the regions of a query's canonical
nodes form a disjoint partition of ``R_q``.

Counter store
-------------
The counters ``c(u)`` and the heap minima ``min H(u)`` of all
last-dimension nodes live in two int64 columns, ``cnts`` and ``mins``,
owned by the top-level tree; each node knows its column (``ETNode.idx``)
and each last-dimension tree owns a contiguous slice, laid out as a
:class:`ColumnarTree`.  The scalar descent bumps the columns of one path
with a fancy-indexed add, the batched path adds whole delta vectors, and
both read the same values — there is no second copy to keep in step.

The tree is *static*: dynamic registration is provided one level up by the
logarithmic method (:mod:`repro.core.logmethod`), exactly as in Section 5.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from ..structures.bst import build_skeleton as _build_skeleton
from ..structures.heap import AddressableMinHeap
from .engine import WorkCounters
from .geometry import PLUS_INFINITY, BoundaryKey, Rect, encoded_key

#: Hot-key cache bound (d >= 2): repeated element values replay their
#: cached descent (the column indices of the last-dimension nodes it
#: touches) instead of re-walking the tree.  The cache is safe because the
#: skeleton is immutable — rebuilds construct a brand-new EndpointTree.
#: Cleared wholesale when full.
HOT_CACHE_LIMIT = 4096

#: Largest value an int64 counter column holds.  Every counter of a tree
#: is at most the weight ingested since the tree was built, so the
#: engines keep that running total at or below this bound (a tree about
#: to cross it is rebuilt first; docs/API.md).  It doubles as the
#: ``mins`` entry of a node whose heap is empty or absent; heap keys
#: above it are stored as it, which can only make a node look due early
#: (the drain then finds nothing), never late.
COUNTER_MAX = int(_np.iinfo(_np.int64).max)

_KEY_VALUE = itemgetter(0)
_KEY_BIT = itemgetter(1)

_INF = float("inf")

#: The (empty) column array of an element that descends nowhere.
_NO_COLUMNS = _np.empty(0, dtype=_np.intp)
_NO_COLUMNS.flags.writeable = False


def sync_min(mins, node: "ETNode") -> None:
    """Store ``min H(u)`` (the Section 4 heap minimum) in ``mins[u.idx]``.

    Heap operations at ``u`` re-read it (O(1) each), so the column is
    exact at every slack check without any sweep over the heaps.
    """
    top = node.heap.min_key
    mins[node.idx] = COUNTER_MAX if top is None or top > COUNTER_MAX else top


class ColumnarTree:
    """Array layout of one last-dimension tree and its counter columns.

    Built once, when the top-level :class:`EndpointTree` lays out its
    counter store (the skeleton is immutable — rebuilds construct a
    brand-new tree).  Nodes are numbered in BFS order (root at index 0,
    children of consecutive nodes laid out consecutively — the Eytzinger
    layout generalized to non-complete skeletons via explicit child-index
    arrays):

    frozen skeleton columns
        ``left`` / ``right`` / ``parent`` / ``depth`` — child, parent
        and depth indices (-1 for "none"); ``leaf_lows`` / ``leaf_ids``
        — the leaves' encoded jurisdiction lows in key order plus their
        node indices (the ``searchsorted`` routing table); ``paths`` —
        one row per sorted leaf holding its full root-to-leaf node-index
        path, padded with the sentinel index ``n`` so a whole batch
        descends with one gather + one ``bincount``.

    counter columns
        ``cnts`` / ``mins`` — this tree's contiguous slice of the owning
        tree's int64 counter store, in the same BFS order: local node
        ``i`` is store column ``base + i`` (its ``ETNode.idx``).
        ``cnts[i]`` is the counter ``c(u)`` itself — there is no other
        copy — and ``mins[i]`` is ``min H(u)`` (:data:`COUNTER_MAX` when
        the heap is empty or absent).
    """

    __slots__ = (
        "nodes",
        "n",
        "base",
        "left",
        "right",
        "parent",
        "depth",
        "height",
        "leaf_lows",
        "leaf_ids",
        "levels",
        "cnts",
        "mins",
        "_paths",
        "_pos_cache",
        "_low_list",
        "_path_lens",
    )

    def __init__(self, root: ETNode, base: int = 0) -> None:
        # BFS flatten: visiting node i appends both its children, so
        # siblings are adjacent, nodes are depth-sorted, and the root
        # sits at index 0.  That pairing makes the whole layout
        # arithmetic — the k-th internal node (in BFS order) got the
        # k-th child pair, at slots ``2k+1`` and ``2k+2`` of the append
        # sequence — so the walk only numbers the nodes and records which
        # of them are internal; every index column falls out vectorized.
        nodes: List[ETNode] = [root]
        internal_list: List[int] = []
        napp = nodes.append
        iapp = internal_list.append
        i = 0
        while i < len(nodes):
            node = nodes[i]
            node.idx = base + i
            child = node.left
            if child is not None:
                iapp(i)
                napp(child)
                napp(node.right)
            i += 1
        n = len(nodes)
        self.nodes = nodes
        self.n = n
        self.base = base
        internal = _np.array(internal_list, dtype=_np.intp)
        k = _np.arange(len(internal), dtype=_np.intp)
        lefts = _np.full(n, -1, dtype=_np.intp)
        lefts[internal] = 2 * k + 1
        rights = _np.full(n, -1, dtype=_np.intp)
        rights[internal] = 2 * k + 2
        parent = _np.empty(n, dtype=_np.intp)
        parent[0] = -1
        if n > 1:
            parent[1:] = _np.repeat(internal, 2)
        # Depth bands: band d+1 is exactly the children of band d's
        # internal nodes, so each band edge advances by twice the number
        # of internal nodes the previous band contained.
        depths = _np.empty(n, dtype=_np.intp)
        e_prev, e, a_prev, d = 0, 1, 0, 0
        while e_prev < e:
            depths[e_prev:e] = d
            a = int(_np.searchsorted(internal, e))
            e_prev, e = e, e + 2 * (a - a_prev)
            a_prev = a
            d += 1
        self.left = lefts
        self.right = rights
        self.parent = parent
        self.depth = depths
        self.height = height = d - 1
        self._paths = None  # root-to-leaf path matrix, built on demand
        self._pos_cache = None
        self._low_list = None  # scalar routing table, built on demand
        self._path_lens = None
        self.cnts = None  # views into the owner's store (see EndpointTree)
        self.mins = None

        # Leaf routing table: the leaves' encoded jurisdiction lows in
        # key order.  A leaf's low is its BST key, so key order is the
        # symmetric (in-order) order; the (value, bit) boundary keys
        # encode vectorized (see geometry.encoded_key).
        leaf_ids = _np.nonzero(lefts < 0)[0]
        leaf_los = [nodes[j].lo for j in leaf_ids.tolist()]
        n_leaves = len(leaf_los)
        lows = _np.fromiter(
            map(_KEY_VALUE, leaf_los), dtype=_np.float64, count=n_leaves
        )
        bits = _np.fromiter(map(_KEY_BIT, leaf_los), dtype=bool, count=n_leaves)
        if bits.any():
            lows[bits] = _np.nextafter(lows[bits], _INF)
        order = _np.argsort(lows, kind="stable")
        self.leaf_ids = leaf_ids[order]
        self.leaf_lows = lows[order]

        # Per-level ``(parents, child_start, child_end)`` triples,
        # deepest first, for the level-synchronous bottom-up delta
        # propagation preserving c(parent) = c(left) + c(right).  BFS
        # order is depth-sorted and appends sibling pairs consecutively
        # in parent order, so depth band d+1 *is* the children of the
        # depth-d internal nodes — a contiguous slice whose pairwise
        # sums line up with those parents.
        d_int = depths[internal]
        self.levels = []
        for d in range(height - 1, -1, -1) if n > 1 else []:
            a, b = _np.searchsorted(d_int, (d, d + 1))
            if a < b:
                par = internal[a:b]
                self.levels.append((par, int(lefts[par[0]]), int(rights[par[-1]]) + 1))

    def paths(self):
        """Root-to-leaf path matrix (one row per sorted leaf), on demand.

        Row ``r`` holds the node indices from the root down to sorted
        leaf ``r``, padded with the sentinel index ``n`` (the scratch
        slot every delta vector carries).  Row ``-1`` is all-sentinel:
        elements whose leaf slot came back ``-1`` (value left of the
        leftmost endpoint — they route nowhere) wrap onto it under
        numpy's negative fancy indexing, so the gather path needs no
        drop-out mask; their weight lands in the scratch slot, which
        every consumer already ignores.  Built lazily, on the first
        range that takes the gather path.
        """
        paths = self._paths
        if paths is None:
            n = self.n
            leaf_ids = self.leaf_ids
            paths = _np.full((len(leaf_ids) + 1, self.height + 1), n, dtype=_np.intp)
            rows = _np.arange(len(leaf_ids), dtype=_np.intp)
            climb = self.parent.copy()
            climb[0] = 0  # the root climbs to itself (idempotent re-write)
            cur = leaf_ids.copy()
            dep = self.depth
            for _ in range(self.height + 1):
                paths[rows, dep[cur]] = cur
                cur = climb[cur]
            self._paths = paths
        return paths

    def path(self, value: float):
        """Local node indices of ``value``'s root-to-leaf descent.

        The scalar Section 4 descent as one row of :meth:`paths`, found
        by a binary search over the leaf lows (kept as a Python list for
        this, so the search costs no numpy dispatch).  Same nodes, same
        root-first order as the pointer walk; empty when ``value`` lies
        left of the leftmost endpoint.
        """
        lows = self._low_list
        if lows is None:
            lows = self._low_list = self.leaf_lows.tolist()
            self._path_lens = (self.depth[self.leaf_ids] + 1).tolist()
        pos = bisect_right(lows, value) - 1
        if pos < 0:
            return _NO_COLUMNS
        return self.paths()[pos, : self._path_lens[pos]]

    def _positions(self, values, dim):
        """Leaf slot of every batch element (cached per batch).

        One ``searchsorted`` over the whole batch serves every bisected
        sub-range via slicing.  The cache holds a strong reference to
        the batch's value array, so identity comparison cannot alias a
        recycled allocation.
        """
        cache = self._pos_cache
        if cache is not None and cache[0] is values:
            return cache
        pos = _np.searchsorted(self.leaf_lows, values[:, dim], side="right") - 1
        # Slot 2 records whether every element landed on a leaf (none
        # fell left of the leftmost endpoint): when True, every bisected
        # sub-range can skip its drop-out mask.  Slot 3 lazily holds the
        # whole batch's path-repeated weights for the full-range gather.
        cache = self._pos_cache = [values, pos, bool((pos >= 0).all()), None]
        return cache

    def route(self, values, weights_f64, sel, dim):
        """Vectorized descent: per-node weight deltas for ``sel``.

        Exactly the counter increments the scalar descents of ``sel``
        would perform: elements land on leaf slots via ``searchsorted``
        over the encoded jurisdiction lows (values below the leftmost
        endpoint drop out, as in ``_descend``), then every ancestor
        accumulates — normally through a single ``bincount`` over the
        gathered :meth:`paths` rows, or for a range so large the path
        block would dwarf the tree through the level-synchronous
        gather/scatter over :attr:`levels`.  Both produce identical
        deltas.  Returns None when nothing routes; the result is int64
        (``bincount`` sums in float64, exact because a vectorizable
        batch weighs less than 2^53 in all), has ``n + 1`` slots (the
        last one is scratch absorbing the path padding), and
        ``deltas[0]`` — the root's delta — is the total routed weight of
        the range.
        """
        cache = self._pos_cache
        if (cache is not None and cache[0] is values) or (
            4 * sel.size >= values.shape[0]
        ):
            cache = self._positions(values, dim)
            pos_all = cache[1]
            full = sel.size == pos_all.size
            pos = pos_all if full else pos_all[sel]
        else:
            # Small slices (bisection probes, secondary-tree subsets)
            # search directly; priming a whole-batch cache would cost
            # more than it saves.
            pos = _np.searchsorted(self.leaf_lows, values[sel, dim], side="right") - 1
            full = False
            cache = None
        n = self.n
        if pos.size * (self.height + 1) < 4 * n:
            # Gather the root-to-leaf paths and scatter-add them in one
            # weighted bincount.  Wins well past the naive n-slot
            # crossover: the level loop pays ~height numpy dispatches,
            # the gather pays three on a contiguous block.  Drop-outs
            # (``pos == -1``) wrap onto the all-sentinel last path row,
            # so no mask is needed here.
            touched = self.paths()[pos]
            if full:
                # Whole-batch descent: reuse the path-repeated weight
                # vector across this batch's top-level probes.
                wrep = cache[3]
                if wrep is None or wrep.size != sel.size * touched.shape[1]:
                    wrep = cache[3] = _np.repeat(weights_f64, touched.shape[1])
            else:
                wrep = _np.repeat(weights_f64[sel], touched.shape[1])
            return _np.bincount(
                touched.ravel(),
                weights=wrep,
                minlength=n + 1,
            ).astype(_np.int64)
        # ``pos`` rides in whole-batch order on the full fast path and in
        # ``sel`` order otherwise; the weight vector must ride the same
        # order (secondary trees pass ``sel`` permuted by an earlier
        # dimension's sort, so the two orders genuinely differ).
        w = weights_f64 if full else weights_f64[sel]
        mask = pos >= 0
        if not mask.all():
            if not mask.any():
                return None
            pos = pos[mask]
            w = w[mask]
        leaf_deltas = _np.bincount(pos, weights=w, minlength=len(self.leaf_lows))
        deltas = _np.zeros(n + 1, dtype=_np.int64)
        deltas[self.leaf_ids] = leaf_deltas
        for par, child_start, child_end in self.levels:
            deltas[par] = deltas[child_start:child_end].reshape(-1, 2).sum(axis=1)
        return deltas


class ETNode:
    """A node of one endpoint tree level.

    Attributes
    ----------
    lo, hi:
        Boundary keys of the jurisdiction interval ``I(u) = [lo, hi)``.
    left, right:
        Children (both None for a leaf).
    idx:
        The node's column in the owning tree's counter store: ``c(u)``
        is ``cnts[idx]`` and ``min H(u)`` is ``mins[idx]``.
        Last-dimension nodes only; -1 elsewhere (only they count weight).
    heap:
        The min-heap ``H(u)`` of sigma values (lazily created; None until a
        query tracker attaches an entry).  Last-dimension nodes only.
    secondary:
        For non-final dimensions: the next-dimension endpoint tree over the
        queries assigned to this node (None when no query uses this node).
    """

    __slots__ = ("lo", "hi", "left", "right", "idx", "heap", "secondary")

    def __init__(self, lo: BoundaryKey, hi: BoundaryKey):
        self.lo = lo
        self.hi = hi
        self.left: Optional[ETNode] = None
        self.right: Optional[ETNode] = None
        self.idx = -1
        self.heap: Optional[AddressableMinHeap] = None
        self.secondary: Optional["EndpointTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def ensure_heap(self, factory=AddressableMinHeap):
        """Return the node's heap, creating it via ``factory`` on first use."""
        if self.heap is None:
            self.heap = factory()
        return self.heap

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"ETNode({kind}, I=[{self.lo!r}, {self.hi!r}), col={self.idx})"


def build_skeleton(keys: Sequence[BoundaryKey]) -> Optional[ETNode]:
    """Balanced skeleton of :class:`ETNode` over sorted distinct keys.

    The Section 4 endpoint-tree shape: leaf ``i`` owns jurisdiction
    ``[keys[i], keys[i+1])``, the last leaf extends to ``+inf``, and every
    internal node's jurisdiction is tiled exactly by its two children.
    Returns None for an empty key set.
    """
    return _build_skeleton(keys, ETNode)


def canonical_nodes(root: Optional[ETNode], lo: BoundaryKey, hi: BoundaryKey) -> List[ETNode]:
    """Compute the canonical node set covering ``[lo, hi)``.

    ``lo`` (and ``hi``, unless it is ``+inf``) must be endpoint keys present
    in the tree — this is guaranteed by construction, since the tree is
    built on the endpoints of the very queries being decomposed.  The
    result is the minimum set of nodes with disjoint jurisdiction intervals
    whose union is exactly ``[lo, hi)`` (paper Section 4, footnote 1).
    """
    out: List[ETNode] = []
    if root is None or lo >= hi or hi <= root.lo or lo >= root.hi:
        return out

    # Descend to the split node: the highest node whose left child's
    # jurisdiction separates lo from hi.
    node = root
    while node.left is not None:
        boundary = node.left.hi
        if hi <= boundary:
            node = node.left
        elif lo >= boundary:
            node = node.right
        else:
            break
    if lo <= node.lo and node.hi <= hi:
        return [node]  # the whole subtree is covered (minimality)
    if node.left is None:
        raise AssertionError(
            f"leaf {node!r} partially overlaps [{lo!r}, {hi!r}); "
            "query endpoints must be keys of the tree"
        )

    # Left walk: follow the path to lo, collecting right siblings.
    v = node.left
    while True:
        if lo <= v.lo:
            out.append(v)  # v.hi <= split-left.hi < hi, so fully covered
            break
        if v.left is None:
            raise AssertionError(
                f"leaf {v!r} partially overlaps [{lo!r}, {hi!r}); "
                "query endpoints must be keys of the tree"
            )
        if lo < v.left.hi:
            out.append(v.right)
            v = v.left
        else:
            v = v.right

    # Right walk: follow the path to hi, collecting left siblings.
    v = node.right
    while True:
        if v.hi <= hi:
            out.append(v)  # v.lo >= split boundary > lo, so fully covered
            break
        if v.left is None:
            # The leaf storing hi itself: disjoint from [lo, hi).
            if v.lo != hi:
                raise AssertionError(
                    f"leaf {v!r} partially overlaps [{lo!r}, {hi!r}); "
                    "query endpoints must be keys of the tree"
                )
            break
        if hi >= v.left.hi:
            out.append(v.left)
            v = v.right
        else:
            v = v.left
    return out


class EndpointTree:
    """One endpoint tree level, recursively containing deeper levels.

    Parameters
    ----------
    items:
        ``(rect, sink)`` pairs.  ``rect`` is the query rectangle; ``sink``
        is a mutable list that receives the query's last-dimension
        canonical nodes (its DT "participants") as construction proceeds.
    dim:
        The dimension this level indexes (0-based).
    counters:
        Shared work-counter sink for machine-independent accounting.

    The top-level tree (``dim == 0``) owns the *counter store*: two int64
    columns with one entry per last-dimension node of every level —
    ``cnts`` (the counters ``c(u)``) and ``mins`` (the heap minima
    ``min H(u)``).  Each last-dimension tree owns a contiguous slice of
    them (its :class:`ColumnarTree`), and ``nodes`` maps a column back to
    its :class:`ETNode`.  Levels below the top hold None for all three.
    """

    __slots__ = (
        "root",
        "dim",
        "last_dim",
        "_counters",
        "size",
        "_flat",
        "_hot_cache",
        "_col",
        "cnts",
        "mins",
        "nodes",
    )

    def __init__(
        self,
        items: Sequence[Tuple[Rect, List[ETNode]]],
        dim: int,
        ndims: int,
        counters: Optional[WorkCounters] = None,
    ):
        if not 0 <= dim < ndims:
            raise ValueError(f"dim {dim} out of range for {ndims} dimensions")
        self.dim = dim
        self.last_dim = dim == ndims - 1
        self._counters = counters
        self.size = len(items)
        self._flat = None  # lazy secondary-dimension routing index
        self._hot_cache: Optional[dict] = None  # d >= 2: point -> columns
        self._col: Optional[ColumnarTree] = None  # last-dimension layout
        self.cnts = self.mins = self.nodes = None

        keys = set()
        usable: List[Tuple[Rect, List[ETNode]]] = []
        for rect, sink in items:
            if rect.is_empty():
                continue  # empty region: no participants, can never mature
            iv = rect.intervals[dim]
            keys.add(iv.lo)
            if iv.hi != PLUS_INFINITY:
                keys.add(iv.hi)
            usable.append((rect, sink))

        self.root = build_skeleton(sorted(keys))
        if counters is not None:
            counters.rebuilds += 1

        if self.root is not None:
            if self.last_dim:
                for rect, sink in usable:
                    iv = rect.intervals[dim]
                    sink.extend(canonical_nodes(self.root, iv.lo, iv.hi))
            else:
                # Group queries by canonical node, then recurse per node.
                per_node: dict[int, Tuple[ETNode, List[Tuple[Rect, List[ETNode]]]]] = {}
                for rect, sink in usable:
                    iv = rect.intervals[dim]
                    for node in canonical_nodes(self.root, iv.lo, iv.hi):
                        bucket = per_node.get(id(node))
                        if bucket is None:
                            per_node[id(node)] = (node, [(rect, sink)])
                        else:
                            bucket[1].append((rect, sink))
                for node, assigned in per_node.values():
                    node.secondary = EndpointTree(assigned, dim + 1, ndims, counters)
        if dim == 0:
            self._lay_out_store()

    def _lay_out_store(self) -> None:
        """Number every last-dimension node and allocate the counter store.

        Each last-dimension tree (the tree itself in 1-D, every secondary
        of the last level otherwise) is flattened into a
        :class:`ColumnarTree` whose nodes take the next contiguous run of
        columns.  Counters start at zero and every ``mins`` entry at
        :data:`COUNTER_MAX` (no heap yet); the owner of the trackers
        fills ``mins`` once their heaps are built.
        """
        cols: List[ColumnarTree] = []
        base = 0
        stack: List[EndpointTree] = [self]
        while stack:
            tree = stack.pop()
            if tree.root is None:
                continue
            if tree.last_dim:
                col = tree._col = ColumnarTree(tree.root, base)
                col.paths()  # the descent's gather matrix, built with the tree
                cols.append(col)
                base += col.n
            else:
                stack.extend(reversed(tree._ensure_flat()[2]))
        cnts = self.cnts = _np.zeros(base, dtype=_np.int64)
        mins = self.mins = _np.full(base, COUNTER_MAX, dtype=_np.int64)
        nodes = self.nodes = []
        for col in cols:
            col.cnts = cnts[col.base : col.base + col.n]
            col.mins = mins[col.base : col.base + col.n]
            nodes.extend(col.nodes)
        if not self.last_dim:
            self._hot_cache = {}

    # -- stream-side operations -------------------------------------------

    def update(self, point: Sequence[float], weight: int):
        """Add one element: bump ``c(u)`` along every relevant descent.

        Returns the store columns of the last-dimension nodes whose
        counters changed (see :meth:`columns`), so the engine can run the
        slack-inspection (heap drain) step on them.  The element itself
        is not stored anywhere (Section 4: "we then discard e forever").
        Top-level tree only.
        """
        touched = self.columns(point)
        self.cnts[touched] += weight
        return touched

    def columns(self, point: Sequence[float]):
        """Store columns of the last-dimension nodes ``point`` descends
        through (Section 4), as an index array in descent order.

        In one dimension the tree's own :class:`ColumnarTree` answers
        with a binary search (its local indices are the store columns).
        Otherwise repeated value points are served from the hot-key
        cache: the descent is a pure function of the point (the skeleton
        never changes), so the array is replayed directly.  Either way a
        bump is one fancy-indexed add.  Top-level tree only.
        """
        if self.last_dim:  # one dimension: a row of the path matrix
            col = self._col
            return _NO_COLUMNS if col is None else col.path(point[0])
        cache = self._hot_cache
        key = point if type(point) is tuple else tuple(point)
        touched = cache.get(key)
        if touched is None:
            out: List[int] = []
            self._descend(point, out)
            touched = _np.array(out, dtype=_np.intp)
            if len(cache) >= HOT_CACHE_LIMIT:
                cache.clear()
            cache[key] = touched
        return touched

    def _descend(self, point: Sequence[float], touched: List[int]) -> None:
        """Iterative multi-level descent (depth-safe, no Python recursion).

        Visits secondary trees in exactly the order the recursive
        formulation did — pre-order along each descent path — so the
        ``touched`` column sequence (and therefore the heap-drain order
        in the engine) is unchanged.
        """
        stack: List[EndpointTree] = [self]
        while stack:
            tree = stack.pop()
            node = tree.root
            if node is None:
                continue
            key = (point[tree.dim], 0)
            if key < node.lo:
                continue  # below the leftmost endpoint: ignored (Section 4)
            if tree.last_dim:
                while True:
                    touched.append(node.idx)
                    left = node.left
                    if left is None:
                        break
                    node = left if key < left.hi else node.right
            else:
                path_secondaries: List[EndpointTree] = []
                while True:
                    secondary = node.secondary
                    if secondary is not None:
                        path_secondaries.append(secondary)
                    left = node.left
                    if left is None:
                        break
                    node = left if key < left.hi else node.right
                stack.extend(reversed(path_secondaries))

    # -- batched bulk collection (docs/PERFORMANCE.md) ---------------------

    def _ensure_flat(self):
        """Build (once) the secondary routing index for earlier dimensions.

        The nodes owning a secondary tree, as parallel arrays of encoded
        jurisdiction bounds plus the secondary list — an element is
        handled by a secondary iff its coordinate lies in the owning
        node's jurisdiction, which is exactly what the scalar descent
        path visits.  Both bound lookups then run as *one*
        ``searchsorted`` call over all secondaries of the level.
        (Last-dimension trees flatten into a :class:`ColumnarTree`
        instead; see :meth:`bulk_collect`.)
        """
        flat = self._flat
        if flat is not None:
            return flat
        los: List[float] = []
        his: List[float] = []
        secondaries: List[EndpointTree] = []
        walk: List[ETNode] = [self.root] if self.root is not None else []
        while walk:
            node = walk.pop()
            if node.secondary is not None:
                los.append(encoded_key(node.lo))
                his.append(encoded_key(node.hi))
                secondaries.append(node.secondary)
            if node.left is not None:
                walk.append(node.right)
                walk.append(node.left)
        flat = (
            _np.array(los, dtype=_np.float64),
            _np.array(his, dtype=_np.float64),
            secondaries,
        )
        self._flat = flat
        return flat

    def bulk_collect(self, values, weights, sel, out, hints=None, stash=None) -> bool:
        """Slack-check a batch sub-range for bulk application.

        ``values``/``weights`` are the full batch arrays of a
        :class:`~repro.core.batch.PreparedBatch` (``weights`` already
        float64); ``sel`` indexes the elements under consideration.
        Returns True iff the range is *safe* everywhere: at each touched
        node ``u``, ``min H(u) > c(u) + delta(u)``.  Counters are
        monotone within the range, so safety means no prefix of it can
        trigger a signal anywhere — applying the deltas in one step is
        then observationally identical to element-at-a-time processing
        (and produces zero events).

        The check is one vectorized comparison per last-dimension tree
        against its slice of the counter store, which is exact at all
        times (``mins`` follows every heap operation); on success
        ``(columnar tree, int64 deltas)`` is appended to ``out`` for the
        caller to apply once *every* participating tree agrees.  On
        False nothing has been applied and ``out`` must be discarded.

        ``hints`` maps columnar trees to precomputed delta vectors (or
        None for "routes nowhere"): deltas are additive over disjoint
        element sets, so the bisection driver derives a right half's
        deltas as ``parent - left`` instead of re-routing.  ``stash``,
        when given, collects this range's per-tree deltas so the driver
        can derive siblings.
        """
        root = self.root
        if root is None or len(sel) == 0:
            return True
        if self.last_dim:
            col = self._col
            if hints is not None and col in hints:
                deltas = hints[col]
            else:
                deltas = col.route(values, weights, sel, self.dim)
            if stash is not None:
                stash[col] = deltas
            if deltas is None:
                return True
            # A node would signal inside the range iff its counter plus
            # the range's delta reaches its heap minimum.  Untouched
            # nodes (delta zero) never trigger here: between elements
            # no due signal is left undrained, so ``cnts < mins``.
            if (col.cnts + deltas[: col.n] >= col.mins).any():
                return False
            out.append((col, deltas))
            return True
        v = values[sel, self.dim]
        order = _np.argsort(v, kind="stable")
        sorted_v = v[order]
        sorted_sel = sel[order]
        los, his, secondaries = self._ensure_flat()
        starts = _np.searchsorted(sorted_v, los, side="left")
        stops = _np.searchsorted(sorted_v, his, side="left")
        for j in _np.nonzero(starts < stops)[0]:
            if not secondaries[j].bulk_collect(
                values,
                weights,
                sorted_sel[starts[j] : stops[j]],
                out,
                hints,
                stash,
            ):
                return False
        return True

    # -- introspection -------------------------------------------------------

    def range_count(self, rect: Rect) -> int:
        """Exact accumulated weight inside ``rect`` since construction.

        Sums ``c(u)`` over the canonical nodes of ``rect`` — this is how
        the engine obtains ``W(q)`` in ``O(polylog m)`` time for threshold
        re-basing during rebuilds (Section 4, "Handling Maturity").  The
        rectangle's endpoints must be endpoints of registered queries.
        """
        sink: List[ETNode] = []
        self._collect_canonical(rect, sink)
        cnts = self.cnts
        return sum(cnts.item(node.idx) for node in sink)

    def _collect_canonical(self, rect: Rect, sink: List[ETNode]) -> None:
        if rect.is_empty():
            return
        stack: List[EndpointTree] = [self]
        while stack:
            tree = stack.pop()
            if tree.root is None:
                continue
            iv = rect.intervals[tree.dim]
            found = canonical_nodes(tree.root, iv.lo, iv.hi)
            if tree.last_dim:
                sink.extend(found)
            else:
                stack.extend(
                    reversed(
                        [n.secondary for n in found if n.secondary is not None]
                    )
                )

    def iter_nodes(self) -> Iterator[ETNode]:
        """Depth-first iteration over this level's nodes (tests/debug)."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)

    def height(self) -> int:
        """Height of this level's skeleton (0 for a single leaf)."""
        root = self.root
        if root is None or root.is_leaf:
            return 0
        best = 0
        stack: List[Tuple[ETNode, int]] = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                if depth > best:
                    best = depth
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return best
