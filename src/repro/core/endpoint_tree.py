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

Flat layout
-----------
A tree is its sorted key array plus a :class:`Skeleton` — the balanced
shape over ``K`` keys, which depends on ``K`` alone and is shared by
every tree with ``K`` keys.  Nodes are integers in BFS order; node ``u``
covers the key ranks ``[klo[u], khi[u])``.  There is no Python object per
node or per tree: each dimension's trees are one :class:`Forest`, their
keys, nodes and paths laid end to end in arrays, with an owner map from
each node to the next dimension's tree it carries.  The whole build (key
ranking, skeletons, canonical sets) runs as a few array passes per
dimension over *all* trees of that dimension at once, and the scalar
descent, the batched router and the introspection read the same arrays.

Counter store
-------------
The counters ``c(u)`` and the heap minima ``min H(u)`` of all
last-dimension nodes live in two int64 columns, ``cnts`` and ``mins``,
owned by the :class:`EndpointTree`: column ``u`` is the last forest's
global node ``u``, so each last-dimension tree owns a contiguous slice,
its nodes in BFS order.  The scalar descent bumps the columns of one
path with a fancy-indexed add, the batched path adds whole delta
vectors, and both read the same values — there is no second copy to
keep in step.  ``cnts`` is a view of ``store``, which holds one spare
slot past the last column: the path matrices pad short paths with the
column count, so a scatter-add over padded paths lands their padding
there instead of needing a mask.

The tree is *static*: dynamic registration is provided one level up by the
logarithmic method (:mod:`repro.core.logmethod`), exactly as in Section 5.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from .engine import WorkCounters
from .geometry import PLUS_INFINITY, BoundaryKey, Rect

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
#: ``mins`` entry of a node whose heap is empty; heap keys above it are
#: stored as it, which can only make a node look due early (the drain
#: then finds nothing), never late.
COUNTER_MAX = int(_np.iinfo(_np.int64).max)

#: Skeletons over at most this many keys are cached (by key count), so
#: the logarithmic method's many small trees share their shapes.
SKELETON_CACHE_KEYS = 256

#: Builds of one tree over at most this many queries rank their keys
#: and look their canonical sets up (memoized per skeleton) query by
#: query, skipping the array passes whose fixed cost dominates tiny trees.
SMALL_TREE = 8

#: Bound on one skeleton's memo of canonical sets (cleared when full).
CANONICAL_MEMO_LIMIT = 4096

#: Query ranges per block of :func:`canonical_sets`: its walks hold about
#: ten ``block x (height + 1)`` index matrices at once, so blocks cap that
#: transient (about 1.2 MB at height 14) while staying large enough that
#: the per-block array calls cost nothing next to the work.
CANONICAL_CHUNK = 1024

_SKELETONS: Dict[int, "Skeleton"] = {}

_INF = float("inf")

#: The (empty) column array of an element that descends nowhere.
_NO_COLUMNS = _np.empty(0, dtype=_np.intp)
_NO_COLUMNS.flags.writeable = False


def _frozen(arr):
    arr.flags.writeable = False
    return arr


class Skeleton:
    """The balanced endpoint-tree shape over ``K`` sorted keys.

    The root covers key ranks ``[0, K)``; a node covering ``[i, j)``,
    ``j - i > 1``, has children ``[i, mid)`` and ``[mid, j)`` with
    ``mid = (i + j) // 2`` (leaf ``i`` owns ``[key_i, key_{i+1})``).
    Built depth by depth in BFS order, so the ``k``-th internal node's
    children sit at ``2k + 1`` and ``2k + 2``.  Read-only columns:
    ``left`` / ``right`` / ``parent`` / ``depth`` (-1 for "none"), the
    key-rank ranges ``klo`` / ``khi``, ``leaf_ids`` (the leaf of each key
    rank), ``levels`` (per depth, deepest first, ``(parents, child_start,
    child_end)`` for the bottom-up delta propagation keeping ``c(parent) =
    c(left) + c(right)``) and ``paths`` (each key rank's root-to-leaf
    path, padded with the sentinel ``n``, plus an all-sentinel last row).
    """

    __slots__ = (
        "K",
        "n",
        "height",
        "left",
        "right",
        "parent",
        "depth",
        "klo",
        "khi",
        "leaf_ids",
        "levels",
        "paths",
        "path_lens",
        "_ext",
        "_rows",
        "_memo",
    )

    def __init__(self, K: int) -> None:
        if K < 1:
            raise ValueError(f"a skeleton needs at least one key, got {K}")
        lo = _np.zeros(1, dtype=_np.intp)
        hi = _np.full(1, K, dtype=_np.intp)
        band_lo: List = []
        band_hi: List = []
        while lo.size:
            band_lo.append(lo)
            band_hi.append(hi)
            inner = hi - lo > 1
            li, hi_i = lo[inner], hi[inner]
            mid = (li + hi_i) >> 1
            lo = _np.empty(2 * li.size, dtype=_np.intp)
            hi = _np.empty(2 * li.size, dtype=_np.intp)
            lo[0::2], lo[1::2] = li, mid
            hi[0::2], hi[1::2] = mid, hi_i
        klo = _np.concatenate(band_lo)
        khi = _np.concatenate(band_hi)
        n = klo.size
        height = len(band_lo) - 1
        internal = _np.flatnonzero(khi - klo > 1)
        pair = 2 * _np.arange(internal.size, dtype=_np.intp)
        left = _np.full(n, -1, dtype=_np.intp)
        right = _np.full(n, -1, dtype=_np.intp)
        left[internal] = pair + 1
        right[internal] = pair + 2
        parent = _np.empty(n, dtype=_np.intp)
        parent[0] = -1
        parent[1:] = _np.repeat(internal, 2)
        sizes = [b.size for b in band_lo]
        depth = _np.repeat(_np.arange(len(sizes), dtype=_np.intp), sizes)
        leaves = _np.flatnonzero(khi - klo == 1)
        leaf_ids = _np.empty(K, dtype=_np.intp)
        leaf_ids[klo[leaves]] = leaves
        levels = []
        edges = _np.cumsum([0] + sizes)
        for d in range(height - 1, -1, -1):
            a, b = _np.searchsorted(internal, edges[d : d + 2])
            if a < b:
                par = _frozen(internal[a:b])
                levels.append((par, int(left[par[0]]), int(right[par[-1]]) + 1))
        paths = _np.full((K + 1, height + 1), n, dtype=_np.intp)
        rows = _np.arange(K, dtype=_np.intp)
        climb = parent.copy()
        climb[0] = 0  # the root climbs to itself (idempotent re-write)
        cur = leaf_ids.copy()
        for _ in range(height + 1):
            paths[rows, depth[cur]] = cur
            cur = climb[cur]
        self.K, self.n, self.height, self.levels = K, n, height, levels
        self.left, self.right = _frozen(left), _frozen(right)
        self.parent, self.depth = _frozen(parent), _frozen(depth)
        self.klo, self.khi = _frozen(klo), _frozen(khi)
        self.leaf_ids, self.paths = _frozen(leaf_ids), _frozen(paths)
        self.path_lens = (depth[leaf_ids] + 1).tolist()
        self._ext = None
        self._rows = None
        self._memo: Dict[Tuple[int, int], List[int]] = {}

    def ext(self):
        """``(left, right, klo, khi)`` with a trailing sentinel slot (index
        ``n``, which the path rows pad with), for :func:`canonical_sets`;
        kept by cached skeletons only (a large tree needs it once)."""
        ext = self._ext
        if ext is None:
            cols = (self.left, self.right, self.klo, self.khi)
            ext = tuple(_frozen(_np.append(c, f)) for c, f in zip(cols, (-2, -2, -1, -1)))
            if self.K <= SKELETON_CACHE_KEYS:
                self._ext = ext
        return ext

    def rows(self) -> List[List[int]]:
        """The root-to-leaf paths as Python lists (scalar descents)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [
                row[:ln] for row, ln in zip(self.paths.tolist(), self.path_lens)
            ]
        return rows

    def canonical(self, a: int, b: int) -> List[int]:
        """Canonical nodes of the key-rank range ``[a, b)`` (see
        :func:`canonical_sets`), in walk order; memoized per skeleton, so
        the small trees sharing a cached shape walk each range once."""
        if a >= b:
            return []
        memo = self._memo
        nodes = memo.get((a, b))
        if nodes is None:
            _pair, found = canonical_sets(
                self.paths, self.ext(), [a], [b - 1], _np.array([a]), _np.array([b])
            )
            if len(memo) >= CANONICAL_MEMO_LIMIT:
                memo.clear()
            nodes = memo[(a, b)] = found.tolist()
        return nodes


def skeleton(K: int) -> Skeleton:
    """The (possibly cached) :class:`Skeleton` over ``K`` keys: the
    Section 4 endpoint-tree shape."""
    sk = _SKELETONS.get(K)
    if sk is None:
        sk = Skeleton(K)
        if K <= SKELETON_CACHE_KEYS:
            _SKELETONS[K] = sk
    return sk


def canonical_sets(paths, nodes, rows_a, rows_b, a, b):
    """Canonical node sets of many key-rank ranges at once (Section 4).

    Pair ``j`` asks for the minimum set of nodes with disjoint
    jurisdictions tiling key ranks ``[a[j], b[j])`` of one tree (``b`` is
    the key count for ``+inf``); ``rows_a`` / ``rows_b`` are the
    ``paths`` rows of its leaves ``a`` and ``b - 1``, and ``nodes`` is
    ``(left, right, klo, khi)`` with a trailing slot for the sentinel the
    rows pad with.  The two paths share a prefix down to the *split node*
    (their lowest common ancestor), the answer when the range covers it.
    Otherwise the left walk follows the path to ``a`` below it, taking the
    right sibling wherever the path turns left, until the first node
    starting at ``a`` (taken too); the right walk mirrors it on the path
    to ``b - 1`` until the first node ending at ``b``.  Both walks are
    whole-matrix operations: a fixed number of array passes.

    Returns ``(pair, node)`` sorted by pair, each pair's nodes in walk
    order: the left walk's top-down, then the right walk's.  Pairs are
    taken :data:`CANONICAL_CHUNK` at a time, which bounds the walks'
    ``pairs x height`` working matrices.
    """
    if len(a) <= CANONICAL_CHUNK:
        return _canonical_block(paths, nodes, rows_a, rows_b, a, b)
    pairs, found = [], []
    for lo in range(0, len(a), CANONICAL_CHUNK):
        hi = lo + CANONICAL_CHUNK
        pair, node = _canonical_block(paths, nodes, rows_a[lo:hi], rows_b[lo:hi], a[lo:hi], b[lo:hi])
        pairs.append(pair + lo)
        found.append(node)
    return _np.concatenate(pairs), _np.concatenate(found)


def _canonical_block(paths, nodes, rows_a, rows_b, a, b):
    """:func:`canonical_sets` over one block of pairs."""
    left, right, klo, khi = nodes
    pa = paths[rows_a]
    pb = paths[rows_b]
    width = pa.shape[1]
    depth = _np.arange(width)
    pad = len(left) - 1
    # The paths part where they differ, or where both end (a == b - 1).
    diff = (pa != pb) | (pa == pad)
    split_depth = _np.where(diff.any(axis=1), diff.argmax(axis=1), width) - 1
    split = pa[_np.arange(len(a)), split_depth]
    covered = (klo[split] == a) & (khi[split] == b)
    below = depth > split_depth[:, None]
    sentinel = _np.full((len(a), 1), pad, dtype=pa.dtype)
    parts = []
    for path, ends, end_of, turn_to, sibling in (
        (pa, a, klo, left, right),
        (pb, b, khi, right, left),
    ):
        stop = (below & (end_of[path] == ends[:, None])).argmax(axis=1)
        before = below & (depth < stop[:, None])
        turn = before & (_np.concatenate((path[:, 1:], sentinel), axis=1) == turn_to[path])
        take = turn | (depth == stop[:, None])
        take[covered] = False
        parts.append((_np.where(turn, sibling[path], path), take))
    parts[0][1][covered, split_depth[covered]] = True
    emit = _np.concatenate((parts[0][0], parts[1][0]), axis=1)
    pair, col = _np.nonzero(_np.concatenate((parts[0][1], parts[1][1]), axis=1))
    return pair, emit[pair, col]


class Forest:
    """Every endpoint tree of one dimension, laid end to end as arrays.

    Tree ``t`` has ``ks[t]`` keys, at key indices ``[kbase[t], kbase[t] +
    ks[t])`` of ``vals`` / ``bits`` (the distinct boundary keys ``(value,
    bit)`` in key order) and ``lows`` (their encoded floats, see
    :func:`~repro.core.geometry.encoded_key`: the leaves' jurisdiction
    lows, the ``searchsorted`` routing table), and nodes ``[nbase[t],
    nbase[t] + 2 ks[t] - 1)`` of the ``n`` global nodes, in BFS order with
    the shape ``skels[t]``.  ``paths`` row ``kbase[t] + r`` is the
    root-to-leaf path of tree ``t``'s key rank ``r`` in global nodes,
    padded with ``n``, and its last row is all padding.  ``left`` /
    ``right`` are the global children (-1 at a leaf) and ``klo`` /
    ``khi`` the key indices a node covers, so also the path rows through
    it.  Every dimension but the last maps its nodes to the next
    dimension's trees in ``owner`` (-1: none, also at the trailing slot
    ``n`` the padding reads; the trees are numbered in the order of
    their owners), and the last dimension's nodes are the counter-store
    columns.  ``keyed`` serves the batched search of a dimension with
    several trees (see :meth:`EndpointTree.route_batch`).  One dimension
    is a forest of one tree, whose global and local numbers coincide.
    """

    __slots__ = (
        "dim",
        "skels",
        "ks",
        "kbase",
        "nbase",
        "n",
        "vals",
        "bits",
        "lows",
        "paths",
        "left",
        "right",
        "klo",
        "khi",
        "owner",
        "keyed",
        "_scalar",
        "_keys",
    )

    def __init__(self, dim: int, skels, ks, kbase, nbase, vals, bits, lows, paths, nodes):
        self.dim, self.skels = dim, skels
        self.ks, self.kbase, self.nbase = ks, kbase, nbase
        self.vals, self.bits, self.lows = vals, bits, lows
        self.paths = paths
        self.left, self.right, self.klo, self.khi = nodes
        self.n = len(self.left)
        self.owner = None
        self.keyed = None
        self._scalar = None  # the scalar descent's lists, built on demand
        self._keys = None  # the boundary keys as tuples, built on demand

    def scalar(self):
        """``(lows, kbounds, nbase, owner)`` as Python lists for the
        scalar descent (``kbounds`` also ends with the key count, and
        ``owner`` is None in the last dimension), built on first use."""
        lists = self._scalar
        if lists is None:
            own = self.owner
            lists = self._scalar = (
                self.lows.tolist(),
                [*self.kbase.tolist(), len(self.vals)],
                self.nbase.tolist(),
                None if own is None else own.tolist(),
            )
        return lists

    # -- keys and jurisdictions ---------------------------------------------

    def key(self, i: int) -> BoundaryKey:
        """Boundary key at key index ``i``."""
        return (self.vals.item(i), int(self.bits.item(i)))

    def tree_of(self, u: int) -> int:
        """The tree of global node ``u``."""
        return int(self.nbase.searchsorted(u, side="right")) - 1

    def jurisdiction(self, u: int) -> Tuple[BoundaryKey, BoundaryKey]:
        """``I(u) = [lo, hi)`` of global node ``u``."""
        t = self.tree_of(u)
        hi = int(self.khi[u])
        end = int(self.kbase[t] + self.ks[t])
        return self.key(int(self.klo[u])), PLUS_INFINITY if hi == end else self.key(hi)

    def rank(self, t: int, key: BoundaryKey) -> int:
        """Rank of ``key`` among tree ``t``'s keys; ``+inf`` ranks ``K``.

        ``key`` must be one of the tree's keys (AssertionError otherwise):
        canonical sets only exist for ranges whose endpoints are keys.
        """
        k0, k = int(self.kbase[t]), int(self.ks[t])
        if key == PLUS_INFINITY:
            return k
        keys = self._keys
        if keys is None:
            keys = self._keys = list(zip(self.vals.tolist(), self.bits.astype(int).tolist()))
        i = bisect_left(keys, key, k0, k0 + k)
        if i < k0 + k and keys[i] == key:
            return i - k0
        raise AssertionError(
            f"{key!r} is not an endpoint key of this tree: query endpoints "
            "must be keys of the tree"
        )

    def canonical(self, t: int, lo: BoundaryKey, hi: BoundaryKey) -> List[int]:
        """Global canonical nodes of ``[lo, hi)`` in tree ``t`` (endpoints
        must be keys), in walk order."""
        if not lo < hi:
            return []
        base = int(self.nbase[t])
        return [base + u for u in self.skels[t].canonical(self.rank(t, lo), self.rank(t, hi))]


def _one_tree(dim: int, sk: Skeleton, ks, vals, bits, lows) -> Forest:
    """The forest of one tree of shape ``sk``: the skeleton's own columns."""
    base = _np.zeros(1, dtype=_np.intp)  # the tree's key and node base
    nodes = (sk.left, sk.right, sk.klo, sk.khi)
    return Forest(dim, [sk], ks, base, base, vals, bits, lows, sk.paths, nodes)


def _forest(dim: int, ks, vals, bits, lows):
    """The forest of trees of ``ks[t]`` keys each, over the given keys
    (see :class:`Forest`), and its node columns with a trailing slot for
    the path padding, for :func:`canonical_sets`."""
    if len(ks) == 1:
        sk = skeleton(int(ks[0]))
        return _one_tree(dim, sk, ks, vals, bits, lows), sk.ext()
    kbase = _np.cumsum(ks) - ks
    sizes = 2 * ks - 1
    nbase = _np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    left = _np.full(total + 1, -2, dtype=_np.intp)
    right = _np.full(total + 1, -2, dtype=_np.intp)
    klo = _np.full(total + 1, -1, dtype=_np.intp)
    khi = _np.full(total + 1, -1, dtype=_np.intp)
    uniq, inv = _np.unique(ks, return_inverse=True)
    width = skeleton(int(uniq[-1])).height + 1
    paths = _np.full((int(ks.sum()) + 1, width), total, dtype=_np.intp)
    by_k = _np.argsort(inv, kind="stable")
    cuts = _np.searchsorted(inv[by_k], _np.arange(uniq.size + 1))
    shapes = []
    for u, K in enumerate(uniq.tolist()):
        sk = skeleton(K)
        shapes.append(sk)
        trees = by_k[cuts[u] : cuts[u + 1]]
        off = _np.repeat(nbase[trees], sk.n)
        block = off + _np.tile(_np.arange(sk.n), trees.size)
        child = _np.tile(sk.left, trees.size)
        left[block] = _np.where(child >= 0, child + off, -1)
        child = _np.tile(sk.right, trees.size)
        right[block] = _np.where(child >= 0, child + off, -1)
        koff = _np.repeat(kbase[trees], sk.n)
        klo[block] = _np.tile(sk.klo, trees.size) + koff
        khi[block] = _np.tile(sk.khi, trees.size) + koff
        rows = sk.paths[:K]
        glob = rows[None, :, :] + nbase[trees][:, None, None]
        glob[:, rows == sk.n] = total
        at = (kbase[trees][:, None] + _np.arange(K)).ravel()
        paths[at, : sk.height + 1] = glob.reshape(-1, sk.height + 1)
    skels = [shapes[u] for u in inv.tolist()]
    nodes = (left, right, klo, khi)
    forest = Forest(dim, skels, ks, kbase, nbase, vals, bits, lows, paths, [c[:-1] for c in nodes])
    # The batched search of several trees at once: keys ``tree * M +
    # rank``, where ``rank`` places a low among all lows of the dimension.
    uniq, rank = _np.unique(lows, return_inverse=True)
    scale = uniq.size + 1
    forest.keyed = (uniq, _np.repeat(_np.arange(ks.size), ks) * scale + rank.ravel(), scale)
    return forest, nodes


def _route(forest: Forest, values, weights):
    """1-D batched descent through the one tree of ``forest``: per-node
    weight deltas of ``values`` (int64 ``weights``).

    Exactly the scalar descents' counter increments: elements land on
    leaf slots via ``searchsorted`` over the leaf lows (values left of
    the leftmost endpoint drop out), then every ancestor accumulates —
    through one int64 scatter-add over the gathered path rows, or, for a
    range whose path block would dwarf the tree, level by level over
    ``levels``.  Returns ``(deltas, pos)``: None when nothing routes,
    else int64 deltas with ``n + 1`` slots, the last a scratch slot
    absorbing the path padding; and each element's leaf rank (-1 left of
    the leftmost endpoint).  The sums are exact while the range's weight
    fits int64, which the engines guarantee.
    """
    sk = forest.skels[0]
    pos = _np.searchsorted(forest.lows, values, side="right") - 1
    n = sk.n
    deltas = _np.zeros(n + 1, dtype=_np.int64)
    if pos.size * (sk.height + 1) < 4 * n:
        # Gather the root-to-leaf paths and scatter-add them at once.
        # Drop-outs (``pos == -1``) wrap onto the all-sentinel last path
        # row, so no mask is needed here.
        touched = sk.paths[pos]
        _np.add.at(deltas, touched.ravel(), _np.repeat(weights, touched.shape[1]))
        return deltas, pos
    mask = pos >= 0
    if mask.all():
        _np.add.at(deltas, sk.leaf_ids[pos], weights)
    elif mask.any():
        _np.add.at(deltas, sk.leaf_ids[pos[mask]], weights[mask])
    else:
        return None, pos
    for par, child_start, child_end in sk.levels:
        deltas[par] = deltas[child_start:child_end].reshape(-1, 2).sum(axis=1)
    return deltas, pos


def _endpoints(rects: Sequence[Rect], ndims: int):
    """The non-empty rectangles' indices and, per dimension, their
    ``(lo keys, hi keys)`` boundary-key lists."""
    usable: List[int] = []
    lo_keys: List[List[BoundaryKey]] = [[] for _ in range(ndims)]
    hi_keys: List[List[BoundaryKey]] = [[] for _ in range(ndims)]
    if ndims == 1:  # the common case, without the per-dimension loop
        los, his = lo_keys[0], hi_keys[0]
        for i, rect in enumerate(rects):
            iv = rect.intervals[0]
            if iv.lo < iv.hi:  # an empty region can never mature
                usable.append(i)
                los.append(iv.lo)
                his.append(iv.hi)
        return usable, [(los, his)]
    for i, rect in enumerate(rects):
        ivs = rect.intervals
        for iv in ivs:
            if iv.lo >= iv.hi:
                break  # empty region: no participants, can never mature
        else:
            usable.append(i)
            for d, iv in enumerate(ivs):
                lo_keys[d].append(iv.lo)
                hi_keys[d].append(iv.hi)
    return usable, list(zip(lo_keys, hi_keys))


def _small_tree(dim: int, raw, queries: Sequence[int]):
    """A one-tree forest, ranked and decomposed query by query.

    ``raw`` is the dimension's ``(lo keys, hi keys)`` lists and
    ``queries`` the members.  Returns the forest and each member's
    canonical nodes — what the array path of :class:`EndpointTree`
    computes for a one-tree dimension, minus its fixed cost.
    """
    lo_keys, hi_keys = raw
    distinct = {lo_keys[q] for q in queries}
    distinct.update(hi_keys[q] for q in queries)
    distinct.discard(PLUS_INFINITY)
    keys = sorted(distinct)
    rank = {key: i for i, key in enumerate(keys)}
    K = len(keys)
    sk = skeleton(K)
    found = [sk.canonical(rank[lo_keys[q]], rank.get(hi_keys[q], K)) for q in queries]
    arr = _np.array(keys, dtype=_np.float64)
    vals, bits = arr[:, 0], arr[:, 1] != 0
    lows = _np.where(bits, _np.nextafter(vals, _INF), vals)
    return _one_tree(dim, sk, _np.array([K]), vals, bits, lows), found


class EndpointTree:
    """The d-dimensional endpoint tree over a list of query rectangles.

    Parameters
    ----------
    rects:
        The query rectangles, in registration order.  Empty rectangles
        get no canonical nodes (they can never mature).
    ndims:
        Data-space dimensionality.
    counters:
        Shared work-counter sink; ``rebuilds`` counts one per tree built
        (the primary plus every secondary).

    After construction, ``forests`` holds one :class:`Forest` per
    dimension (none when no rectangle is usable), and query ``i``'s
    canonical set — its last-dimension nodes, i.e. its DT
    "participants" — is the store columns ``qcols[qptr[i]:qptr[i + 1]]``:
    in one dimension in walk order (the left walk's nodes top-down, then
    the right walk's), in ``d`` dimensions nested the same way dimension
    by dimension.  ``cnts`` / ``mins`` are the counter store, one column
    per node of the last dimension's forest.  Each dimension's trees are
    laid out in the order of their owner nodes, and a tree's nodes in BFS
    order, so a descent (:meth:`columns`) visits its columns in
    increasing order.
    """

    __slots__ = (
        "ndims",
        "forests",
        "store",
        "cnts",
        "mins",
        "qptr",
        "qcols",
        "_hot_cache",
    )

    def __init__(
        self,
        rects: Sequence[Rect],
        ndims: int,
        counters: Optional[WorkCounters] = None,
    ):
        if ndims < 1:
            raise ValueError(f"an endpoint tree needs at least one dimension, got {ndims}")
        self.ndims = ndims
        self.forests: List[Forest] = []
        self._hot_cache: Optional[dict] = {} if ndims > 1 else None
        usable, raw = _endpoints(rects, ndims)
        n_usable = len(usable)
        if counters is not None:
            counters.rebuilds += 1  # the primary tree, even when empty
        if not n_usable:
            self.store = _np.zeros(1, dtype=_np.int64)
            self.cnts = self.store[:0]
            self.mins = _np.zeros(0, dtype=_np.int64)
            self.qptr = [0] * (len(rects) + 1)
            self.qcols = _np.zeros(0, dtype=_np.intp)
            return

        if ndims == 1 and n_usable <= SMALL_TREE:  # one small tree
            forest, found = _small_tree(0, raw[0], range(n_usable))
            self.forests.append(forest)
            self.store = _np.zeros(forest.n + 1, dtype=_np.int64)
            self.cnts = self.store[: forest.n]
            self.mins = _np.full(forest.n, COUNTER_MAX, dtype=_np.int64)
            counts = [0] * len(rects)
            for i, f in zip(usable, found):
                counts[i] = len(f)
            self.qptr = [0, *accumulate(counts)]
            self.qcols = _np.array([u for f in found for u in f], dtype=_np.intp)
            return

        # Membership pairs of the current dimension — tree, query, and
        # the pair's rank in query-major nested order.
        p_tree = _np.zeros(n_usable, dtype=_np.intp)
        p_query = _np.arange(n_usable)
        p_nest = p_query
        for dim in range(ndims):
            last = dim == ndims - 1
            n_trees = int(p_tree[-1]) + 1
            if dim and counters is not None:
                counters.rebuilds += n_trees
            if n_trees == 1 and p_tree.size <= SMALL_TREE:
                forest, found = _small_tree(dim, raw[dim], p_query.tolist())
                pair = _np.repeat(_np.arange(len(found)), [len(f) for f in found])
                node = _np.array([u for f in found for u in f], dtype=_np.intp)
            else:
                # Rank every tree's distinct (value, bit) keys with one sort;
                # (x, 1) and (nextafter(x), 0) stay two keys.
                lo = _np.array(raw[dim][0], dtype=_np.float64).reshape(-1, 2)
                hi = _np.array(raw[dim][1], dtype=_np.float64).reshape(-1, 2)
                lo_v, lo_b, hi_v, hi_b = lo[:, 0], lo[:, 1] != 0, hi[:, 0], hi[:, 1] != 0
                fin = ((hi_v != _INF) | ~hi_b)[p_query]
                kt = _np.concatenate((p_tree, p_tree[fin]))
                kv = _np.concatenate((lo_v[p_query], hi_v[p_query][fin]))
                kb = _np.concatenate((lo_b[p_query], hi_b[p_query][fin]))
                order = _np.lexsort((kb, kv, kt))
                st, sv, sb = kt[order], kv[order], kb[order]
                new = _np.ones(order.size, dtype=bool)
                new[1:] = (st[1:] != st[:-1]) | (sv[1:] != sv[:-1]) | (sb[1:] != sb[:-1])
                ks = _np.bincount(st[new], minlength=n_trees)
                # Global key indices: tree ``t``'s keys start at kbase[t].
                ranks = _np.empty(order.size, dtype=_np.intp)
                ranks[order] = _np.cumsum(new) - 1
                vals, bits = sv[new], sb[new]
                lows = vals.copy()
                lows[bits] = _np.nextafter(vals[bits], _INF)
                forest, nodes = _forest(dim, ks, vals, bits, lows)
                n_pairs = p_tree.size
                a = ranks[:n_pairs]
                b = (forest.kbase + ks)[p_tree]
                b[fin] = ranks[n_pairs:]
                pair, node = canonical_sets(forest.paths, nodes, a, b - 1, a, b)
            self.forests.append(forest)

            q = p_query[pair]
            if dim:
                # Each pair's nodes are contiguous in walk order; put the
                # pairs themselves back in nested order.
                nest = _np.lexsort((_np.arange(pair.size), p_nest[pair]))
                q, node = q[nest], node[nest]
            if last:
                # Last dimension: forest node numbers are store columns.
                n_cols = forest.n
                self.store = _np.zeros(n_cols + 1, dtype=_np.int64)
                self.cnts = self.store[:n_cols]
                self.mins = _np.full(n_cols, COUNTER_MAX, dtype=_np.int64)
                counts = _np.zeros(len(rects), dtype=_np.intp)
                counts[usable] = _np.bincount(q, minlength=n_usable)
                self.qptr = [0] + _np.cumsum(counts).tolist()
                self.qcols = node
                return
            # Next dimension: one tree per node of this dimension that
            # some query's canonical set contains, over exactly those
            # queries (grouped by node, registration order within).
            rank = _np.arange(q.size)
            grp = _np.lexsort((q, node))
            g_node = node[grp]
            first = _np.ones(grp.size, dtype=bool)
            first[1:] = g_node[1:] != g_node[:-1]
            owners = g_node[first]
            owner = _np.full(forest.n + 1, -1, dtype=_np.intp)
            owner[owners] = _np.arange(owners.size)
            forest.owner = owner
            p_tree = _np.cumsum(first) - 1
            p_query = q[grp]
            p_nest = rank[grp]

    # -- stream-side operations -------------------------------------------

    def update(self, point: Sequence[float], weight: int):
        """Add one element: bump ``c(u)`` along every relevant descent.

        Returns the store columns of the last-dimension nodes whose
        counters changed (see :meth:`columns`), so the engine can run the
        slack-inspection (heap drain) step on them.  The element itself
        is not stored anywhere (Section 4: "we then discard e forever").
        """
        touched = self.columns(point)
        self.cnts[touched] += weight
        return touched

    def columns(self, point: Sequence[float]):
        """Store columns of the last-dimension nodes ``point`` descends
        through (Section 4), as an index array in descent order.

        In one dimension the tree's path matrix answers with a binary
        search (its nodes are the store columns).  Otherwise repeated
        value points are served from the hot-key cache: the descent is a
        pure function of the point (the forests never change), so the
        array is replayed directly.  Either way a bump is one
        fancy-indexed add.
        """
        if not self.forests:
            return _NO_COLUMNS
        if self.ndims == 1:  # one tree: a row of the path matrix
            forest = self.forests[0]
            pos = bisect_right(forest.scalar()[0], point[0]) - 1
            if pos < 0:
                return _NO_COLUMNS
            sk = forest.skels[0]
            return sk.paths[pos, : sk.path_lens[pos]]
        cache = self._hot_cache
        key = point if type(point) is tuple else tuple(point)
        touched = cache.get(key)
        if touched is None:
            touched = _np.array(self._descend(point), dtype=_np.intp)
            if len(cache) >= HOT_CACHE_LIMIT:
                cache.clear()
            cache[key] = touched
        return touched

    def _descend(self, point: Sequence[float]) -> List[int]:
        """Iterative multi-level descent (depth-safe, no Python recursion).

        One bisect per reached tree, over its dimension's lows.  Visits
        the next dimension's trees in pre-order along each descent path:
        the trees owned by one path's nodes are descended top down, each
        fully before the next, which fixes the ``touched`` column
        sequence and therefore the heap-drain order in the engine.
        """
        touched: List[int] = []
        forests = self.forests
        stack: List[Tuple[int, int]] = [(0, 0)]
        while stack:
            dim, t = stack.pop()
            forest = forests[dim]
            lows, kb, nbase, owner = forest.scalar()
            k0 = kb[t]
            pos = bisect_right(lows, point[dim], k0, kb[t + 1]) - 1 - k0
            if pos < 0:
                continue  # below the leftmost endpoint: ignored (Section 4)
            sk = forest.skels[t]
            rows = sk._rows
            row = (sk.rows() if rows is None else rows)[pos]
            base = nbase[t]
            if owner is None:
                touched.extend([base + u for u in row])
            else:
                owned = [owner[base + u] for u in row]
                stack.extend([(dim + 1, s) for s in reversed(owned) if s >= 0])
        return touched

    def route_batch(self, values, weights, elems):
        """Route a run of batch elements once (docs/PERFORMANCE.md).

        ``values`` / ``weights`` are the rows of the
        :class:`~repro.core.batch.PreparedBatch` arrays (``weights``
        int64) holding the elements whose batch indices are ``elems``.
        Returns None when nothing reaches a last-dimension node, else
        ``(deltas, elems, rows)``: the int64 weight each store column
        gains from the elements (exactly the scalar descents' counter
        increments), and one ``(element, leaf row)`` pair per
        last-dimension tree an element reaches, in arrival order — row
        ``r`` of :meth:`leaf_rows`' path matrix is that descent (-1: left
        of the tree's leftmost endpoint, the all-sentinel row).

        In ``d >= 2`` an element reaches a set of trees per dimension;
        each (element, tree) pair finds its leaf with one ``searchsorted``
        over the dimension's keyed lows (:class:`Forest`), so the pairs
        of every tree search at once.  The trees owned along a leaf's
        path give the next dimension's pairs, in descent order.
        """
        forests = self.forests
        if not forests or len(elems) == 0:
            return None
        if self.ndims == 1:
            deltas, pos = _route(forests[0], values[:, 0], weights)
            if deltas is None:
                return None
            return deltas[: forests[0].n], elems, pos
        rows_of = None  # the value rows reached (None: all of them)
        trees = None
        for forest in forests:
            dim = forest.dim
            v = values[:, dim] if rows_of is None else values[rows_of, dim]
            keyed = forest.keyed
            if keyed is None:
                rows = forest.lows.searchsorted(v, side="right") - 1
            else:
                uniq, keys, scale = keyed
                query = trees * scale + (uniq.searchsorted(v, side="right") - 1)
                rows = keys.searchsorted(query, side="right") - 1
                rows[rows < forest.kbase[trees]] = -1  # below the tree's first key
            owner = forest.owner
            if owner is None:
                break
            owned = owner[forest.paths[rows]]
            r, c = _np.nonzero(owned >= 0)
            if not r.size:
                return None
            rows_of = r if rows_of is None else rows_of[r]
            trees = owned[r, c]
        touched = forest.paths[rows]
        n_cols = forest.n
        deltas = _np.zeros(n_cols + 1, dtype=_np.int64)
        _np.add.at(deltas, touched.ravel(), _np.repeat(weights[rows_of], touched.shape[1]))
        return deltas[:n_cols], elems[rows_of], rows

    def leaf_rows(self):
        """``(paths, klo, khi)`` for :meth:`route_batch`'s leaf rows: the
        last dimension's path matrix (store columns, padded with the
        column count) and each store column's leaf-row range — the
        elements through column ``u`` are those whose row lies in
        ``[klo[u], khi[u])``."""
        forest = self.forests[-1]
        return forest.paths, forest.klo, forest.khi

    # -- introspection -------------------------------------------------------

    def canonical_columns(self, rect: Rect) -> List[int]:
        """Store columns of ``rect``'s canonical set, recomputed.

        The same decomposition the build computed for a registered
        rectangle, walked one tree at a time; ``rect``'s endpoints must be
        endpoints of registered queries.
        """
        out: List[int] = []
        if not self.forests or rect.is_empty():
            return out
        forests = self.forests
        stack: List[Tuple[int, int]] = [(0, 0)]
        while stack:
            dim, t = stack.pop()
            forest = forests[dim]
            iv = rect.intervals[dim]
            found = forest.canonical(t, iv.lo, iv.hi)
            owner = forest.scalar()[3]
            if owner is None:
                out.extend(found)
            else:
                owned = [owner[u] for u in found]
                stack.extend([(dim + 1, s) for s in reversed(owned) if s >= 0])
        return out

    def range_count(self, rect: Rect) -> int:
        """Exact accumulated weight inside ``rect`` since construction.

        Sums ``c(u)`` over the canonical nodes of ``rect`` — this is how
        the engine obtains ``W(q)`` in ``O(polylog m)`` time for threshold
        re-basing during rebuilds (Section 4, "Handling Maturity").  The
        rectangle's endpoints must be endpoints of registered queries.
        """
        cnts = self.cnts
        return sum(cnts.item(u) for u in self.canonical_columns(rect))

    def primary(self) -> Optional[Skeleton]:
        """The primary tree's skeleton (None when no rectangle is usable)."""
        return self.forests[0].skels[0] if self.forests else None

    def height(self) -> int:
        """Height of the primary skeleton (0 for a single leaf or none)."""
        sk = self.primary()
        return 0 if sk is None else sk.height
