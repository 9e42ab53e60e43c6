"""Hypothesis oracle for the flat endpoint-tree build (Sections 4 and 6).

Every query's canonical columns must be exactly the nodes whose
jurisdiction lies inside ``R_q`` while their parent's does not — checked
by brute force over every node of every tree, dimension by dimension —
every secondary tree must index exactly the queries reaching its owner,
and every sigma-heap segment must be laid out as a heapify of its
registration-order pushes.  A point's scalar descent (``columns``) and a
one-element ``route_batch`` must reach exactly the last-dimension nodes
whose region holds it.  The generators lean on the cases the key
ranking can get wrong: open and closed bounds, the ``(x, 1)`` /
``(nextafter(x), 0)`` key pair, ``+inf`` upper bounds, and empty and
duplicate rectangles.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Query
from repro.core.dt_engine import TreeInstance
from repro.core.endpoint_tree import EndpointTree
from repro.core.engine import WorkCounters
from repro.core.geometry import PLUS_INFINITY, Interval, Rect, lower_key, upper_key

_POOL = [0.0, 1.0, math.nextafter(1.0, math.inf), 2.0, 2.5, math.nextafter(2.5, math.inf), 4.0]

interval_st = st.builds(
    lambda lo, hi, lo_closed, hi_closed, unbounded: Interval(
        lower_key(lo, lo_closed),
        PLUS_INFINITY if unbounded else upper_key(hi, hi_closed),
    ),
    st.sampled_from(_POOL),
    st.sampled_from(_POOL),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


@st.composite
def rect_lists(draw):
    dims = draw(st.integers(1, 3))
    rects = draw(st.lists(st.lists(interval_st, min_size=dims, max_size=dims).map(Rect), max_size=16))
    if rects:
        rects += draw(st.lists(st.sampled_from(rects), max_size=3))  # duplicates
    order = draw(st.permutations(range(len(rects))))
    return dims, [rects[i] for i in order]


def _inside(rect, forest, u):
    iv = rect.intervals[forest.dim]
    lo, hi = forest.jurisdiction(u)
    return iv.lo <= lo and hi <= iv.hi


def _nodes(forest, t):
    """Global nodes of tree ``t`` and its skeleton's parent column."""
    sk = forest.skels[t]
    base = int(forest.nbase[t])
    return range(base, base + sk.n), sk.parent, base


def _oracle(tree, rect, reached):
    """Brute-force canonical columns of ``rect``; records, per non-final
    tree node, which rectangles reach it."""
    out = []
    if not tree.forests or rect.is_empty():
        return out
    stack = [(0, 0)]
    while stack:
        dim, t = stack.pop()
        forest = tree.forests[dim]
        nodes, parent, base = _nodes(forest, t)
        for u in nodes:
            if not _inside(rect, forest, u):
                continue
            p = int(parent[u - base])
            if p >= 0 and _inside(rect, forest, base + p):
                continue
            if forest.owner is None:
                out.append(u)
            else:
                reached.setdefault((dim, u), []).append(rect)
                assert forest.owner[u] >= 0, "a canonical node without a secondary tree"
                stack.append((dim + 1, int(forest.owner[u])))
    return out


def _holds(forest, u, value):
    lo, hi = forest.jurisdiction(u)
    return lo <= (value, 0) < hi


def _regions_holding(tree, point):
    """Brute force: the last-dimension nodes whose region (the box of
    jurisdictions along their chain of trees) holds ``point``."""
    if not tree.forests:
        return set()
    # Per dimension, the node owning each tree of the next dimension.
    owner_of = [np.flatnonzero(f.owner >= 0) for f in tree.forests[:-1]]
    last = tree.forests[-1]
    out = set()
    for u in range(last.n):
        dim, node, forest = last.dim, u, last
        while _holds(forest, node, point[dim]):
            if dim == 0:
                out.add(u)
                break
            node = int(owner_of[dim - 1][forest.tree_of(node)])
            dim -= 1
            forest = tree.forests[dim]
    return out


def _reference_heapify(keys):
    arr = list(range(len(keys)))
    n = len(arr)
    for p in range(n // 2 - 1, -1, -1):
        e = arr[p]
        while True:
            c = 2 * p + 1
            if c >= n:
                break
            if c + 1 < n and keys[arr[c + 1]] < keys[arr[c]]:
                c += 1
            if keys[arr[c]] >= keys[e]:
                break
            arr[p] = arr[c]
            p = c
        arr[p] = e
    return arr


@settings(max_examples=300, deadline=None)
@given(
    case=rect_lists(),
    taus=st.lists(st.integers(1, 10**6), min_size=19, max_size=19),
    points=st.lists(st.tuples(*[st.sampled_from(_POOL + [-1.0, 1.5, 3.0, 9.0])] * 3), max_size=6),
)
def test_build_matches_brute_force_oracle(case, taus, points):
    dims, rects = case
    counters = WorkCounters()
    tree = EndpointTree(rects, dims, counters)
    reached = {}
    for i, rect in enumerate(rects):
        cols = tree.qcols[tree.qptr[i] : tree.qptr[i + 1]].tolist()
        want = _oracle(tree, rect, reached)
        assert len(cols) == len(set(cols))
        assert sorted(cols) == sorted(want)
        if dims == 1 and cols:
            # Walk order: the left walk's nodes right to left, then the
            # right walk's left to right.
            klo = [int(tree.forests[0].klo[c]) for c in cols]
            turn = next((k for k in range(1, len(klo)) if klo[k] > klo[k - 1]), len(klo))
            assert klo[:turn] == sorted(klo[:turn], reverse=True)
            assert klo[turn - 1 :] == sorted(klo[turn - 1 :])

    # Each secondary indexes exactly the endpoints of the rectangles that
    # reach its owner node; one rebuild is counted per tree built.
    trees = 0
    for dim, forest in enumerate(tree.forests):
        trees += forest.ks.size
        if forest.owner is None:
            continue
        nxt = tree.forests[dim + 1]
        for u in np.flatnonzero(forest.owner >= 0).tolist():
            members = reached.get((dim, u), [])
            keys = {r.intervals[nxt.dim].lo for r in members}
            keys |= {r.intervals[nxt.dim].hi for r in members} - {PLUS_INFINITY}
            sec = int(forest.owner[u])
            k0 = int(nxt.kbase[sec])
            assert [nxt.key(k) for k in range(k0, k0 + int(nxt.ks[sec]))] == sorted(keys)
    assert counters.rebuilds == max(trees, 1)

    # Descents: the scalar columns and a one-element batch reach exactly
    # the nodes whose region holds the point.
    for point in points:
        point = point[:dims]
        want = _regions_holding(tree, point)
        cols = tree.columns(point).tolist()
        assert len(cols) == len(set(cols))
        assert set(cols) == want
        routed = tree.route_batch(np.array([point]), np.array([3.0]), np.array([0]))
        if routed is None:
            assert not want
        else:
            deltas = routed[0]
            assert set(np.flatnonzero(deltas > 0).tolist()) == want
            assert (deltas[sorted(want)] == 3).all()

    # Heap segments: a heapify of the registration-order pushes.
    entries = [(Query(r, taus[i], query_id=i), taus[i], 0) for i, r in enumerate(rects)]
    inst = TreeInstance(entries, dims, WorkCounters())
    arena = inst.arena
    by_col = {}
    for e, col in enumerate(inst.qcols.tolist()):
        by_col.setdefault(col, []).append(e)
    for col in range(len(inst.mins)):
        ids = by_col.get(col, [])
        keys = [arena.key(e) for e in ids]
        assert arena.segment(col) == [ids[j] for j in _reference_heapify(keys)]
