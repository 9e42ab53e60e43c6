"""Hypothesis oracle for the flat endpoint-tree build (Sections 4 and 6).

Every query's canonical columns must be exactly the nodes whose
jurisdiction lies inside ``R_q`` while their parent's does not — checked
by brute force over every node of every tree, dimension by dimension —
every secondary tree must index exactly the queries reaching its owner,
and every sigma-heap segment must be laid out as a heapify of its
registration-order pushes.  The generators lean on the cases the key
ranking can get wrong: open and closed bounds, the ``(x, 1)`` /
``(nextafter(x), 0)`` key pair, ``+inf`` upper bounds, and empty and
duplicate rectangles.
"""

import math

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


def _inside(rect, flat, u):
    iv = rect.intervals[flat.dim]
    lo, hi = flat.jurisdiction(u)
    return iv.lo <= lo and hi <= iv.hi


def _oracle(tree, rect, reached):
    """Brute-force canonical columns of ``rect``; records, per non-final
    tree node, which rectangles reach it."""
    out = []
    if tree.root is None or rect.is_empty():
        return out
    stack = [tree.root]
    while stack:
        flat = stack.pop()
        parent = flat.skel.parent
        for u in range(flat.n):
            if not _inside(rect, flat, u):
                continue
            if parent[u] >= 0 and _inside(rect, flat, int(parent[u])):
                continue
            if flat.last_dim:
                out.append(flat.base + u)
            else:
                reached.setdefault((id(flat), u), []).append(rect)
                assert u in flat.secondary, "a canonical node without a secondary tree"
                stack.append(flat.secondary[u])
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
@given(case=rect_lists(), taus=st.lists(st.integers(1, 10**6), min_size=19, max_size=19))
def test_build_matches_brute_force_oracle(case, taus):
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
            klo = [int(tree.root.skel.klo[c]) for c in cols]
            turn = next((k for k in range(1, len(klo)) if klo[k] > klo[k - 1]), len(klo))
            assert klo[:turn] == sorted(klo[:turn], reverse=True)
            assert klo[turn - 1 :] == sorted(klo[turn - 1 :])

    # Each secondary indexes exactly the endpoints of the rectangles that
    # reach its owner node; one rebuild is counted per tree built.
    trees = 0
    stack = [tree.root] if tree.root is not None else []
    while stack:
        flat = stack.pop()
        trees += 1
        for u, sec in flat.secondary.items():
            members = reached.get((id(flat), u), [])
            keys = {r.intervals[sec.dim].lo for r in members}
            keys |= {r.intervals[sec.dim].hi for r in members} - {PLUS_INFINITY}
            assert [sec.key(k) for k in range(len(sec.vals))] == sorted(keys)
            stack.append(sec)
    assert counters.rebuilds == max(trees, 1)

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
