"""Unit tests for the flat endpoint-tree layout and its columnar descent.

A one-dimensional endpoint tree is a :class:`~repro.core.endpoint_tree.Forest`
of one tree: its sorted keys plus a shared
:class:`~repro.core.endpoint_tree.Skeleton` (BFS order, arithmetic child
indexing), so the batched driver descends whole ranges with one gather +
one bincount.  These tests pin the layout against a
recursively built pointer graph as ground truth, the routing exactness,
and the counter store (``cnts`` / ``mins``) that the scalar and batched
paths share.
"""

import numpy as np
import pytest

from repro import Query, RTSSystem, StreamElement
from repro.core.endpoint_tree import COUNTER_MAX, EndpointTree
from repro.core.geometry import PLUS_INFINITY, Interval, Rect


def make_columnar(*key_values):
    """The one-tree forest of a one-dimensional endpoint tree over the
    given (distinct) key values: one ``[v, +inf)`` query per value, so
    the values are exactly the keys."""
    rects = [Rect([Interval((float(v), 0), PLUS_INFINITY)]) for v in key_values]
    tree = EndpointTree(rects, 1)
    return tree.forests[0], tree


def route(tree, values, weights, sel):
    """``route_batch``'s per-node deltas of the elements ``sel`` (None
    when nothing routes)."""
    routed = tree.route_batch(values[sel], weights[sel], np.asarray(sel))
    return None if routed is None else routed[0]


def pointer_graph(K):
    """The balanced skeleton over K keys as nested dicts, built by the
    recursive ``mid = (i + j) // 2`` rule, numbered in BFS order."""

    def rec(i, j):
        node = {"lo": i, "hi": j, "left": None, "right": None}
        if j - i > 1:
            mid = (i + j) // 2
            node["left"], node["right"] = rec(i, mid), rec(mid, j)
        return node

    root = rec(0, K)
    order, depth = [root], {id(root): 0}
    for node in order:
        if node["left"] is not None:
            for child in (node["left"], node["right"]):
                depth[id(child)] = depth[id(node)] + 1
                order.append(child)
    return order, depth


class TestLayoutInvariants:
    """The level-by-level layout mirrors the recursive pointer graph."""

    @pytest.mark.parametrize("n_keys", [1, 2, 3, 7, 8, 13, 64, 100])
    def test_child_parent_depth_columns(self, n_keys):
        ct, tree = make_columnar(*range(n_keys))
        sk = ct.skels[0]
        nodes, depth = pointer_graph(n_keys)
        index = {id(node): i for i, node in enumerate(nodes)}
        assert ct.n == len(nodes)
        for i, node in enumerate(nodes):
            li, ri, pi = int(sk.left[i]), int(sk.right[i]), int(sk.parent[i])
            assert (int(sk.klo[i]), int(sk.khi[i])) == (node["lo"], node["hi"])
            if node["left"] is None:
                assert li == -1 and ri == -1
            else:
                assert li == index[id(node["left"])]
                assert ri == index[id(node["right"])]
                # Sibling pairs are adjacent.
                assert ri == li + 1
                assert int(sk.parent[li]) == i and int(sk.parent[ri]) == i
            if i == 0:
                assert pi == -1
            assert int(sk.depth[i]) == depth[id(node)]
        assert sk.height == int(sk.depth.max())

    def test_leaf_table_is_sorted_and_complete(self):
        ct, tree = make_columnar(3, 1, 8, 5, 13, 2)
        sk = ct.skels[0]
        assert (np.diff(ct.lows) > 0).all()
        leaves = [i for i in range(ct.n) if sk.left[i] < 0]
        assert sorted(sk.leaf_ids.tolist()) == leaves
        assert [int(sk.klo[u]) for u in sk.leaf_ids] == list(range(6))
        assert ct.lows.tolist() == [1.0, 2.0, 3.0, 5.0, 8.0, 13.0]

    def test_paths_matrix_with_sentinel_row(self):
        ct, tree = make_columnar(*range(10))
        sk = ct.skels[0]
        paths = sk.paths
        n = ct.n
        assert paths.shape == (len(sk.leaf_ids) + 1, sk.height + 1)
        # Row -1 is the all-sentinel drop-out row.
        assert (paths[-1] == n).all()
        for r, leaf in enumerate(sk.leaf_ids.tolist()):
            row = paths[r]
            assert row[0] == 0  # every path starts at the root
            d = int(sk.depth[leaf])
            assert row[d] == leaf
            assert (row[d + 1 :] == n).all()  # padding below the leaf
            # Consecutive entries follow parent pointers upward.
            for j in range(d, 0, -1):
                assert int(sk.parent[row[j]]) == row[j - 1]
            assert sk.rows()[r] == row[: d + 1].tolist()


class TestRouting:
    """route_batch() computes exactly the scalar descents' counter deltas."""

    def _scalar_deltas(self, ct, values, weights):
        deltas = np.zeros(ct.n + 1)
        sk = ct.skels[0]
        for v, w in zip(values, weights):
            pos = np.searchsorted(ct.lows, v, side="right") - 1
            if pos < 0:
                continue  # routes nowhere (left of the leftmost endpoint)
            node = int(sk.leaf_ids[pos])
            while node != -1:
                deltas[node] += w
                node = int(sk.parent[node])
        return deltas

    @pytest.mark.parametrize("n_keys,count", [(5, 3), (16, 40), (33, 200)])
    def test_matches_scalar_descent(self, n_keys, count):
        ct, tree = make_columnar(*range(0, 3 * n_keys, 3))
        rng = np.random.default_rng(7)
        vals = rng.integers(-2, 3 * n_keys + 4, size=count).astype(np.float64)
        weights = rng.integers(1, 9, size=count).astype(np.float64)
        got = route(tree, vals.reshape(-1, 1), weights, np.arange(count))
        want = self._scalar_deltas(ct, vals, weights)
        if got is None:
            assert not want[: ct.n].any()
        else:
            # The scratch slot absorbs drop-outs and path padding; the
            # real node slots must match the scalar walk exactly.
            assert np.array_equal(got[: ct.n], want[: ct.n])

    def test_dropouts_land_in_scratch_only(self):
        ct, tree = make_columnar(10, 20, 30)
        vals = np.array([[5.0], [9.9]])  # both left of the leftmost key
        got = route(tree, vals, np.array([3.0, 4.0]), np.arange(2))
        if got is not None:
            assert not got[: ct.n].any()

    @pytest.mark.parametrize(
        # Small trees take the level-synchronous scatter, the large-tree/
        # small-batch combination takes the path gather: both must be
        # permutation-invariant.
        "n_keys,count",
        [(2, 6), (2, 40), (24, 6), (24, 120)],
    )
    def test_permuted_full_selection_matches_identity(self, n_keys, count):
        # A permutation of the whole batch must route like the identity:
        # the weights must ride the positions' order (regression: the
        # level-synchronous branch once paired batch-order positions
        # with sel-order weights, crediting weight to the wrong leaf).
        ct, tree = make_columnar(*range(0, 3 * n_keys, 3))
        rng = np.random.default_rng(11)
        # Include out-of-range values on both sides (dropout mask path).
        vals = rng.integers(-3, 3 * n_keys + 5, size=count).astype(np.float64)
        weights = rng.integers(1, 9, size=count).astype(np.float64)
        vals2 = vals.reshape(-1, 1)
        identity = route(tree, vals2, weights, np.arange(count))
        perm = rng.permutation(count)
        got = route(tree, vals2, weights, perm)
        want = self._scalar_deltas(ct, vals, weights)
        assert np.array_equal(identity[: ct.n], want[: ct.n])
        assert np.array_equal(got[: ct.n], want[: ct.n])

    def test_sub_range_slicing_agrees_with_full(self):
        ct, tree = make_columnar(*range(0, 40, 2))
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 44, size=64).astype(np.float64).reshape(-1, 1)
        weights = rng.integers(1, 5, size=64).astype(np.float64)
        full = route(tree, vals, weights, np.arange(64))
        lo_half = route(tree, vals, weights, np.arange(0, 32))
        hi_half = route(tree, vals, weights, np.arange(32, 64))
        parts = sum(
            p for p in (lo_half, hi_half) if p is not None
        )
        assert np.array_equal(full[: ct.n], parts[: ct.n])


class TestMirrorLifecycle:
    """The int64 counter store that replaced the float64 mirror.

    ``cnts`` is c(u) and ``mins`` is min H(u); there is no second copy,
    so no flush, refresh or resync step exists between the paths.
    """

    def test_min_column_tracks_heap_minima(self):
        system = RTSSystem(dims=1, engine="dt-static")
        for i in range(4):
            system.register(Query([(10 * i, 10 * i + 15)], 1000, query_id=f"q{i}"))

        def check():
            inst = next(t for t in system.engine._trees if t is not None)
            for col in range(len(inst.mins)):
                top = inst.arena.top(col)
                want = COUNTER_MAX if top is None else top
                assert int(inst.mins[col]) == want
            assert inst.cnts.dtype == np.int64 and inst.mins.dtype == np.int64

        check()
        # Batched and scalar ingestion keep the column exact with no
        # refresh step in between.
        system.process_batch([StreamElement(float(v % 40), 2) for v in range(64)])
        check()
        for v in range(40):
            system.process(StreamElement(float(v), 7))
        check()
        system.terminate("q1")
        check()

    def test_scalar_interleave_resyncs_mirror(self):
        system = RTSSystem(dims=1, engine="dt-static")
        system.register(Query([(0, 100)], 10_000, query_id="q"))
        system.process_batch([StreamElement(float(v), 1) for v in range(32)])
        system.process(StreamElement(5.0, 3))  # epoch bump + counter bumps
        system.process_batch([StreamElement(float(v), 1) for v in range(32)])
        assert system.engine.collected_weight("q") == 67
