"""Unit tests for the structure-of-arrays columnar descent engine.

The :class:`~repro.core.endpoint_tree.ColumnarTree` freezes one
last-dimension endpoint tree into parallel numpy columns (BFS order,
arithmetic child indexing) so the batched driver descends whole ranges
with one gather + one bincount.  These tests pin the layout invariants
— the things the sanitizer's columnar↔pointer cross-check also guards
at runtime — plus the routing exactness and the freeze/refresh/flush
lifecycle against the pointer graph as ground truth.
"""

import numpy as np
import pytest

from repro import Query, RTSSystem, StreamElement
from repro.core.endpoint_tree import ColumnarTree, build_skeleton
from repro.core.engine import WorkCounters


def keys_of(*values):
    return [(float(v), 0) for v in values]


def make_columnar(*key_values, epoch=0):
    root = build_skeleton(keys_of(*key_values))
    return root, ColumnarTree(root, epoch, WorkCounters())


class TestLayoutInvariants:
    """The arithmetic BFS flatten mirrors the pointer graph exactly."""

    @pytest.mark.parametrize("n_keys", [1, 2, 3, 7, 8, 13, 64, 100])
    def test_child_parent_depth_columns(self, n_keys):
        root, ct = make_columnar(*range(n_keys))
        assert ct.nodes[0] is root
        depth_by_node = {id(root): 0}
        for i, node in enumerate(ct.nodes):
            li, ri, pi = int(ct.left[i]), int(ct.right[i]), int(ct.parent[i])
            if node.is_leaf:
                assert li == -1 and ri == -1
            else:
                assert ct.nodes[li] is node.left
                assert ct.nodes[ri] is node.right
                # Sibling pairs are adjacent: the k-th internal node owns
                # slots 2k+1 / 2k+2 of the append sequence.
                assert ri == li + 1
                depth_by_node[id(node.left)] = depth_by_node[id(node)] + 1
                depth_by_node[id(node.right)] = depth_by_node[id(node)] + 1
            if i == 0:
                assert pi == -1
            else:
                assert ct.nodes[pi].left is node or ct.nodes[pi].right is node
            assert int(ct.depth[i]) == depth_by_node[id(node)]
        assert ct.height == int(ct.depth.max())

    def test_leaf_table_is_sorted_and_complete(self):
        _root, ct = make_columnar(3, 1, 8, 5, 13, 2)
        assert (np.diff(ct.leaf_lows) > 0).all()
        leaves = [i for i in range(ct.n) if ct.left[i] < 0]
        assert sorted(ct.leaf_ids.tolist()) == leaves
        assert ct.leaf_lows.tolist() == [1.0, 2.0, 3.0, 5.0, 8.0, 13.0]

    def test_paths_matrix_with_sentinel_row(self):
        _root, ct = make_columnar(*range(10))
        paths = ct.paths()
        n = ct.n
        assert paths.shape == (len(ct.leaf_ids) + 1, ct.height + 1)
        # Row -1 is the all-sentinel drop-out row.
        assert (paths[-1] == n).all()
        for r, leaf in enumerate(ct.leaf_ids.tolist()):
            row = paths[r]
            assert row[0] == 0  # every path starts at the root
            d = int(ct.depth[leaf])
            assert row[d] == leaf
            assert (row[d + 1 :] == n).all()  # padding below the leaf
            # Consecutive entries follow parent pointers upward.
            for j in range(d, 0, -1):
                assert int(ct.parent[row[j]]) == row[j - 1]


class TestRouting:
    """route() computes exactly the scalar descents' counter deltas."""

    def _scalar_deltas(self, ct, values, weights):
        deltas = np.zeros(ct.n + 1)
        for v, w in zip(values, weights):
            pos = np.searchsorted(ct.leaf_lows, v, side="right") - 1
            if pos < 0:
                continue  # routes nowhere (left of the leftmost endpoint)
            node = int(ct.leaf_ids[pos])
            while node != -1:
                deltas[node] += w
                node = int(ct.parent[node])
        return deltas

    @pytest.mark.parametrize("n_keys,count", [(5, 3), (16, 40), (33, 200)])
    def test_matches_scalar_descent(self, n_keys, count):
        _root, ct = make_columnar(*range(0, 3 * n_keys, 3))
        rng = np.random.default_rng(7)
        vals = rng.integers(-2, 3 * n_keys + 4, size=count).astype(np.float64)
        weights = rng.integers(1, 9, size=count).astype(np.float64)
        got = ct.route(vals.reshape(-1, 1), weights, np.arange(count), 0)
        want = self._scalar_deltas(ct, vals, weights)
        if got is None:
            assert not want[: ct.n].any()
        else:
            # The scratch slot absorbs drop-outs and path padding; the
            # real node slots must match the scalar walk exactly.
            assert np.array_equal(got[: ct.n], want[: ct.n])

    def test_dropouts_land_in_scratch_only(self):
        _root, ct = make_columnar(10, 20, 30)
        vals = np.array([[5.0], [9.9]])  # both left of the leftmost key
        got = ct.route(vals, np.array([3.0, 4.0]), np.arange(2), 0)
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
        # Secondary trees hand route() a sel permuted by an earlier
        # dimension's argsort.  When that permutation covers the whole
        # batch, the cached fast path serves positions in *batch* order —
        # the weights must ride the same order (regression: the
        # level-synchronous branch once paired batch-order positions
        # with sel-order weights, crediting weight to the wrong leaf).
        _root, ct = make_columnar(*range(0, 3 * n_keys, 3))
        rng = np.random.default_rng(11)
        # Include out-of-range values on both sides (dropout mask path).
        vals = rng.integers(-3, 3 * n_keys + 5, size=count).astype(np.float64)
        weights = rng.integers(1, 9, size=count).astype(np.float64)
        vals2 = vals.reshape(-1, 1)
        identity = ct.route(vals2, weights, np.arange(count), 0)
        perm = rng.permutation(count)
        got = ct.route(vals2, weights, perm, 0)
        want = self._scalar_deltas(ct, vals, weights)
        assert np.array_equal(identity[: ct.n], want[: ct.n])
        assert np.array_equal(got[: ct.n], want[: ct.n])

    def test_sub_range_slicing_agrees_with_full(self):
        _root, ct = make_columnar(*range(0, 40, 2))
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 44, size=64).astype(np.float64).reshape(-1, 1)
        weights = rng.integers(1, 5, size=64).astype(np.float64)
        full = ct.route(vals, weights, np.arange(64), 0)
        lo_half = ct.route(vals, weights, np.arange(0, 32), 0)
        hi_half = ct.route(vals, weights, np.arange(32, 64), 0)
        parts = sum(
            p for p in (lo_half, hi_half) if p is not None
        )
        assert np.array_equal(full[: ct.n], parts[: ct.n])


class TestMirrorLifecycle:
    """cnts/pend/slack bookkeeping and the deferred write-back."""

    def test_apply_then_flush_writes_real_counters(self):
        root, ct = make_columnar(1, 2, 3, 4)
        vals = np.array([[2.0], [3.5], [4.0]])
        weights = np.array([5.0, 7.0, 2.0])
        deltas = ct.route(vals, weights, np.arange(3), 0)
        ct.apply(deltas)
        assert np.array_equal(ct.pend, deltas)
        assert float(ct.cnts[0]) == 14.0  # root delta == total routed weight
        assert root.counter == 0  # deferred: real counters untouched
        ct.flush()
        assert root.counter == 14
        assert not ct.pend.any()
        assert float(ct.cnts[ct.n]) == 0.0  # scratch slot cleared

    def test_slack_column_tracks_min_minus_count(self):
        system = RTSSystem(dims=1, engine="dt-static")
        for i in range(4):
            system.register(Query([(10 * i, 10 * i + 15)], 1000, query_id=f"q{i}"))
        ct = next(t for t in system.engine._trees if t is not None).tree._bulk
        assert ct is not None and ct.epoch == -1  # frozen at the rebuild boundary
        hidx = ct.heap_idx
        assert np.array_equal(
            ct.slack[hidx], ct.mins - ct.cnts[hidx]
        )
        mask = np.ones(ct.n, dtype=bool)
        mask[hidx] = False
        assert np.isinf(ct.slack[mask]).all()
        # A batched run keeps the identity through apply/charge.
        system.process_batch([StreamElement(float(v % 40), 2) for v in range(64)])
        ct = next(t for t in system.engine._trees if t is not None).tree._bulk
        assert np.array_equal(ct.slack[ct.heap_idx], ct.mins - ct.cnts[ct.heap_idx])

    def test_refresh_stamp_fast_path(self):
        system = RTSSystem(dims=1, engine="dt-static")
        system.register(Query([(0, 50)], 10_000, query_id="q"))
        ct = next(t for t in system.engine._trees if t is not None).tree._bulk
        counters = system.engine.counters
        before = ct.cnts.copy()
        # Nothing moved since the freeze: refresh must only adopt the
        # epoch, not rebuild the mirror columns.
        ct.refresh(41, counters)
        assert ct.epoch == 41
        assert np.array_equal(ct.cnts, before)

    def test_scalar_interleave_resyncs_mirror(self):
        system = RTSSystem(dims=1, engine="dt-static")
        system.register(Query([(0, 100)], 10_000, query_id="q"))
        system.process_batch([StreamElement(float(v), 1) for v in range(32)])
        system.process(StreamElement(5.0, 3))  # epoch bump + counter bumps
        system.process_batch([StreamElement(float(v), 1) for v in range(32)])
        assert system.engine.collected_weight("q") == 67

    def test_guard_disables_mirror_before_rounding(self):
        _root, ct = make_columnar(1, 2)
        deltas = np.zeros(ct.n + 1)
        deltas[0] = ct.guard + 1.0
        ct.apply(deltas)
        assert not ct.usable
