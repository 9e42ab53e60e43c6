"""Unit and property tests for the sigma-heap arena and its scan mode."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize import collect
from repro.structures.heap import ARRAY_LAYOUT_ENTRIES, MIN_CAP, HeapArena


def arena_of(cols, keys, ncols=None, scan=False):
    """An arena with one single-entry run per key (entry i at cols[i])."""
    ncols = (max(cols) + 1 if cols else 0) if ncols is None else ncols
    mins = np.full(ncols, MIN_CAP, dtype=np.int64)
    arena = HeapArena(list(cols), keys, list(keys), [1] * len(keys), mins, scan)
    return arena, mins


def one_heap(keys, scan=False):
    """All entries in column 0: one heap."""
    return arena_of([0] * len(keys), keys, ncols=1, scan=scan)


def pop(arena, col=0):
    """Remove and return the minimum entry of ``col``."""
    e = arena.first_due(col, float("inf"))
    arena.remove(e)
    return e


def reference_heapify(keys):
    """Entry ids by slot after pushing in registration order and running a
    bottom-up heapify: the layout every arena segment must have."""
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


class TestBasicOperations:
    def test_push_peek_pop_orders_keys(self):
        keys = [5, 3, 8, 1, 9, 2]
        arena, _ = one_heap(keys)
        assert arena.top(0) == 1
        assert [keys[pop(arena)] for _ in range(len(keys))] == [1, 2, 3, 5, 8, 9]

    def test_min_key_empty(self):
        arena, mins = arena_of([1], [4], ncols=3)
        assert arena.top(0) is None and arena.top(2) is None
        assert mins.tolist() == [MIN_CAP, 4, MIN_CAP]
        assert arena.first_due(0, 10**9) == -1

    def test_first_due(self):
        arena, _ = one_heap([5, 3])
        assert arena.first_due(0, 2) == -1
        assert arena.payload(arena.first_due(0, 3)) == 3
        assert arena.payload(arena.first_due(0, 100)) == 3

    def test_remove_middle_entry(self):
        arena, _ = one_heap([4, 2, 7, 1, 9])
        arena.remove(0)  # key 4
        assert collect(arena) == []
        assert sorted(arena.key(e) for e in arena.segment(0)) == [1, 2, 7, 9]
        assert not arena.in_heap(0)

    def test_remove_detached_entry_raises(self):
        arena, _ = one_heap([1])
        arena.remove(0)
        with pytest.raises(ValueError):
            arena.remove(0)

    def test_entry_from_other_heap_rejected(self):
        # Entry ids are arena-local: an id past this arena's capacity is
        # rejected rather than silently touching another heap.
        arena, _ = one_heap([1])
        with pytest.raises(IndexError):
            arena.remove(5)

    def test_update_key_up_and_down(self):
        arena, mins = one_heap([10, 20, 30])
        arena.rekey(2, 1)
        assert arena.first_due(0, 100) == 2 and mins[0] == 1
        arena.rekey(2, 99)
        assert arena.first_due(0, 100) == 0 and mins[0] == 10
        assert collect(arena) == []

    def test_bool_and_len(self):
        arena, _ = arena_of([0, 1, 1], [3, 4, 5])
        assert len(arena) == 3
        arena.remove(1)
        assert len(arena) == 2
        arena.remove(0)
        arena.remove(2)
        assert len(arena) == 0

    def test_duplicate_keys_all_come_out(self):
        keys = [3, 3, 3, 1, 1]
        arena, _ = one_heap(keys)
        assert sorted(keys[pop(arena)] for _ in range(5)) == [1, 1, 3, 3, 3]
        assert arena.top(0) is None

    def test_pop_empty_raises(self):
        arena, mins = one_heap([2])
        pop(arena)
        assert arena.first_due(0, 10**9) == -1
        assert mins[0] == MIN_CAP
        with pytest.raises(ValueError):
            arena.remove(0)

    def test_push_unordered_then_heapify(self):
        # Both layout paths (entry by entry, and array passes for arenas
        # of ARRAY_LAYOUT_ENTRIES entries and more) give each segment the
        # layout of pushing its entries in registration order and
        # heapifying.
        for per_col in (3, ARRAY_LAYOUT_ENTRIES // 5 + 1):
            self.check_heapify_layout(per_col)

    @staticmethod
    def check_heapify_layout(per_col):
        rnd = random.Random(per_col)
        ncols = 5
        cols = [c for c in range(ncols) for _ in range(per_col)]
        rnd.shuffle(cols)
        keys = [rnd.randint(0, 20) for _ in cols]
        arena, mins = arena_of(cols, keys, ncols)
        assert (len(cols) >= ARRAY_LAYOUT_ENTRIES) == (per_col > 3)
        for c in range(ncols):
            ids = [e for e, col in enumerate(cols) if col == c]
            want = [ids[i] for i in reference_heapify([keys[e] for e in ids])]
            assert arena.segment(c) == want
            assert mins[c] == min(keys[e] for e in ids)
        assert collect(arena) == []

    def test_keys_beyond_int64_keep_their_order(self):
        big = MIN_CAP + 5
        for cols in ([0, 0, 0], [0] * ARRAY_LAYOUT_ENTRIES):
            keys = [big + 3, big, 7] + [big + 9] * (len(cols) - 3)
            arena, mins = arena_of(cols, keys, 1)
            assert arena.first_due(0, 10) == 2 and mins[0] == 7
            arena.remove(2)
            assert arena.key(arena.first_due(0, 2 * big)) == big
            assert mins[0] == MIN_CAP  # capped, never above the store's bound


def build_runs(n_entries, keys, rnd):
    """Runs shaped like a tree build's: one per query, 1-12 distinct
    columns each (a canonical set), keys drawn from ``keys``."""
    ncols = max(12, n_entries // 4)
    cols, run_keys, lengths = [], [], []
    while len(cols) < n_entries:
        h = min(rnd.randint(1, 12), n_entries - len(cols))
        cols += rnd.sample(range(ncols), h)
        run_keys.append(rnd.choice(keys))
        lengths.append(h)
    return cols, run_keys, lengths, ncols


#: Entry counts across the layout cutoff, up to about 5000 queries.
LAYOUT_SIZES = [
    1,
    2,
    9,
    300,
    ARRAY_LAYOUT_ENTRIES - 2,
    ARRAY_LAYOUT_ENTRIES - 1,
    ARRAY_LAYOUT_ENTRIES,
    ARRAY_LAYOUT_ENTRIES + 1,
    ARRAY_LAYOUT_ENTRIES + 7,
    58_000,
]
#: Few distinct keys, so that most entries of a segment tie; and keys at
#: and beyond 2^63, which the array path orders by dense rank.
TIED_KEYS = (1, 3, 3, 3, 8, 8, 20)
BIG_KEYS = (MIN_CAP - 1, MIN_CAP, MIN_CAP + 1, MIN_CAP + 2**40, 3, 3)


class TestLayoutAcrossCutoff:
    """Each path's arena equals, slot for slot, pushing every entry in
    registration order and running a textbook heapify per segment."""

    @pytest.mark.parametrize("keys", [TIED_KEYS, BIG_KEYS], ids=["tied", "big"])
    @pytest.mark.parametrize("n_entries", LAYOUT_SIZES)
    @pytest.mark.parametrize("scan", [False, True], ids=["heap", "scan"])
    def test_layout_matches_reference(self, n_entries, keys, scan):
        if n_entries == LAYOUT_SIZES[-1] and (keys is BIG_KEYS or scan):
            pytest.skip("one run of the largest size covers it")
        rnd = random.Random(n_entries)
        cols, run_keys, lengths, ncols = build_runs(n_entries, keys, rnd)
        mins = np.full(ncols, MIN_CAP, dtype=np.int64)
        arena = HeapArena(np.array(cols, dtype=np.intp), run_keys, range(len(lengths)), lengths, mins, scan)
        owner = [r for r, h in enumerate(lengths) for _ in range(h)]
        key = [run_keys[r] for r in owner]
        assert [arena.payload(e) for e in range(n_entries)] == owner
        by_col = {}
        for e, c in enumerate(cols):
            by_col.setdefault(c, []).append(e)
        for c in range(ncols):
            ids = by_col.get(c, [])
            if scan:
                assert arena.segment(c) == ids
            else:
                assert arena.segment(c) == [ids[i] for i in reference_heapify([key[e] for e in ids])]
            want = min((key[e] for e in ids), default=MIN_CAP)
            assert mins[c] == min(want, MIN_CAP)
        if n_entries <= 3000:
            assert collect(arena) == []


class TestRandomizedInvariants:
    def test_mixed_operations_keep_invariants(self):
        # The heap mode and the scan mode run the same operation mix.
        for scan in (False, True):
            self.check_mixed_operations(scan)

    @staticmethod
    def check_mixed_operations(scan):
        rnd = random.Random(42)
        ncols = 7
        cols = [rnd.randrange(ncols) for _ in range(300)]
        keys = [rnd.randint(0, 1000) for _ in cols]
        arena, mins = arena_of(cols, keys, ncols, scan)
        live = list(range(len(cols)))
        for step in range(600):
            if not live:
                break
            op = rnd.random()
            if op < 0.3:
                arena.remove(live.pop(rnd.randrange(len(live))))
            elif op < 0.8:
                arena.rekey(rnd.choice(live), rnd.randint(0, 1000))
            else:
                c = rnd.randrange(ncols)
                e = arena.first_due(c, 10**9)
                if e >= 0:
                    assert arena.key(e) == min(arena.key(x) for x in arena.segment(c))
                    arena.remove(e)
                    live.remove(e)
            if step % 50 == 0:
                assert collect(arena) == []
        assert collect(arena) == []
        for c in range(ncols):
            drained = []
            while arena.first_due(c, 10**9) >= 0:
                drained.append(arena.key(pop(arena, c)))
            assert drained == sorted(drained)
            assert mins[c] == MIN_CAP


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=0, max_size=90))
def test_heapsort_matches_sorted(keys):
    arena, _ = one_heap(keys)
    out = [keys[pop(arena)] for _ in range(len(keys))]
    assert out == sorted(keys)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=80),
    st.lists(
        st.tuples(st.sampled_from(["pop", "remove", "update"]), st.integers(0, 100)),
        max_size=80,
    ),
)
def test_scan_list_agrees_with_heap(keys, ops):
    """The scan mode must be observably identical to the heap mode."""
    heap, hmins = one_heap(keys)
    scan, smins = one_heap(keys, scan=True)
    live = list(range(len(keys)))
    for op, value in ops:
        if not live:
            break
        if op == "pop":
            # Pop from the heap, then remove the *same* entry from the
            # scan arena (with tied keys the two may pick different
            # minima, so matching by id keeps them in lockstep).
            assert heap.top(0) == scan.top(0)
            e = pop(heap)
            scan.remove(e)
            live.remove(e)
        elif op == "remove":
            e = live.pop(value % len(live))
            heap.remove(e)
            scan.remove(e)
        else:
            e = live[value % len(live)]
            heap.rekey(e, value)
            scan.rekey(e, value)
        assert heap.top(0) == scan.top(0)
        assert hmins.tolist() == smins.tolist()
        assert len(heap) == len(scan)
        due_h = heap.first_due(0, 50)
        due_s = scan.first_due(0, 50)
        assert (due_h < 0) == (due_s < 0)
        if due_h >= 0:
            assert heap.key(due_h) == scan.key(due_s)
