"""Ordered differential harness: every engine against the naive oracle.

Hypothesis draws scripts that interleave registrations, elements and
terminations, and replays each one three ways: the engine one element at
a time, the engine in batches of mixed sizes (with an optional
snapshot/restore between two operations), and the ``baseline`` engine —
the naive per-query scan, the oracle — one element at a time.

* Against the oracle, every timestamp must carry the same multiset of
  ``(query, W(q))`` reports.  RTS is the zero-delay case of online event
  detection, so a report one element late fails, not only a missing
  one.  The oracle breaks ties on one element by registration order,
  which the engines need not share, so ties compare as a multiset.
* The scalar and batched replays of one engine must report the very same
  ordered list (the batch contract, docs/PERFORMANCE.md); a restore may
  reorder the reports of one element (docs/ROBUSTNESS.md), so with a
  restore each timestamp compares as a multiset there too.
* Every query still alive at the end must have the same ``W(q)`` in all
  three replays.

The generators lean on the hard cases: element coordinates on a small
grid that the endpoints share, open, closed and unbounded bounds,
duplicate rectangles, weights large enough to cover many slacks in one
step, and a rare heavy tier of weights and thresholds near 2^62.  Named cases pin a maturity-driven rebuild inside one batch
and a 2-D batch whose last dimension sees its elements out of arrival
order.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval, Query, Rect, RTSSystem, StreamElement
from repro.core.system import available_engines

ENGINES_1D = ["baseline", "dt", "dt-scan", "dt-static", "interval-tree"]
ENGINES_2D = ["baseline", "dt", "dt-scan", "dt-static", "rtree", "seg-intv-tree"]

COORD = st.integers(0, 12)
KINDS = ["closed", "half_open", "open", "left_open", "at_least"]
#: The rare heavy tier: weights up to 2^62 and thresholds of that order,
#: so some batches weigh past 2^53 and 2^63 and trees take overflow
#: rebuilds (the DT counters are int64).
HEAVY_WEIGHT = st.one_of(st.integers(1 << 50, 1 << 62), st.integers((1 << 62) - 8, 1 << 62))
HEAVY_TAU = st.integers(1 << 60, (1 << 63) - 1)


def _rare(draw):
    """True about once in 8 draws (shrinks toward False)."""
    return draw(st.integers(0, 7)) == 7


def _interval(a, b, kind):
    if kind == "at_least":
        return Interval.at_least(a)
    return getattr(Interval, kind)(min(a, b), max(a, b))


@st.composite
def scripts(draw, dims):
    """``(ops, sizes, restore_at)``: the operations, the batch sizes the
    batched replay cycles through, and the operation before which it
    snapshots and restores (None: never)."""
    rects = []
    ops = []
    n_queries = 0
    for _ in range(draw(st.integers(0, 100))):
        kind = draw(st.sampled_from(("el", "el", "el", "reg", "term")))
        if kind == "reg":
            if rects and draw(st.integers(0, 3)) == 0:
                rect = draw(st.sampled_from(rects))  # a duplicate rectangle
            else:
                rect = Rect(
                    [_interval(draw(COORD), draw(COORD), draw(st.sampled_from(KINDS))) for _ in range(dims)]
                )
                rects.append(rect)
            if _rare(draw):
                tau = draw(HEAVY_TAU)
            else:
                tau = draw(st.one_of(st.integers(1, 40), st.integers(100, 3000)))
            ops.append(("reg", Query(rect, tau, query_id=n_queries)))
            n_queries += 1
        elif kind == "el":
            value = tuple(float(draw(COORD)) for _ in range(dims))
            # Now and then one weight covers many slacks at once.
            if _rare(draw):
                weight = draw(HEAVY_WEIGHT)
            else:
                weight = draw(st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(20, 600)))
            ops.append(("el", StreamElement(value if dims > 1 else value[0], weight)))
        else:
            ops.append(("term", draw(st.integers(0, max(0, n_queries - 1)))))
    sizes = draw(st.lists(st.sampled_from((1, 2, 3, 5, 8, 17, 64)), min_size=1, max_size=6))
    restore_at = draw(st.one_of(st.none(), st.integers(0, max(0, len(ops) - 1))))
    return ops, sizes, restore_at


def _key(events):
    return [(e.timestamp, e.query.query_id, e.weight_seen) for e in events]


def replay(engine, dims, ops, sizes=None, restore_at=None):
    """Events ``(timestamp, query, W(q))`` in report order, and ``W(q)`` of
    every query alive at the end.  ``sizes`` None feeds one element at a
    time; otherwise runs of elements go through ``process_batch`` in
    batches of the given sizes, in turn, cut at every other operation."""
    system = RTSSystem(dims=dims, engine=engine)
    events, pending, turn = [], [], 0
    registered = []

    def flush():
        nonlocal turn
        while pending:
            size = sizes[turn % len(sizes)]
            turn += 1
            events.extend(_key(system.process_batch(pending[:size])))
            del pending[:size]

    for i, (kind, arg) in enumerate(ops):
        if kind != "el" or i == restore_at:
            flush()
        if i == restore_at:
            system = RTSSystem.restore(system.snapshot())
        if kind == "reg":
            system.register(arg)
            registered.append(arg.query_id)
        elif kind == "term":
            if arg in registered:
                system.terminate(arg)
        elif sizes is None:
            events.extend(_key(system.process(arg)))
        else:
            pending.append(arg)
    flush()
    alive = {}
    for qid in registered:
        try:
            alive[qid] = system.progress(qid)[0]
        except KeyError:
            pass
    return events, alive


def check(engine, dims, script):
    """Scalar and batched replays of ``engine`` against the oracle, and
    against each other in order."""
    ops, sizes, restore_at = script
    oracle, oracle_alive = replay("baseline", dims, ops)
    scalar, scalar_alive = replay(engine, dims, ops)
    batched, batched_alive = replay(engine, dims, ops, sizes, restore_at)
    assert Counter(scalar) == Counter(oracle), f"{engine}: scalar replay vs the oracle"
    assert Counter(batched) == Counter(oracle), f"{engine}: batched replay vs the oracle"
    if restore_at is None:
        assert batched == scalar, f"{engine}: batched order diverged with sizes {sizes}"
    else:
        assert sorted(batched) == sorted(scalar), f"{engine}: restored replay diverged"
    assert scalar_alive == oracle_alive and batched_alive == oracle_alive, f"{engine}: W(q) of the survivors"


def _examples(n):
    return settings(max_examples=n, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- the DT engines, dims 1-3 ------------------------------------------------


@_examples(120)
@given(script=scripts(1))
def test_dt_matches_baseline_1d(script):
    check("dt", 1, script)


@_examples(80)
@given(script=scripts(2))
def test_dt_matches_baseline_2d(script):
    check("dt", 2, script)


@_examples(50)
@given(script=scripts(3))
def test_dt_matches_baseline_3d(script):
    check("dt", 3, script)


@_examples(60)
@given(script=scripts(1))
def test_static_dt_matches_baseline_1d(script):
    check("dt-static", 1, script)


@_examples(40)
@given(script=scripts(2))
def test_static_dt_matches_baseline_2d(script):
    check("dt-static", 2, script)


@_examples(25)
@given(script=scripts(3))
def test_static_dt_matches_baseline_3d(script):
    check("dt-static", 3, script)


@_examples(60)
@given(script=scripts(1))
def test_scan_dt_matches_baseline_1d(script):
    check("dt-scan", 1, script)


@_examples(40)
@given(script=scripts(2))
def test_scan_dt_matches_baseline_2d(script):
    check("dt-scan", 2, script)


@_examples(25)
@given(script=scripts(3))
def test_scan_dt_matches_baseline_3d(script):
    check("dt-scan", 3, script)


# -- the other engines ---------------------------------------------------------


@_examples(60)
@given(script=scripts(1))
def test_interval_tree_matches_baseline_1d(script):
    check("interval-tree", 1, script)


@_examples(40)
@given(script=scripts(2))
def test_seg_intv_matches_baseline_2d(script):
    check("seg-intv-tree", 2, script)


@_examples(40)
@given(script=scripts(2))
def test_rtree_matches_baseline_2d(script):
    check("rtree", 2, script)


@_examples(25)
@given(script=scripts(1))
def test_batch_equals_scalar_1d(script):
    for engine in ENGINES_1D:
        check(engine, 1, script)


@_examples(10)
@given(script=scripts(2))
def test_batch_equals_scalar_2d(script):
    for engine in ENGINES_2D:
        check(engine, 2, script)


def test_engine_lineup_is_complete():
    # Every registered engine appears in one of the line-ups, so a future
    # engine cannot silently skip the contract.
    assert set(ENGINES_1D) | set(ENGINES_2D) == set(available_engines())


# -- named cases ----------------------------------------------------------------


def test_forced_rebuild_mid_batch():
    """One batch whose maturities halve the alive count mid-descent.

    The global-rebuilding trigger (2 * alive <= built_count) fires while
    the batch driver is still bisecting, so the remainder replays against
    the rebuilt tree — events must still match the scalar replay.
    """
    queries = [Query([(10 * i, 10 * i + 15)], 5 + i, query_id=f"q{i}") for i in range(8)]
    elements = [StreamElement(float((11 * k) % 80), weight=2) for k in range(256)]
    ops = [("reg", q) for q in queries] + [("el", e) for e in elements]
    for engine in ("dt", "dt-static", "dt-scan"):
        scalar, _ = replay(engine, 1, ops)
        assert len(scalar) == len(queries)  # all matured in-run
        check(engine, 1, (ops, [len(elements)], None))  # one batch of 256


def test_permuted_secondary_selection_2d():
    """2-D batch whose last dimension sees its elements out of order.

    The first dimension groups the batch by tree, so the last-dimension
    tree is reached by the elements in another order than their arrival
    — and one element lies right of every dim-1 endpoint (regression:
    the columnar level-synchronous branch once paired batch-order leaf
    positions with selection-order weights, crediting the out-of-range
    element's weight to an in-range leaf and maturing one element
    early).
    """
    elements = [
        StreamElement(v, w)
        for v, w in [
            ((0.0, 0.0), 1),
            ((0.0, 1.0), 1),
            ((0.0, 1.0), 1),
            ((1.0, 0.0), 1),  # dim-0 grouping moves this behind the others
            ((0.0, 0.0), 1),
            ((0.0, 2.0), 2),  # right of every dim-1 endpoint: no credit
        ]
    ]
    ops = [("reg", Query([(0, 1), (0, 1)], 6, query_id="q0"))] + [("el", e) for e in elements]
    for engine in ENGINES_2D:
        scalar, scalar_alive = replay(engine, 2, ops)
        batched, batched_alive = replay(engine, 2, ops, sizes=[len(elements)])
        assert batched == scalar == []  # W stops at 5 < 6: nothing matures
        assert batched_alive == scalar_alive == {"q0": 5}
