"""Heavy batches: ``process_batch`` reports exactly what ``process`` does.

Element weights are arbitrary positive integers (paper §1).  The DT
engines split a batch in int64 arithmetic, so a batch that weighs more
than their counters hold (``COUNTER_MAX``, 2^63 - 1) goes in element by
element, and a tree the next batch would carry past the bound is rebuilt
first.  Each case below registers a few queries and replays the same
batches twice, once through ``process_batch`` and once one element at a
time through ``process``.  The two must report the same ordered events
and leave the same ``W(q)`` behind, for every engine and for the serial
sharded system, in 1-D and 2-D, at batch totals around 2^53 and past
2^63.  The batch's element weight total must be exact too.
"""

import pytest

from repro import Observability, Query, RTSSystem, StreamElement
from repro.core.batch import PreparedBatch
from repro.shard.system import ShardedRTSSystem

P53 = 2**53
P61 = 2**61
P62 = 2**62
MAX = 2**63 - 1

ENGINES = {
    1: ["baseline", "dt", "dt-scan", "dt-static", "interval-tree"],
    2: ["baseline", "dt", "dt-scan", "dt-static", "rtree", "seg-intv-tree"],
}

#: name -> (thresholds of queries over [0, 10], [5, 20] and [0, 100] in
#: turn, batches of (coordinate, weight) elements)
CASES = {
    "one weight of 2^53 + 1": (
        [P53, P53 + 1, P53 + 2, 3],
        [[(5, 1), (7, P53 + 1), (15, 2), (50, 1)], [(6, 1), (15, 1)]],
    ),
    "total just under 2^53": (
        [P53 - 3, P53 - 1, 9, P53 - 2],
        [[(5, P53 - 8), (6, 3), (15, 2), (7, 1), (8, 1), (50, 1)]],
    ),
    "total just over 2^53": (
        [P53 - 3, P53, 9, P53 + 1],
        [[(5, P53 - 8), (6, 3), (15, 2), (7, 4), (8, 1), (50, 1)]],
    ),
    "two weights of 2^62": (
        [3 * P61, MAX],
        [[(5, P62), (5, P62)]],
    ),
    "total past 2^63": (
        [P62, 3 * P61, MAX, 7, MAX],
        [[(5, 3), (15, P62), (7, P62 - 1), (50, 2), (8, P62), (6, P61), (9, 1), (15, P62)]],
    ),
    "total past 2^64": (
        [MAX, 2 * MAX, P62 + 5],
        [[(5, MAX)] * 2 + [(15, P62), (50, P61)] + [(6, MAX)] * 3, [(7, 1)]],
    ),
    "overflow rebuild before a batch": (
        # After the first batch the tree holds 3 * 2^61 (one maturity of
        # five does not halve it); the second batch fits int64 alone but
        # not on top of that, so the tree is rebuilt first.
        [MAX, 5 * P61 - 7, MAX, MAX - 1, 11],
        [[(5, P62 + P61)], [(6, P61), (15, P61 - 9), (7, 4), (50, 6), (8, 3)]],
    ),
}

RECTS = [(0, 10), (5, 20), (0, 100)]


def _queries(dims, thresholds):
    return [
        Query([RECTS[i % len(RECTS)]] * dims, tau, query_id=f"q{i}")
        for i, tau in enumerate(thresholds)
    ]


def _batches(dims, batches):
    return [
        [StreamElement(float(x) if dims == 1 else (float(x),) * dims, w) for x, w in batch]
        for batch in batches
    ]


def _make(kind, dims, engine, obs):
    if kind == "single":
        return RTSSystem(dims=dims, engine=engine, observability=obs)
    return ShardedRTSSystem(
        dims=dims,
        engine=engine,
        shards=2,
        executor="serial",
        policy="spatial-grid",
        policy_options={"domain": (0, 100)},
        observability=obs,
    )


def replay(kind, dims, engine, case, batched):
    """Ordered events ``(query, timestamp, W(q))``, the survivors' ``W(q)``
    and the recorded element weight total of one replay."""
    thresholds, batches = CASES[case]
    obs = Observability()
    system = _make(kind, dims, engine, obs)
    queries = _queries(dims, thresholds)
    system.register_batch(queries)
    events = []
    for batch in _batches(dims, batches):
        if batched:
            events.extend(system.process_batch(batch))
        else:
            for element in batch:
                events.extend(system.process(element))
    alive = {}
    for q in queries:
        try:
            alive[q.query_id] = system.progress(q.query_id)[0]
        except KeyError:
            pass
    if kind == "sharded":
        system.close()
    weight = obs.metrics.value("rts_element_weight_total")
    return [(e.query.query_id, e.timestamp, e.weight_seen) for e in events], alive, weight


CELLS = [
    (kind, dims, engine, case)
    for kind in ("single", "sharded")
    for dims in (1, 2)
    for engine in ENGINES[dims]
    for case in CASES
]


@pytest.mark.parametrize("kind,dims,engine,case", CELLS)
def test_batched_events_equal_scalar_events(kind, dims, engine, case):
    scalar, scalar_alive, scalar_weight = replay(kind, dims, engine, case, batched=False)
    batched, batched_alive, batched_weight = replay(kind, dims, engine, case, batched=True)
    assert batched == scalar
    assert batched_alive == scalar_alive
    total = sum(w for batch in CASES[case][1] for _x, w in batch)
    assert batched_weight == scalar_weight == total


@pytest.mark.parametrize("dims", [1, 2])
def test_the_two_weight_case_matures_both_queries(dims):
    # The case that went missing when the int64 total wrapped: both
    # queries mature at the second element.
    events, alive, _ = replay("single", dims, "dt", "two weights of 2^62", batched=True)
    assert sorted(events) == [("q0", 2, 2 * P62), ("q1", 2, 2 * P62)]
    assert alive == {}


def test_overflow_rebuild_runs_before_the_batch():
    # The second batch fits the counters alone but not on top of the
    # first: the tree is rebuilt for it, and the batch is still split.
    thresholds, batches = CASES["overflow rebuild before a batch"]
    obs = Observability()
    system = RTSSystem(dims=1, engine="dt", observability=obs)
    system.register_batch(_queries(1, thresholds))
    first, second = _batches(1, batches)
    assert [e.query.query_id for e in system.process_batch(first)] == ["q4"]
    assert _overflow_rebuilds(obs) == 0
    matured = {e.query.query_id: e.timestamp for e in system.process_batch(second)}
    assert matured == {"q0": 2, "q2": 2, "q3": 2, "q1": 4}
    assert _overflow_rebuilds(obs) == 1


def _overflow_rebuilds(obs):
    samples = obs.metrics.to_json()["rts_rebuilds_total"]["samples"]
    return sum(s["value"] for s in samples if s["labels"] == {"kind": "overflow"})


@pytest.mark.parametrize(
    "weights",
    [[P62, P62], [MAX] * 5, [P53 + 1, 1], [1] * 7, [2**64, 3], []],
)
def test_prepared_total_is_exact(weights):
    batch = PreparedBatch([StreamElement(1.0, w) for w in weights], 1)
    assert batch.total == sum(weights)
    assert batch.vectorizable == all(w <= MAX for w in weights)
