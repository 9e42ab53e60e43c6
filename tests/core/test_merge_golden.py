"""Golden figures of the DT engines' registration merges.

Seeded replays of dt, dt-static and dt-scan in one to three dimensions
that register about 300 queries one at a time, so the logarithmic
method builds trees of 1 to 256 queries.  Many queries share a
threshold, so their opening keys tie inside the new trees' heaps, and a
few have an empty region (an inert query with no canonical node).
Batches of mixed sizes run between registrations; runs of terminations
halve the low slots and force rebuilds; one snapshot/restore moves every
alive query into a fresh engine through one merge.

Each replay is pinned to its :class:`~repro.core.engine.WorkCounters`
(before the restore and at the end) and to one digest of the ordered
events, the terminate results and every alive query's
``collected_weight`` after each batch.  A change to how trees are built
or merged that keeps the behaviour keeps every figure.  A change that
alters it on purpose records the new figures with
``python -m tests.core.test_merge_golden``.
"""

import hashlib
import random

import pytest

from repro import Query, StreamElement
from repro.core.geometry import Interval, Rect
from repro.core.system import make_engine

CASES = [(engine, dims) for dims in (1, 2, 3) for engine in ("dt", "dt-static", "dt-scan")]

#: Few distinct thresholds: queries with one threshold and one canonical
#: set size open their rounds on the same key.
TAUS = (3, 40, 300, 2000, 2000) + (10**6,) * 5


def replay(engine, dims, seed=5):
    """Counters and digest of one seeded register/batch/terminate replay."""
    rng = random.Random(seed * 10 + dims)

    def rect():
        if rng.random() < 0.04:
            return Rect([Interval.half_open(50.0, 50.0)] * dims)  # empty: inert
        out = []
        for _ in range(dims):
            lo = rng.uniform(0, 80)
            out.append((lo, lo + rng.choice((5.0, 20.0, rng.uniform(1, 60)))))
        return out

    def point():
        return rng.uniform(0, 100) if dims == 1 else tuple(rng.uniform(0, 100) for _ in range(dims))

    eng = make_engine(engine, dims)
    digest = hashlib.sha256()
    queries = {}
    alive = {}
    before_restore = None
    ts = 1
    for i in range(300):
        query = Query(rect(), rng.choice(TAUS), query_id=f"q{i}")
        queries[query.query_id] = query
        eng.register(query)
        alive[query.query_id] = None
        if i % 6 == 5:
            size = rng.choice((1, 3, 16, 64, 250))
            batch = [StreamElement(point(), rng.choice((1, 1, 2, 7))) for _ in range(size)]
            for e in eng.process_batch(batch, ts):
                digest.update(repr((e.query.query_id, e.timestamp, e.weight_seen)).encode())
                del alive[e.query.query_id]
            ts += size
            digest.update(repr([(qid, eng.collected_weight(qid)) for qid in alive]).encode())
        if i % 40 == 39:
            # The newest queries sit in the low slots: ending a run of
            # them halves those trees.
            for j in range(i - 4, i + 1):
                done = eng.terminate(f"q{j}")
                digest.update(repr((j, done)).encode())
                alive.pop(f"q{j}", None)
        elif i % 40 == 19:
            for _ in range(3):
                qid = f"q{rng.randrange(i + 1)}"
                done = eng.terminate(qid)
                digest.update(repr((qid, done)).encode())
                alive.pop(qid, None)
        if i == 280:
            before_restore = eng.counters.snapshot()
            entries = [(queries[qid], eng.collected_weight(qid)) for qid in alive]
            eng = make_engine(engine, dims)
            eng.restore_entries(entries)
    return before_restore, eng.counters.snapshot(), digest.hexdigest()[:16]


#: Recorded before per-query tracker objects became per-tree columns;
#: that change kept every figure.  The 3-D figures were recorded before
#: the endpoint tree's per-object trees became per-dimension arrays.
GOLDEN = {
    ('dt', 1): ({'containment_checks': 0, 'counter_bumps': 35695, 'heap_ops': 4817, 'messages': 5067, 'rounds': 114, 'rebuilds': 290}, {'containment_checks': 0, 'counter_bumps': 3024, 'heap_ops': 1087, 'messages': 1073, 'rounds': 6, 'rebuilds': 21}, '0dc1abc2161e875d'),
    ('dt-static', 1): ({'containment_checks': 0, 'counter_bumps': 20967, 'heap_ops': 121608, 'messages': 119572, 'rounds': 72, 'rebuilds': 281}, {'containment_checks': 0, 'counter_bumps': 2222, 'heap_ops': 18957, 'messages': 18753, 'rounds': 1, 'rebuilds': 20}, 'a8bb2857a4384257'),
    ('dt-scan', 1): ({'containment_checks': 0, 'counter_bumps': 35695, 'heap_ops': 4817, 'messages': 5067, 'rounds': 114, 'rebuilds': 290}, {'containment_checks': 0, 'counter_bumps': 3024, 'heap_ops': 1087, 'messages': 1073, 'rounds': 6, 'rebuilds': 21}, '0dc1abc2161e875d'),
    ('dt', 2): ({'containment_checks': 0, 'counter_bumps': 28436, 'heap_ops': 5249, 'messages': 4596, 'rounds': 14, 'rebuilds': 2456}, {'containment_checks': 0, 'counter_bumps': 3723, 'heap_ops': 1957, 'messages': 1810, 'rounds': 0, 'rebuilds': 590}, '3014d60988ff34aa'),
    ('dt-static', 2): ({'containment_checks': 0, 'counter_bumps': 24839, 'heap_ops': 221042, 'messages': 200147, 'rounds': 6, 'rebuilds': 70753}, {'containment_checks': 0, 'counter_bumps': 3524, 'heap_ops': 36785, 'messages': 35410, 'rounds': 0, 'rebuilds': 10052}, '3014d60988ff34aa'),
    ('dt-scan', 2): ({'containment_checks': 0, 'counter_bumps': 28436, 'heap_ops': 5249, 'messages': 4596, 'rounds': 14, 'rebuilds': 2456}, {'containment_checks': 0, 'counter_bumps': 3723, 'heap_ops': 1957, 'messages': 1810, 'rounds': 0, 'rebuilds': 590}, '3014d60988ff34aa'),
    ('dt', 3): ({'containment_checks': 0, 'counter_bumps': 7956, 'heap_ops': 4804, 'messages': 4127, 'rounds': 2, 'rebuilds': 6664}, {'containment_checks': 0, 'counter_bumps': 1048, 'heap_ops': 2152, 'messages': 1888, 'rounds': 0, 'rebuilds': 2470}, '43bd416ba5ff153b'),
    ('dt-static', 3): ({'containment_checks': 0, 'counter_bumps': 8181, 'heap_ops': 235400, 'messages': 207207, 'rounds': 0, 'rebuilds': 286117}, {'containment_checks': 0, 'counter_bumps': 1056, 'heap_ops': 42221, 'messages': 37938, 'rounds': 0, 'rebuilds': 47121}, '43bd416ba5ff153b'),
    ('dt-scan', 3): ({'containment_checks': 0, 'counter_bumps': 7956, 'heap_ops': 4804, 'messages': 4127, 'rounds': 2, 'rebuilds': 6664}, {'containment_checks': 0, 'counter_bumps': 1048, 'heap_ops': 2152, 'messages': 1888, 'rounds': 0, 'rebuilds': 2470}, '43bd416ba5ff153b'),
}


@pytest.mark.parametrize("engine, dims", CASES)
def test_merge_counters_and_events_are_pinned(engine, dims):
    assert replay(engine, dims) == GOLDEN[(engine, dims)]


if __name__ == "__main__":  # print the figures to pin
    for case in CASES:
        print(f"    {case!r}: {replay(*case)!r},")
