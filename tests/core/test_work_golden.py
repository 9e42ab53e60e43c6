"""Golden work counters of the DT engines' batched ingestion.

Small seeded batched replays of dt, dt-static and dt-scan in one to three
dimensions, with registrations and terminations between batches, pinned
to their exact :class:`~repro.core.engine.WorkCounters` and to a digest
of their ordered events (query, timestamp, weight seen).  The figures
are machine-independent: a change to the batch path that keeps the
events and the work the same keeps every figure, and one that alters
either fails here.  A change that alters the work on purpose records
the new figures with ``python -m tests.core.test_work_golden``.
"""

import hashlib
import random

import pytest

from repro import Query, StreamElement
from repro.core.system import make_engine

CASES = [(engine, dims) for dims in (1, 2, 3) for engine in ("dt", "dt-static", "dt-scan")]


def replay(engine, dims, seed=1):
    """Counters and event digest of one seeded batched replay."""
    rng = random.Random(seed * 10 + dims)

    def rect():
        out = []
        for _ in range(dims):
            lo = rng.uniform(0, 90)
            out.append((lo, lo + rng.uniform(1, 40)))
        return out

    def point():
        return rng.uniform(0, 100) if dims == 1 else tuple(rng.uniform(0, 100) for _ in range(dims))

    def tau():
        return rng.choice((rng.randint(2, 12), rng.randint(30, 300), 10**6))

    eng = make_engine(engine, dims)
    eng.register_batch([Query(rect(), tau(), query_id=f"q{i}") for i in range(40)])
    digest = hashlib.sha256()
    ts, next_id = 1, 40
    for step in range(12):
        batch = [StreamElement(point(), rng.choice((1, 1, 2, 5))) for _ in range(rng.choice((16, 64, 200)))]
        for e in eng.process_batch(batch, ts):
            digest.update(repr((e.query.query_id, e.timestamp, e.weight_seen)).encode())
        ts += len(batch)
        if step % 3 == 0:
            eng.register(Query(rect(), tau(), query_id=f"q{next_id}"))
            next_id += 1
        elif step % 3 == 1:
            digest.update(repr(eng.terminate(f"q{rng.randrange(next_id)}")).encode())
    return eng.counters.snapshot(), digest.hexdigest()[:16]


#: Recorded before crossings were drained straight from the batch split;
#: that change kept every figure.  The 3-D figures were recorded before
#: the endpoint tree's per-object trees became per-dimension arrays.
GOLDEN = {
    ('dt', 1): ({'containment_checks': 0, 'counter_bumps': 4273, 'heap_ops': 784, 'messages': 815, 'rounds': 40, 'rebuilds': 7}, 'bde5d5515df2ab3f'),
    ('dt-static', 1): ({'containment_checks': 0, 'counter_bumps': 3579, 'heap_ops': 984, 'messages': 945, 'rounds': 32, 'rebuilds': 5}, 'bde5d5515df2ab3f'),
    ('dt-scan', 1): ({'containment_checks': 0, 'counter_bumps': 4273, 'heap_ops': 784, 'messages': 815, 'rounds': 40, 'rebuilds': 7}, 'bde5d5515df2ab3f'),
    ('dt', 2): ({'containment_checks': 0, 'counter_bumps': 6957, 'heap_ops': 495, 'messages': 418, 'rounds': 14, 'rebuilds': 107}, 'e888bfb546f40d31'),
    ('dt-static', 2): ({'containment_checks': 0, 'counter_bumps': 6401, 'heap_ops': 1115, 'messages': 903, 'rounds': 7, 'rebuilds': 397}, 'e888bfb546f40d31'),
    ('dt-scan', 2): ({'containment_checks': 0, 'counter_bumps': 6957, 'heap_ops': 495, 'messages': 418, 'rounds': 14, 'rebuilds': 107}, 'e888bfb546f40d31'),
    ('dt', 3): ({'containment_checks': 0, 'counter_bumps': 1105, 'heap_ops': 312, 'messages': 172, 'rounds': 0, 'rebuilds': 312}, 'dff86b5b71fe403f'),
    ('dt-static', 3): ({'containment_checks': 0, 'counter_bumps': 949, 'heap_ops': 1008, 'messages': 715, 'rounds': 0, 'rebuilds': 1291}, 'dff86b5b71fe403f'),
    ('dt-scan', 3): ({'containment_checks': 0, 'counter_bumps': 1105, 'heap_ops': 312, 'messages': 172, 'rounds': 0, 'rebuilds': 312}, 'dff86b5b71fe403f'),
}


@pytest.mark.parametrize("engine, dims", CASES)
def test_work_counters_and_events_are_pinned(engine, dims):
    assert replay(engine, dims) == GOLDEN[(engine, dims)]


if __name__ == "__main__":  # print the figures to pin
    for case in CASES:
        print(f"    {case!r}: {replay(*case)!r},")
