"""Batched-vs-scalar ingestion throughput (docs/PERFORMANCE.md).

Thin pytest-benchmark wrapper over :mod:`repro.experiments.bench`: the
same fig. 3-style paper-horizon workload the ``rts-experiments bench``
CLI runs, timed per engine for element-at-a-time ``process`` and for
``process_batch`` at the default batch size.  The batch-vs-scalar
speedup lands in ``extra_info``; the committed baseline lives in
``BENCH_PR4.json`` and is gated in CI (perf-smoke job).

Sized well below the CLI defaults so the whole module stays in
benchmark-suite time budgets; run the CLI for the reference numbers.
"""

import os

import pytest

from repro.experiments.bench import bench_engine, build_bench_workload

BENCH_N = int(os.environ.get("RTS_BENCH_THROUGHPUT_N", "10000"))
BATCH_SIZE = int(os.environ.get("RTS_BENCH_THROUGHPUT_BATCH", "1024"))

_workload = None


def _get_workload():
    global _workload
    if _workload is None:
        _workload = build_bench_workload(dims=1, scale=1000, n=BENCH_N, seed=0)
    return _workload


@pytest.mark.parametrize("engine", ["dt", "dt-static", "baseline"])
def test_batched_ingestion_throughput(benchmark, engine):
    workload = _get_workload()
    holder = {}

    def run():
        holder["cell"] = bench_engine(
            engine, workload, batch_sizes=[BATCH_SIZE], repeats=1
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    cell = holder["cell"]
    batched = cell["batched"][str(BATCH_SIZE)]
    assert batched["events_equal"]
    benchmark.extra_info.update(
        {
            "engine": engine,
            "n": workload.n,
            "m": workload.m,
            "tau": workload.tau,
            "batch_size": BATCH_SIZE,
            "scalar_eps": cell["scalar"]["elements_per_sec"],
            "batched_eps": batched["elements_per_sec"],
            "speedup": batched["speedup"],
        }
    )


#: The signal-storm worst case of the batch split (docs/PERFORMANCE.md):
#: every query in its final phase, every element inside one of them, so
#: every element of the batch is a crossing.
STORM_QUERIES = 500
STORM_ELEMENTS = 2048
STORM_REPEATS = 7


def _storm(dims):
    """The storm's queries and elements: unit ranges with tau = 6 (at or
    below 6h with h = 1, so the final phase from the start), and elements
    cycling through them, about four per query (none matures)."""
    from repro import Query, StreamElement

    def rect(j):
        return [(j, j + 1)] + [(0, 10)] * (dims - 1)

    def point(j):
        x = j + 0.5
        return x if dims == 1 else (x,) + (5.0,) * (dims - 1)

    queries = [Query(rect(j), 6, query_id=j) for j in range(STORM_QUERIES)]
    elements = [StreamElement(point(i % STORM_QUERIES), 1) for i in range(STORM_ELEMENTS)]
    return queries, elements


def storm_times(dims, repeats=STORM_REPEATS):
    """Best-of-``repeats`` seconds of the storm batched (one
    ``process_batch``) and scalar (one ``process`` per element) on a
    fresh ``dt`` engine, the two taking turns; also checks they agree."""
    from time import perf_counter

    from repro.core.system import make_engine

    queries, elements = _storm(dims)
    best = {"batched": float("inf"), "scalar": float("inf")}
    events = {}
    for _ in range(repeats):
        for mode in ("batched", "scalar"):
            engine = make_engine("dt", dims)
            engine.register_batch(queries)
            start = perf_counter()
            if mode == "batched":
                out = engine.process_batch(elements, 1)
            else:
                out = []
                for t, element in enumerate(elements, 1):
                    out.extend(engine.process(element, t))
            best[mode] = min(best[mode], perf_counter() - start)
            events[mode] = [(e.query.query_id, e.timestamp, e.weight_seen) for e in out]
    assert events["batched"] == events["scalar"]
    return best["batched"], best["scalar"]


@pytest.mark.parametrize("dims", [1, 2])
def test_signal_storm(benchmark, dims):
    holder = {}

    def run():
        holder["times"] = storm_times(dims)

    benchmark.pedantic(run, rounds=1, iterations=1)
    batched_s, scalar_s = holder["times"]
    benchmark.extra_info.update(
        {
            "dims": dims,
            "queries": STORM_QUERIES,
            "elements": STORM_ELEMENTS,
            "repeats": STORM_REPEATS,
            "batched_s": batched_s,
            "scalar_s": scalar_s,
            "batched_over_scalar": batched_s / scalar_s,
        }
    )


#: Registration merges into a loaded engine (docs/PERFORMANCE.md, "Tree
#: build"): each timed ``register`` carries through the full slots
#: ``0 .. j-1`` of the logarithmic method and builds one tree of
#: ``2^j`` queries, re-basing the ``2^j - 1`` it moves.
MERGE_SIZES = (1, 8, 64, 512)
MERGE_REPEATS = 7


def merge_times(sizes=MERGE_SIZES, repeats=MERGE_REPEATS):
    """Best-of-``repeats`` seconds of one ``register`` that merges ``k``
    queries, for each ``k`` in ``sizes`` (powers of two), on a ``dt``
    engine loaded with the bench workload's queries and stream.

    Before each timed call, ``k - 1`` queries registered one at a time
    fill slots ``0 .. j-1``; after it, the ``k`` merged queries are
    terminated, which empties their slot again.  Only the merging
    ``register`` is timed.  The probes reuse the workload's rectangles
    and thresholds, so their opening keys tie as the bench's do."""
    from time import perf_counter

    from repro import Query
    from repro.core.system import make_engine

    workload = _get_workload()
    engine = make_engine("dt", workload.dims)
    engine.register_batch(workload.queries)
    engine.process_batch(workload.elements, 1)
    templates = workload.queries
    serial = 0
    best = {}
    for k in sizes:
        best[k] = float("inf")
        for _ in range(repeats):
            probes = []
            for _ in range(k):
                q = templates[serial % len(templates)]
                probes.append(Query(q.rect, q.threshold, query_id=("merge", serial)))
                serial += 1
            for q in probes[:-1]:
                engine.register(q)
            start = perf_counter()
            engine.register(probes[-1])
            best[k] = min(best[k], perf_counter() - start)
            assert engine.slot_sizes()[k.bit_length() - 1] == k
            for q in probes:
                engine.terminate(q.query_id)
    return best


def test_register_merge_sizes(benchmark):
    holder = {}

    def run():
        holder["best"] = merge_times()

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"repeats": MERGE_REPEATS, **{f"merge_{k}_s": s for k, s in holder["best"].items()}}
    )
