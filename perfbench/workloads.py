"""The benchmark's workloads: inputs, oracles and system factories.

Everything here runs before any timer starts.  A workload is built from
``--seed`` alone, so the same seed always gives the same queries, stream,
script and oracle.  The oracles are computed with numpy straight from the
generated arrays, never from an engine.

Op kinds of a pass (one closed-loop client, one op at a time):

``BATCH``      a list of StreamElements -> ``prepare_batch`` + ``process_batch``
``REGISTER``   a Query                  -> ``register``
``TERMINATE``  a query id               -> ``terminate``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import Query, RTSSystem
from repro.experiments.bench import build_bench_workload
from repro.shard.system import ShardedRTSSystem
from repro.streams.generators import generate_query_rect
from repro.streams.scale import PAPER_M, PAPER_TAU, paper_params
from repro.streams.workload import (
    ELEMENT,
    REGISTER,
    REGISTER_BATCH,
    TERMINATE,
    build_fixed_load_workload,
)

BATCH = "batch"

#: Elements per ``process_batch`` call (the cap for churn-2d, whose
#: batches are also cut at every register/terminate).
BATCH_SIZE = 1024

#: static-1d and the sharded workloads: Section 8.1 queries at the
#: paper's tau = 20M, m = 5000 (paper m / 200), 0.5% of them at a reduced
#: tau so maturities fire.  n = 256 batches keeps the pass at ~13% of the
#: ~2M-element maturity horizon; the run is lengthened by repeating
#: passes.
STATIC_M = 5_000
STATIC_N = 256 * BATCH_SIZE
#: On the static workloads, probe queries are registered one at a time
#: after the stream, into the loaded system, and then every probe and
#: SURVIVOR_TERMINATIONS surviving original queries are terminated one
#: at a time, so register/terminate latency exists on every workload.
#: static-1d's probes go through the logmethod's single-query merges,
#: whose cost follows the binary carries; with 1024 of them a pass's p99
#: lies among the sixteen 64-query merges, not at one large one.  On the
#: sharded workloads a single ``register`` reaches its shard as a
#: ``register_batch``, which rebuilds the shard's whole tree (100-175 ms
#: once 2500 queries sit there), so they register only 8 and their
#: register p99 is nearly the largest of a pass's calls.  Registering
#: after the stream keeps the garbage of those rebuilds, which the
#: collector pays for in later calls, out of the batch latencies.
STATIC_PROBES = 1024
SHARDED_PROBES = 8
#: 1024 terminations per pass put ten samples beyond the p99 of a
#: single pass.
SURVIVOR_TERMINATIONS = 1024
#: Passes of the static and sharded workloads cycle through this many
#: variants of the seed's inputs.  Variant k pairs the k-th rotation of
#: the seed's stream with the k-th set of query rectangles (variant 0
#: keeps the bench workload's own).  The elements are i.i.d., so each
#: rotation is another valid stream; what changes is where the reduced-tau
#: queries mature, which decides whether the engine's scalar backoff
#: fires (a ~25% throughput swing between streams).  The rectangles decide how the
#: queries split between the two shards, which sets the sharded
#: workloads' slowest batches (a pass's batch p99 ranged 8-17 ms from
#: one query set to another).  Cycling averages a run over several such
#: draws without generating new elements.
VARIANTS = 8

#: churn-2d: Scenario 2 fixed-load script.  tau = 200k puts the maturity
#: horizon at 20k elements, inside the 30k-element script.
CHURN_M = 500
CHURN_TAU = 200_000
CHURN_N = 30_000

SHARD_DOMAIN = (0, 100_000)

#: ``ShardedRTSSystem`` executor (None: an ``RTSSystem``) -> the name of
#: the workload that feeds the static-1d inputs to it.  ``"serial"``, the
#: library's default, runs both shards in the client's process;
#: ``"parallel"`` runs one worker process per shard.
STATIC_NAMES = {
    None: "static-1d",
    "serial": "sharded-serial-1d",
    "parallel": "sharded-1d",
}

Op = Tuple[str, object]


@dataclass
class Variant:
    """One input of a workload: a pass replays exactly one."""

    #: Registered with one ``register_batch`` during set-up.
    queries: List[Query]
    ops: List[Op]
    #: query id -> (maturity timestamp, W(q) at maturity) over the pass.
    expected: Dict[object, Tuple[int, int]]
    #: query id -> W(q) at the end of a pass, for queries still alive
    #: (checked through ``progress``); empty when the oracle has none.
    final_weights: Dict[object, int] = field(default_factory=dict)
    #: Query ids terminated one at a time after the probes of a full pass.
    closing_terminations: List[object] = field(default_factory=list)

    def expected_prefix(self, elements: Optional[int]) -> Dict[object, Tuple[int, int]]:
        """The oracle restricted to the first ``elements`` of the pass."""
        if elements is None:
            return self.expected
        return {q: v for q, v in self.expected.items() if v[0] <= elements}


@dataclass
class Workload:
    """Inputs of one workload plus what the client needs to drive it."""

    name: str
    dims: int
    make_system: Callable[..., object]
    #: Passes of a timed phase cycle through these.
    variants: List[Variant]
    #: Registered one at a time after the stream of each full pass, and
    #: terminated after the variant's closing terminations.
    probes: List[Query] = field(default_factory=list)
    #: Elements of the untimed warm-up pass before each measured phase.
    warmup_elements: int = 32 * BATCH_SIZE
    #: Elements of the pass replayed under tracemalloc for peak_heap_mb.
    heap_elements: int = 64 * BATCH_SIZE
    #: ``ShardedRTSSystem`` executor name, or None for an ``RTSSystem``.
    executor: Optional[str] = None

    @property
    def sharded(self) -> bool:
        return self.executor is not None

    @property
    def in_process(self) -> bool:
        """Whether the engines run in the client's own process."""
        return self.executor != "parallel"


def _half_open_bounds(queries: List[Query], dims: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` arrays of shape (m, dims); rejects non-half-open rects."""
    lo = np.empty((len(queries), dims))
    hi = np.empty((len(queries), dims))
    for i, q in enumerate(queries):
        for d, iv in enumerate(q.rect.intervals):
            if iv.lo[1] != 0 or iv.hi[1] != 0:
                raise ValueError(f"{q.query_id}: oracle expects [lo, hi) bounds")
            lo[i, d] = iv.lo[0]
            hi[i, d] = iv.hi[0]
    return lo, hi


def static_oracle(
    queries: List[Query], values: np.ndarray, weights: np.ndarray
) -> Tuple[Dict[object, Tuple[int, int]], Dict[object, int]]:
    """Exact 1-D maturities and end-of-stream weights by prefix sums.

    Each query's total in-range weight comes from one sort of the stream
    plus two ``searchsorted`` calls; only queries whose total reaches
    their threshold get a per-query cumulative sum to locate the exact
    maturity element.
    """
    v = values[:, 0].astype(np.float64)
    w = weights.astype(np.int64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cw = np.concatenate(([0], np.cumsum(w[order])))
    lo, hi = _half_open_bounds(queries, 1)
    totals = cw[np.searchsorted(sv, hi[:, 0], "left")] - cw[
        np.searchsorted(sv, lo[:, 0], "left")
    ]
    expected: Dict[object, Tuple[int, int]] = {}
    final: Dict[object, int] = {}
    for i, q in enumerate(queries):
        total = int(totals[i])
        if total < q.threshold:
            final[q.query_id] = total
            continue
        csum = np.cumsum(np.where((v >= lo[i, 0]) & (v < hi[i, 0]), w, 0))
        idx = int(np.searchsorted(csum, q.threshold, "left"))
        expected[q.query_id] = (idx + 1, int(csum[idx]))
    return expected, final


def _batches(elements: List[object]) -> List[Op]:
    return [
        (BATCH, elements[i : i + BATCH_SIZE])
        for i in range(0, len(elements), BATCH_SIZE)
    ]


def _probe_queries(seed: int, params, count: int) -> List[Query]:
    rng = np.random.default_rng([seed, 1])
    return [
        Query(generate_query_rect(rng, params), PAPER_TAU, query_id=f"probe{i}")
        for i in range(count)
    ]


def _rts_factory(dims: int) -> Callable[..., RTSSystem]:
    def make(observability=None) -> RTSSystem:
        # sanitize=False: RTS_SANITIZE in the environment must not leak in.
        return RTSSystem(
            dims=dims, engine="dt", observability=observability, sanitize=False
        )

    return make


def _sharded_factory(executor: str) -> Callable[..., ShardedRTSSystem]:
    def make(observability=None) -> ShardedRTSSystem:
        system = ShardedRTSSystem(
            dims=1,
            engine="dt",
            shards=2,
            executor=executor,
            policy="spatial-grid",
            policy_options={"domain": SHARD_DOMAIN},
            observability=observability,
            sanitize=False,
        )
        # Parallel workers start on their first call; start them here,
        # so that construction includes them.
        system.describe()
        return system

    return make


def _query_set(bench, seed: int, k: int, params) -> List[Query]:
    """Variant ``k``'s queries: the bench queries' ids and thresholds on
    fresh rectangles (variant 0 keeps the bench workload's own)."""
    if k == 0:
        return bench.queries
    rng = np.random.default_rng([seed, 2, k])
    return [
        Query(generate_query_rect(rng, params), q.threshold, query_id=q.query_id)
        for q in bench.queries
    ]


def build_static(seed: int, executor: Optional[str] = None) -> Workload:
    bench = build_bench_workload(
        dims=1, scale=PAPER_M // STATIC_M, n=STATIC_N, seed=seed
    )
    if bench.values is None:
        raise ValueError("stream weights exceed the exact float64 range")
    params = paper_params(
        1, PAPER_M // STATIC_M, tau=PAPER_TAU, stream_len=STATIC_N
    )
    probes = _probe_queries(
        seed, params, STATIC_PROBES if executor is None else SHARDED_PROBES
    )
    variants = []
    for k in range(VARIANTS):
        shift = k * STATIC_N // VARIANTS
        queries = _query_set(bench, seed, k, params)
        expected, final = static_oracle(
            queries,
            np.roll(bench.values, -shift, axis=0),
            np.roll(bench.weights, -shift),
        )
        elements = bench.elements[shift:] + bench.elements[:shift]
        survivors = [q.query_id for q in queries if q.query_id in final]
        variants.append(
            Variant(
                queries,
                _batches(elements),
                expected,
                final_weights=final,
                closing_terminations=survivors[:SURVIVOR_TERMINATIONS]
                + [q.query_id for q in probes],
            )
        )
    if executor is None:
        make_system = _rts_factory(1)
    else:
        make_system = _sharded_factory(executor)
    return Workload(
        name=STATIC_NAMES[executor],
        dims=1,
        make_system=make_system,
        variants=variants,
        probes=probes,
        executor=executor,
    )


def churn_ops(events: List[Tuple[str, object]]) -> List[Op]:
    """Group a script's elements into batches cut at every register and
    terminate (and at :data:`BATCH_SIZE`)."""
    ops: List[Op] = []
    pending: List[object] = []
    for kind, payload in events:
        if kind == ELEMENT:
            pending.append(payload)
            if len(pending) == BATCH_SIZE:
                ops.append((BATCH, pending))
                pending = []
            continue
        if pending:
            ops.append((BATCH, pending))
            pending = []
        if kind == REGISTER:
            ops.append((REGISTER, payload))
        elif kind == TERMINATE:
            ops.append((TERMINATE, payload))
        else:
            raise ValueError(f"unexpected script op {kind!r} after set-up")
    if pending:
        ops.append((BATCH, pending))
    return ops


def build_churn(seed: int) -> Workload:
    params = paper_params(2, m=CHURN_M, tau=CHURN_TAU, stream_len=CHURN_N)
    script = build_fixed_load_workload(params, seed=seed)
    kind, initial = script.events[0]
    if kind != REGISTER_BATCH:
        raise ValueError("fixed-load script must open with a register batch")
    return Workload(
        name="churn-2d",
        dims=2,
        make_system=_rts_factory(2),
        variants=[
            Variant(
                list(initial),
                churn_ops(script.events[1:]),
                dict(script.expected_maturities),
            )
        ],
        warmup_elements=2048,
        heap_elements=2048,
    )


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    name: (lambda seed, executor=executor: build_static(seed, executor))
    for executor, name in STATIC_NAMES.items()
}
BUILDERS["churn-2d"] = build_churn


def build(name: str, seed: int) -> Workload:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose one of {sorted(BUILDERS)}"
        ) from None
    return builder(seed)
