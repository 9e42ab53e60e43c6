"""Ingestion throughput benchmark: batched vs scalar (docs/PERFORMANCE.md).

Measures, per engine, elements/second for element-at-a-time ``process``
and for ``process_batch`` at one or more batch sizes, the batch-vs-scalar
speedup, p50/p99 call latencies, and the engines' machine-independent
work counters.  Results serialise to the ``rts-bench-v1`` JSON format and
can be checked against a committed baseline with a relative tolerance —
the CI perf-smoke gate (``rts-experiments bench --check BENCH.json``).

Workload
--------
Fig. 3-style static scenario: all ``m`` queries registered up front
(Section 8.1 rectangles — 10% volume, Gaussian centres), then a uniform
weighted element stream.  One deliberate departure from the repo's
scaled-down figures: the threshold stays at the *paper's* absolute
``tau = 20,000,000`` instead of being divided by ``--scale``.  The
batched fast path's win depends on per-node slack, which is governed by
the per-query maturity horizon ``tau / (volume_fraction * mean_weight)``
— 2,000,000 in-range elements in the paper's setup.  Scaling ``tau``
down with ``m`` (the figure generators' choice, which keeps runtimes
sane for full-stream replays) shrinks that horizon ~1000x and turns the
whole stream into the signal-dense end game, a regime the paper's
streams spend a vanishing fraction of their life in.  Keeping the paper
horizon makes the benchmark measure what fig. 3's long steady state
measures.  A small fraction of queries (``small_tau_fraction``) gets a
proportionally reduced threshold so maturities do fire mid-benchmark and
the batched path's event handling (the split at each crossing and its
scalar replay) is exercised and verified against the scalar run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import PreparedBatch
from ..core.system import make_engine
from ..streams.generators import QueryFactory, elements_from_arrays, generate_element_arrays
from ..streams.scale import PAPER_TAU, paper_params

BENCH_FORMAT = "rts-bench-v1"
#: Additive schema revision within the v1 format.  Minor 1 adds the
#: interpolated percentiles, optional per-engine ``sharded`` cells with
#: per-shard wall times, and ``shard_speedup_*`` gate keys.  Minor 2
#: sources the sharded rows' busy/batch accounting from the merged
#: cross-process metric registry (``rts-metrics-v1``) instead of ad-hoc
#: executor return values, and adds per-shard DT message/round counters,
#: route/pack/descend/merge phase percentiles, and the merged Prometheus
#: exposition.  Consumers key on ``format`` alone, so older baselines
#: stay checkable.
BENCH_FORMAT_MINOR = 2

#: Queries given a reduced threshold so some maturities fire in-stream.
SMALL_TAU_FRACTION = 0.005
#: Their maturity horizon as a fraction of the benchmark stream length.
#: Kept early: in the true fig. 3 prefix no query is *near* maturity for
#: most of the stream, so the reduced-threshold queries mature (and
#: release their slack) in the opening stretch rather than lingering.
SMALL_TAU_HORIZON = 0.02


@dataclass(slots=True)
class BenchWorkload:
    """Materialised benchmark inputs plus their provenance.

    The stream is generated columnar (``generate_element_arrays``), and
    both views of it are kept: ``elements`` (the object view, fed to the
    scalar path one at a time) and ``values``/``weights`` (the array
    view the generator produced).  The batched path ingests row-slices
    of the array view via :meth:`PreparedBatch.from_arrays` — the same
    pack-once-slice-many pattern the sharded router uses — so a batch
    benchmark measures the engines' columnar descent, not the cost of
    re-deriving arrays from Python objects the generator had to begin
    with.  Both views are exact images of each other (float64 values
    round-trip through ``StreamElement`` bit-for-bit), so events are
    byte-identical either way.
    """

    dims: int
    m: int
    tau: int
    n: int
    seed: int
    scale: int
    queries: List[object]
    elements: List[object]
    values: object
    weights: object

    def meta(self) -> Dict[str, object]:
        return {
            "dims": self.dims,
            "m": self.m,
            "tau": self.tau,
            "n": self.n,
            "seed": self.seed,
            "scale": self.scale,
            "small_tau_fraction": SMALL_TAU_FRACTION,
            "description": (
                "fig3-style static scenario at the paper's absolute "
                "threshold (maturity horizon preserved; see "
                "repro.experiments.bench module docs)"
            ),
        }


def build_bench_workload(
    dims: int = 1, scale: int = 1000, n: int = 40_000, seed: int = 0
) -> BenchWorkload:
    """Fig. 3-style inputs with the paper-horizon threshold (module docs)."""
    params = paper_params(dims, scale, tau=PAPER_TAU, stream_len=n)
    rng = np.random.default_rng(seed)
    factory = QueryFactory(rng, params)
    queries = factory.make_batch(params.m)
    # Give a sliver of queries a threshold they can reach mid-stream so
    # the batched path's event machinery runs (and is verified) too.
    # Expected in-range weight over the stream is n * volume * mean_w.
    small_tau = max(
        1,
        int(
            n
            * params.volume_fraction
            * params.mean_weight
            * SMALL_TAU_HORIZON
        ),
    )
    step = max(1, int(1 / SMALL_TAU_FRACTION))
    for i in range(0, len(queries), step):
        q = queries[i]
        queries[i] = type(q)(q.rect, small_tau, query_id=q.query_id)
    values, weights = generate_element_arrays(rng, n, params)
    elements = elements_from_arrays(values, weights)
    return BenchWorkload(
        dims=dims,
        m=params.m,
        tau=params.tau,
        n=n,
        seed=seed,
        scale=scale,
        queries=queries,
        elements=elements,
        values=values,
        weights=weights,
    )


def _percentile(sorted_samples: List[float], q: float) -> float:
    """Linearly interpolated quantile (numpy's default ``linear`` method).

    The old nearest-rank rounding made small-sample p99 jump between
    adjacent observations from run to run; interpolating between the two
    straddling order statistics removes that quantisation noise.
    """
    if not sorted_samples:
        return 0.0
    pos = q * (len(sorted_samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    frac = pos - lo
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac


def _fresh(engine: str, workload: BenchWorkload):
    eng = make_engine(engine, workload.dims)
    eng.register_batch(workload.queries)
    return eng


def _run_once(
    engine: str, workload: BenchWorkload, batch_size: Optional[int], timed_calls: bool
) -> Tuple[float, List[Tuple[object, int, int]], List[float], Dict[str, int]]:
    """One full replay; returns (seconds, events, call_latencies, counters)."""
    eng = _fresh(engine, workload)
    elements = workload.elements
    events: List[Tuple[object, int, int]] = []
    latencies: List[float] = []
    t0 = time.perf_counter()
    if batch_size is None:
        ts = 1
        if timed_calls:
            for el in elements:
                c0 = time.perf_counter()
                evs = eng.process(el, ts)
                latencies.append(time.perf_counter() - c0)
                ts += 1
                for e in evs:
                    events.append((e.query.query_id, e.timestamp, e.weight_seen))
        else:
            for el in elements:
                evs = eng.process(el, ts)
                ts += 1
                for e in evs:
                    events.append((e.query.query_id, e.timestamp, e.weight_seen))
    else:
        ts = 1
        values = workload.values
        weights = workload.weights
        for i in range(0, len(elements), batch_size):
            j = i + batch_size
            # The generator produced the stream columnar; hand the engine
            # a row-slice of that array view (exactly what the sharded
            # router does per shard) instead of re-packing the object
            # view per batch.
            chunk = PreparedBatch.from_arrays(elements[i:j], values[i:j], weights[i:j])
            c0 = time.perf_counter()
            evs = eng.process_batch(chunk, ts)
            if timed_calls:
                latencies.append(time.perf_counter() - c0)
            ts += len(chunk)
            for e in evs:
                events.append((e.query.query_id, e.timestamp, e.weight_seen))
    seconds = time.perf_counter() - t0
    return seconds, events, latencies, eng.counters.snapshot()


def bench_engine(
    engine: str,
    workload: BenchWorkload,
    batch_sizes: Sequence[int],
    repeats: int = 2,
) -> Dict[str, object]:
    """Benchmark one engine scalar + at every batch size.

    Throughput comes from the fastest of ``repeats`` untimed-call
    replays (registration excluded); latency percentiles from one extra
    instrumented replay.  The batched runs must reproduce the scalar
    run's maturity events exactly — a mismatch raises.
    """
    n = workload.n
    best_scalar = None
    for _ in range(repeats):
        seconds, scalar_events, _lat, scalar_counters = _run_once(
            engine, workload, None, timed_calls=False
        )
        if best_scalar is None or seconds < best_scalar:
            best_scalar = seconds
    _sec, _evs, scalar_lat, _cnt = _run_once(engine, workload, None, timed_calls=True)
    scalar_lat.sort()
    result: Dict[str, object] = {
        "scalar": {
            "seconds": round(best_scalar, 6),
            "elements_per_sec": round(n / best_scalar, 1),
            "p50_us": round(_percentile(scalar_lat, 0.50) * 1e6, 3),
            "p99_us": round(_percentile(scalar_lat, 0.99) * 1e6, 3),
            "events": len(scalar_events),
            "counters": scalar_counters,
        },
        "batched": {},
    }
    for batch_size in batch_sizes:
        best = None
        for _ in range(repeats):
            seconds, events, _lat, counters = _run_once(
                engine, workload, batch_size, timed_calls=False
            )
            if best is None or seconds < best:
                best = seconds
        if events != scalar_events:
            raise AssertionError(
                f"{engine}: batched (size {batch_size}) maturity events "
                f"differ from scalar replay "
                f"({len(events)} vs {len(scalar_events)})"
            )
        _sec, _evs, batch_lat, _cnt = _run_once(
            engine, workload, batch_size, timed_calls=True
        )
        batch_lat.sort()
        result["batched"][str(batch_size)] = {
            "seconds": round(best, 6),
            "elements_per_sec": round(n / best, 1),
            "speedup": round(best_scalar / best, 4),
            "p50_batch_ms": round(_percentile(batch_lat, 0.50) * 1e3, 4),
            "p99_batch_ms": round(_percentile(batch_lat, 0.99) * 1e3, 4),
            "events_equal": True,
            "counters": counters,
        }
    return result


def _canonical(events: List[Tuple[object, int, int]]) -> List[Tuple[object, int, int]]:
    """Order events canonically: simultaneous maturities by query id.

    The sharded merge fixes a registration-order tie-break for
    same-element maturities; a raw engine emits them in engine-internal
    order.  Both are permutations of the same event *set* per timestamp,
    so equivalence is checked under this canonical ordering (the same
    normalisation the snapshot/restore tests use; ``docs/SHARDING.md``).
    """
    return sorted(events, key=lambda e: (e[1], str(e[0])))


def _observed_shard_replay(
    engine: str,
    workload: BenchWorkload,
    shards: int,
    policy,
    executor: str,
    batch_size: int,
) -> Tuple[Dict[str, object], object]:
    """One extra *observed* replay at a shard count (untimed).

    The timed repeats run unobserved so telemetry never skews the
    throughput numbers; this replay runs with a fresh
    :class:`~repro.obs.Observability` and derives the row's busy/batch
    accounting — plus per-shard DT counters and phase percentiles — from
    the merged cross-process registry (``docs/OBSERVABILITY.md``).
    Returns ``(row_fields, registry)``.
    """
    from ..obs import Observability, PHASES
    from ..obs.aggregate import family_histogram, labelled_total
    from ..shard import ShardedRTSSystem

    obs = Observability()
    system = ShardedRTSSystem(
        dims=workload.dims,
        engine=engine,
        shards=shards,
        policy=policy,
        executor=executor,
        observability=obs,
    )
    try:
        system.register_batch(workload.queries)
        elements = workload.elements
        values = workload.values
        weights = workload.weights
        for i in range(0, len(elements), batch_size):
            j = i + batch_size
            system.process_batch(
                PreparedBatch.from_arrays(elements[i:j], values[i:j], weights[i:j])
            )
    finally:
        system.close()  # drains the shards' final registry deltas
    metrics = obs.metrics
    keys = [str(k) for k in range(shards)]
    phase_latency: Dict[str, Dict[str, float]] = {}
    for phase in PHASES:
        combined = family_histogram(metrics, "rts_phase_seconds", phase=phase)
        if combined is None or not combined[0].count:
            continue
        hist = combined[0]
        phase_latency[phase] = {
            "p50_ms": round(hist.quantile(0.50) * 1e3, 4),
            "p99_ms": round(hist.quantile(0.99) * 1e3, 4),
            "count": hist.count,
        }
    row = {
        "shard_busy_seconds": [
            round(
                labelled_total(
                    metrics, "rts_shard_worker_busy_seconds", shard=k
                ),
                6,
            )
            for k in keys
        ],
        "worker_batches": [
            labelled_total(metrics, "rts_shard_worker_batches_total", shard=k)
            for k in keys
        ],
        "dt_messages_per_shard": [
            labelled_total(metrics, "rts_dt_messages_total", shard=k)
            for k in keys
        ],
        "dt_rounds_per_shard": [
            labelled_total(metrics, "rts_dt_rounds_total", shard=k)
            for k in keys
        ],
        "phase_latency": phase_latency,
    }
    return row, metrics


def bench_sharded(
    engine: str,
    workload: BenchWorkload,
    shard_counts: Sequence[int],
    policy: str = "spatial-grid",
    executor: str = "serial",
    batch_size: int = 1024,
    repeats: int = 2,
) -> Dict[str, object]:
    """Benchmark the sharded system at each shard count.

    Every sharded run's maturity events are verified (canonically
    ordered) against the un-sharded batched replay.  ``spatial-grid``
    uses quantile boundaries fitted to the workload's query anchors —
    the balanced-grid construction ``docs/SHARDING.md`` recommends for
    clustered query sets like fig. 3's.

    The timed repeats are unobserved; each shard count then runs once
    more under a fresh observer (:func:`_observed_shard_replay`) whose
    merged registry supplies the row's ``shard_busy_seconds``, per-shard
    DT counters, and phase percentiles.  The largest count's exposition
    lands in the cell as ``merged_prometheus``.
    """
    from ..shard import ShardedRTSSystem, SpatialGridPolicy

    elements = workload.elements
    n = workload.n
    ref_seconds = None
    ref_events: Optional[List[Tuple[object, int, int]]] = None
    for _ in range(repeats):
        seconds, events, _lat, _cnt = _run_once(
            engine, workload, batch_size, timed_calls=False
        )
        if ref_seconds is None or seconds < ref_seconds:
            ref_seconds = seconds
        ref_events = events
    canon_ref = _canonical(ref_events)
    cell: Dict[str, object] = {
        "policy": policy,
        "executor": executor,
        "batch_size": batch_size,
        "unsharded_seconds": round(ref_seconds, 6),
        "counts": {},
    }
    s1_seconds: Optional[float] = None
    largest = max(shard_counts) if shard_counts else None
    for shards in shard_counts:
        best = None
        best_routed: List[int] = []
        events: List[Tuple[object, int, int]] = []
        if policy == "spatial-grid":
            pol = SpatialGridPolicy.from_queries(shards, workload.queries)
        else:
            pol = policy
        for _ in range(repeats):
            system = ShardedRTSSystem(
                dims=workload.dims,
                engine=engine,
                shards=shards,
                policy=pol,
                executor=executor,
            )
            try:
                system.register_batch(workload.queries)
                run_events: List[Tuple[object, int, int]] = []
                values = workload.values
                weights = workload.weights
                t0 = time.perf_counter()
                for i in range(0, len(elements), batch_size):
                    j = i + batch_size
                    # Same columnar ingestion as the un-sharded row: the
                    # router slices these arrays per shard and the
                    # workers descend them columnar.
                    chunk = PreparedBatch.from_arrays(
                        elements[i:j], values[i:j], weights[i:j]
                    )
                    for e in system.process_batch(chunk):
                        run_events.append(
                            (e.query.query_id, e.timestamp, e.weight_seen)
                        )
                seconds = time.perf_counter() - t0
                if best is None or seconds < best:
                    best = seconds
                    best_routed = list(system.elements_routed)
                events = run_events
            finally:
                system.close()
        if _canonical(events) != canon_ref:
            raise AssertionError(
                f"{engine}: sharded run (S={shards}, {policy}/{executor}) "
                f"maturity events differ from the un-sharded replay "
                f"({len(events)} vs {len(canon_ref)})"
            )
        if shards == 1:
            s1_seconds = best
        observed, registry = _observed_shard_replay(
            engine, workload, shards, pol, executor, batch_size
        )
        row: Dict[str, object] = {
            "seconds": round(best, 6),
            "elements_per_sec": round(n / best, 1),
            "speedup_vs_unsharded": round(ref_seconds / best, 4),
            "elements_routed": best_routed,
            "events_equal": True,
        }
        row.update(observed)
        if s1_seconds is not None:
            row["speedup_vs_s1"] = round(s1_seconds / best, 4)
        if shards == largest:
            cell["merged_prometheus"] = registry.to_prometheus()
        cell["counts"][str(shards)] = row
    return cell


def run_bench(
    engines: Sequence[str],
    dims: int = 1,
    scale: int = 1000,
    n: int = 40_000,
    seed: int = 0,
    batch_sizes: Sequence[int] = (1024,),
    repeats: int = 2,
    shard_counts: Sequence[int] = (),
    shard_policy: str = "spatial-grid",
    shard_executor: str = "serial",
) -> Dict[str, object]:
    """Full benchmark report in the ``rts-bench-v1`` schema.

    ``shard_counts`` (when non-empty) adds a ``sharded`` cell per engine
    benching :class:`~repro.shard.system.ShardedRTSSystem` at each shard
    count through the largest batch size, with ``shard_speedup_s{S}_*``
    gate keys relative to the 1-shard row (falling back to the
    un-sharded replay when 1 is not among the counts).
    """
    workload = build_bench_workload(dims=dims, scale=scale, n=n, seed=seed)
    report: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "format_minor": BENCH_FORMAT_MINOR,
        "generated_by": "rts-experiments bench",
        # Reproduction provenance: read by humans regenerating the
        # bench, not by any rts-bench-v1 consumer in the program.
        "workload": workload.meta(),  # rtscheck: disable=wire-dead-key
        "batch_sizes": list(batch_sizes),
        "repeats": repeats,
        "engines": {},
        "gate": {},
    }
    for engine in engines:
        cell = bench_engine(engine, workload, batch_sizes, repeats=repeats)
        report["engines"][engine] = cell
        gate: Dict[str, float] = {}
        scalar_bumps = cell["scalar"]["counters"].get("counter_bumps", 0)
        for bs, bcell in cell["batched"].items():
            gate[f"batch_speedup_b{bs}"] = bcell["speedup"]
            bumps = bcell["counters"].get("counter_bumps", 0)
            if bumps:
                # Deterministic "work saved" ratio: scalar counter bumps
                # per batched counter bump on the identical workload.
                gate[f"work_ratio_b{bs}"] = round(scalar_bumps / bumps, 4)
        if shard_counts:
            batch_size = max(batch_sizes)
            sharded = bench_sharded(
                engine,
                workload,
                shard_counts,
                policy=shard_policy,
                executor=shard_executor,
                batch_size=batch_size,
                repeats=repeats,
            )
            cell["sharded"] = sharded
            for count, row in sharded["counts"].items():
                speedup = row.get("speedup_vs_s1", row["speedup_vs_unsharded"])
                gate[f"shard_speedup_s{count}_b{batch_size}"] = speedup
        report["gate"][engine] = gate
    return report


@dataclass(slots=True)
class GateResult:
    """Outcome of a baseline regression check."""

    ok: bool
    lines: List[str] = field(default_factory=list)


def check_against_baseline(
    report: Dict[str, object], baseline: Dict[str, object], tolerance: float = 0.25
) -> GateResult:
    """Compare gate metrics to a baseline; regressions beyond tolerance fail.

    Only *declines* fail — a metric above its baseline always passes.
    Engines present in the baseline must be present in the report.
    """
    result = GateResult(ok=True)
    if baseline.get("format") != BENCH_FORMAT:
        result.ok = False
        result.lines.append(
            f"baseline format {baseline.get('format')!r} != {BENCH_FORMAT!r}"
        )
        return result
    for engine, metrics in baseline.get("gate", {}).items():
        current = report.get("gate", {}).get(engine)
        if current is None:
            result.ok = False
            result.lines.append(f"{engine}: missing from current run")
            continue
        for metric, base_value in metrics.items():
            value = current.get(metric)
            if value is None:
                result.ok = False
                result.lines.append(f"{engine}.{metric}: missing from current run")
                continue
            floor = base_value * (1.0 - tolerance)
            status = "ok" if value >= floor else "REGRESSION"
            if value < floor:
                result.ok = False
            result.lines.append(
                f"{engine}.{metric}: {value:.4f} vs baseline {base_value:.4f} "
                f"(floor {floor:.4f}) [{status}]"
            )
    return result


#: Engines whose batched path is the columnar descent (docs/PERFORMANCE.md,
#: "Columnar descent") — the absolute floor gate applies to these.
COLUMNAR_ENGINES = ("dt", "dt-static")


def check_columnar_floor(
    report: Dict[str, object], floor: float
) -> GateResult:
    """Absolute columnar-descent gate, independent of any baseline.

    The relative baseline check tolerates slow drift (each new baseline
    re-anchors the floor); this one pins a hard minimum: every columnar
    engine in the report must beat its own scalar replay by at least
    ``floor``x at the largest benched batch size.  It answers "did the
    columnar fast path stop engaging" even on a fresh machine with no
    committed baseline.
    """
    result = GateResult(ok=True)
    for engine in report.get("engines", {}):
        if engine not in COLUMNAR_ENGINES:
            continue
        gate = report.get("gate", {}).get(engine, {})
        keys = [k for k in gate if k.startswith("batch_speedup_b")]
        if not keys:
            result.ok = False
            result.lines.append(f"{engine}: no batch_speedup gate keys")
            continue
        key = max(keys, key=lambda k: int(k.rsplit("b", 1)[1]))
        value = gate[key]
        status = "ok" if value >= floor else "TOO SLOW"
        if value < floor:
            result.ok = False
        result.lines.append(
            f"{engine}.{key}: {value:.2f}x vs floor {floor:.2f}x [{status}]"
        )
    return result


def format_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of an ``rts-bench-v1`` report."""
    wl = report["workload"]
    lines = [
        f"# bench: dims={wl['dims']} m={wl['m']} tau={wl['tau']} "
        f"n={wl['n']} seed={wl['seed']} (paper-horizon threshold)",
    ]
    for engine, cell in report["engines"].items():
        s = cell["scalar"]
        lines.append(
            f"{engine:<12} scalar  {s['elements_per_sec']:>12,.0f} el/s  "
            f"p50={s['p50_us']:.1f}us p99={s['p99_us']:.1f}us  "
            f"events={s['events']}"
        )
        for bs, b in cell["batched"].items():
            lines.append(
                f"{engine:<12} b{bs:<6} {b['elements_per_sec']:>12,.0f} el/s  "
                f"({b['speedup']:.2f}x)  p50={b['p50_batch_ms']:.2f}ms "
                f"p99={b['p99_batch_ms']:.2f}ms"
            )
        sharded = cell.get("sharded")
        if sharded:
            for count, row in sharded["counts"].items():
                busy = "/".join(f"{b:.2f}" for b in row["shard_busy_seconds"])
                lines.append(
                    f"{engine:<12} S={count:<4} {row['elements_per_sec']:>12,.0f} "
                    f"el/s  ({row['speedup_vs_unsharded']:.2f}x vs unsharded, "
                    f"{row.get('speedup_vs_s1', float('nan')):.2f}x vs S=1)  "
                    f"[{sharded['policy']}/{sharded['executor']}] busy={busy}s"
                )
                msgs = row.get("dt_messages_per_shard")
                if msgs and any(msgs):
                    rounds = row.get("dt_rounds_per_shard", [])
                    lines.append(
                        f"{engine:<12} S={count:<4} dt msgs/shard="
                        f"{'/'.join(str(v) for v in msgs)}  rounds/shard="
                        f"{'/'.join(str(v) for v in rounds)}"
                    )
                phases = row.get("phase_latency") or {}
                if phases:
                    rendered = "  ".join(
                        f"{name} p50={p['p50_ms']:.3f}ms p99={p['p99_ms']:.3f}ms"
                        for name, p in phases.items()
                    )
                    lines.append(f"{engine:<12} S={count:<4} phases: {rendered}")
    return "\n".join(lines)


def load_baseline(path) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)
