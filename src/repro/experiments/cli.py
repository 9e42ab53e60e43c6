"""Command-line entry point for regenerating the paper's figures.

Usage (installed as ``rts-experiments``, or ``python -m
repro.experiments.cli``)::

    rts-experiments list
    rts-experiments fig3 --scale 1000 --seed 0
    rts-experiments all --scale 2000 --out results/

    # workload persistence & verification
    rts-experiments workload --mode fixed-load --dims 2 --scale 2000 \
        --save wl.json
    rts-experiments verify wl.json --engine dt

    # observability: replay a workload with telemetry on and dump a
    # metrics report (Prometheus text and/or JSON + lifecycle spans)
    rts-experiments obs --mode stochastic --scale 20000 --engine dt
    rts-experiments obs wl.json --format json --out results/obs/

    # correctness: replay a workload with runtime invariant checking on
    # (see docs/CORRECTNESS.md); exits non-zero on any violation
    rts-experiments sanitize --mode stochastic --scale 20000 --engine all
    rts-experiments sanitize wl.json --engine dt --format json

    # robustness: replay a workload under seeded crash/recover chaos
    # (see docs/ROBUSTNESS.md); exits non-zero on any divergence from
    # the fault-free oracle
    rts-experiments chaos --mode stochastic --scale 20000 --engine all
    rts-experiments chaos wl.json --engine dt --crashes 5 --seed 7

    # performance: batched-vs-scalar ingestion throughput benchmark
    # (see docs/PERFORMANCE.md); --check gates against a committed
    # baseline and exits non-zero on a >tolerance regression
    rts-experiments bench --engine dt,dt-static --scale 500 --out BENCH.json
    rts-experiments bench --check BENCH_PR4.json --tolerance 0.25

    # sharded: multi-core query partitioning (see docs/SHARDING.md);
    # --shards benches ShardedRTSSystem at each count through the
    # largest batch size; --check-shard-speedup gates the top count's
    # speedup over the 1-shard row and exits non-zero below the floor
    rts-experiments bench --engine dt,baseline --shards 1,2,4
    rts-experiments bench --shards 1,2 --shard-executor parallel \
        --check-shard-speedup 1.3

    # perf trajectory: load every committed BENCH_PR*.json baseline and
    # the figure summary, emit a markdown + SVG report of throughput,
    # shard scaling and latency percentiles per PR (docs/PERFORMANCE.md);
    # exits non-zero when a required section comes up empty
    rts-experiments report --out results/trajectory/
    rts-experiments report --bench-glob 'BENCH_PR*.json' --out report/

``--scale`` divides the paper's workload sizes (1 = the paper's exact
parameters — hours of CPU in pure Python; 1000 = the default laptop
scale).  Output is the text rendering of each figure (chart + table +
paper expectation + fitted growth exponents for sweeps); ``--out``
additionally writes one ``<figure>.txt`` per figure into a directory.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

from .figures import FIGURES, FigureResult
from .report import format_figure, summarize_speedups


def _as_list(result) -> List[FigureResult]:
    return result if isinstance(result, list) else [result]


def run_figure(name: str, scale: int, seed: int) -> List[FigureResult]:
    """Regenerate one figure's data by registry name."""
    fn = FIGURES[name]
    if name == "ablation-dt-messages":
        return _as_list(fn(seed=seed))  # protocol-level: no workload scale
    return _as_list(fn(scale=scale, seed=seed))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rts-experiments",
        description=(
            "Regenerate the figures of 'Range Thresholding on Streams' "
            "(SIGMOD 2016) at a configurable scale."
        ),
    )
    parser.add_argument(
        "target",
        help="figure id (fig3..fig8, ablation-dt-messages, "
        "ablation-design), 'all', 'list', 'workload', 'verify', 'obs', "
        "'sanitize', 'chaos', 'bench', or 'report'",
    )
    parser.add_argument(
        "script_path",
        nargs="?",
        default=None,
        help="saved workload file (verify, obs, sanitize and chaos "
        "targets; obs, sanitize and chaos generate a workload from "
        "--mode/--dims/--scale when omitted)",
    )
    parser.add_argument(
        "--mode",
        choices=["static", "stochastic", "fixed-load"],
        default="static",
        help="scenario for the 'workload' target",
    )
    parser.add_argument("--dims", type=int, default=1, help="dimensionality")
    parser.add_argument(
        "--p-ins", type=float, default=0.3, help="stochastic insertion rate"
    )
    parser.add_argument(
        "--save", type=pathlib.Path, default=None, help="workload output file"
    )
    parser.add_argument(
        "--engine",
        default="dt",
        help="engine name for the 'verify', 'obs', 'sanitize' and "
        "'chaos' targets (default: dt; 'sanitize' and 'chaos' also "
        "accept 'all')",
    )
    parser.add_argument(
        "--level",
        choices=["basic", "full", "shard"],
        default="full",
        help="'sanitize'/'chaos' targets: invariant check level "
        "(default: full); 'chaos --level shard' instead runs the "
        "shard-supervision layer (seeded worker crashes vs the "
        "serial-executor oracle, see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=3,
        help="'chaos' target: seeded crash/recover points per run "
        "(default 3)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="'chaos' target: operations between checkpoints (default 50)",
    )
    parser.add_argument(
        "--format",
        choices=["prom", "json", "all"],
        default="prom",
        dest="obs_format",
        help="'obs' target output: Prometheus text, JSON report, or both "
        "('bench': 'json' prints the report as JSON instead of text)",
    )
    parser.add_argument(
        "--batch-size",
        default="1024",
        help="'bench' target: comma-separated process_batch sizes "
        "(default 1024)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=40_000,
        dest="bench_n",
        help="'bench' target: stream length (default 40000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="'bench' target: timing repeats, fastest wins (default 2)",
    )
    parser.add_argument(
        "--shards",
        default="",
        help="'bench' target: comma-separated shard counts to bench the "
        "sharded system at (e.g. 1,2,4; empty = no sharded rows); "
        "'chaos --level shard': shard counts to crash-test (default 2)",
    )
    parser.add_argument(
        "--shard-policy",
        default="spatial-grid",
        help="'bench' target: partition policy for the sharded rows "
        "(spatial-grid fits quantile boundaries to the workload; "
        "see docs/SHARDING.md)",
    )
    parser.add_argument(
        "--shard-executor",
        choices=["serial", "parallel"],
        default="serial",
        help="'bench' target: run shards in-process or in worker "
        "processes (default serial)",
    )
    parser.add_argument(
        "--check-shard-speedup",
        type=float,
        default=None,
        help="'bench' target: exit non-zero unless the largest shard "
        "count beats the 1-shard row by at least this factor "
        "(requires --shards including 1)",
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        help="'bench' target: baseline rts-bench-v1 JSON to gate against",
    )
    parser.add_argument(
        "--check-columnar-floor",
        type=float,
        default=None,
        help="'bench' target: exit non-zero unless each columnar engine "
        "(dt, dt-static) beats its scalar replay by at least this "
        "factor at the largest batch size (absolute floor, no "
        "baseline needed)",
    )
    parser.add_argument(
        "--bench-glob",
        default="BENCH_PR*.json",
        help="'report' target: glob for the committed bench baselines "
        "(default BENCH_PR*.json, relative to the current directory)",
    )
    parser.add_argument(
        "--summary",
        type=pathlib.Path,
        default=pathlib.Path("results/summary.json"),
        help="'report' target: figure-harness summary JSON "
        "(default results/summary.json; skipped when absent)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="'bench' target: allowed relative decline per gate metric "
        "(default 0.25)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=1000,
        help="divide the paper's workload sizes by this factor "
        "(default 1000; 1 reproduces the paper's exact parameters)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write one <figure>.txt per figure",
    )
    parser.add_argument(
        "--no-chart",
        action="store_true",
        help="omit the ASCII charts (tables only)",
    )
    parser.add_argument(
        "--export",
        type=pathlib.Path,
        default=None,
        help="directory for machine-readable CSV/JSON exports of each figure",
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        for name in FIGURES:
            print(name)
        return 0

    if args.target == "workload":
        return _generate_workload(args, parser)

    if args.target == "verify":
        return _verify_workload(args, parser)

    if args.target == "obs":
        return _run_obs(args, parser)

    if args.target == "sanitize":
        return _run_sanitize(args, parser)

    if args.target == "chaos":
        return _run_chaos(args, parser)

    if args.target == "bench":
        return _run_bench(args, parser)

    if args.target == "report":
        return _run_report(args, parser)

    names = list(FIGURES) if args.target == "all" else [args.target]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(
            f"unknown figure(s) {unknown}; run 'rts-experiments list'"
        )

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failed: List[str] = []
    for name in names:
        started = time.perf_counter()
        try:
            figures = run_figure(name, scale=args.scale, seed=args.seed)
        except AssertionError as exc:
            # Workload replay disagreed with the oracle (or an invariant
            # broke).  Keep generating the other figures, but make sure
            # the process exits non-zero so CI cannot miss it.
            print(f"ERROR: {name}: {exc}", file=sys.stderr)
            failed.append(name)
            continue
        elapsed = time.perf_counter() - started
        for fig in figures:
            text = format_figure(fig, chart=not args.no_chart)
            if "DT" in fig.series:
                text += "\nspeedups:\n" + summarize_speedups(fig)
            if fig.kind == "sweep" and len(next(iter(fig.series.values()))) >= 2:
                from .analysis import format_growth_report

                try:
                    text += "\n" + format_growth_report(fig)
                except ValueError as exc:
                    # Degenerate series (all zeros): the fit is undefined
                    # but the figure itself is fine.  Note it and move on.
                    print(f"note: {name}: growth fit skipped: {exc}", file=sys.stderr)
            text += f"\n(generated in {elapsed:.1f}s at scale {args.scale})\n"
            print(text)
            print()
            if args.out is not None:
                (args.out / f"{fig.figure_id}.txt").write_text(text + "\n")
            if args.export is not None:
                from .export import export_figures

                export_figures([fig], args.export)
    if failed:
        print(f"FAILED figures: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_bench(args, parser) -> int:
    """Batched-vs-scalar ingestion benchmark; optional baseline gate."""
    import json

    from .bench import check_against_baseline, format_report, load_baseline, run_bench

    engines = [e for e in args.engine.split(",") if e]
    try:
        batch_sizes = [int(b) for b in args.batch_size.split(",") if b]
    except ValueError:
        parser.error(f"--batch-size must be comma-separated ints, got {args.batch_size!r}")
    if not batch_sizes or any(b < 1 for b in batch_sizes):
        parser.error("--batch-size values must be positive")
    try:
        shard_counts = [int(s) for s in args.shards.split(",") if s]
    except ValueError:
        parser.error(f"--shards must be comma-separated ints, got {args.shards!r}")
    if any(s < 1 for s in shard_counts):
        parser.error("--shards values must be positive")
    if args.check_shard_speedup is not None and 1 not in shard_counts:
        parser.error("--check-shard-speedup needs --shards to include 1")

    started = time.perf_counter()
    try:
        report = run_bench(
            engines,
            dims=args.dims,
            scale=args.scale,
            n=args.bench_n,
            seed=args.seed,
            batch_sizes=batch_sizes,
            repeats=args.repeats,
            shard_counts=shard_counts,
            shard_policy=args.shard_policy,
            shard_executor=args.shard_executor,
        )
    except AssertionError as exc:
        # The batched replay disagreed with the scalar replay: that is a
        # correctness failure, not a performance number.
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    if args.obs_format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
        print(f"(benchmarked in {elapsed:.1f}s)")
        for engine in engines:
            exposition = (
                report["engines"][engine]
                .get("sharded", {})
                .get("merged_prometheus")
            )
            if exposition:
                top = max(shard_counts)
                print(
                    f"# merged registry ({engine}, S={top}, "
                    f"{args.shard_executor} executor):"
                )
                print(exposition, end="")
    if args.out is not None:
        out = args.out
        if out.suffix != ".json":
            out.mkdir(parents=True, exist_ok=True)
            out = out / "bench.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"# wrote {out}")

    if args.check is not None:
        baseline = load_baseline(args.check)
        gate = check_against_baseline(report, baseline, tolerance=args.tolerance)
        print(f"# gate vs {args.check} (tolerance {args.tolerance:.0%})")
        for line in gate.lines:
            print(f"  {line}")
        if not gate.ok:
            print("PERF REGRESSION", file=sys.stderr)
            return 1
        print("# gate: ok")

    if args.check_columnar_floor is not None:
        from .bench import check_columnar_floor

        gate = check_columnar_floor(report, args.check_columnar_floor)
        print(f"# columnar floor gate ({args.check_columnar_floor:.1f}x)")
        for line in gate.lines:
            print(f"  {line}")
        if not gate.ok:
            print("COLUMNAR FLOOR MISSED", file=sys.stderr)
            return 1
        print("# columnar gate: ok")

    if args.check_shard_speedup is not None:
        floor = args.check_shard_speedup
        top = str(max(shard_counts))
        failed = False
        for engine in engines:
            counts = report["engines"][engine].get("sharded", {}).get("counts", {})
            row = counts.get(top)
            speedup = row.get("speedup_vs_s1") if row else None
            if speedup is None:
                print(f"ERROR: {engine}: no S={top} sharded row", file=sys.stderr)
                failed = True
                continue
            status = "ok" if speedup >= floor else "TOO SLOW"
            print(
                f"# shard-speedup gate {engine}: S={top} is {speedup:.2f}x "
                f"vs S=1 (floor {floor:.2f}x) [{status}]"
            )
            failed = failed or speedup < floor
        if failed:
            print("SHARD SPEEDUP BELOW FLOOR", file=sys.stderr)
            return 1
    return 0


def _run_report(args, parser) -> int:
    """Perf-trajectory report over the committed bench baselines."""
    from .trajectory import generate_report

    if args.out is None:
        parser.error("the 'report' target requires --out DIR")
    bench_paths = sorted(pathlib.Path(".").glob(args.bench_glob))
    try:
        result = generate_report(bench_paths, args.summary, args.out)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    for key, info in result["sections"].items():
        if info.get("skipped"):
            print(f"# {key}: skipped (no data)")
        else:
            print(
                f"# {key}: {info['series']} series, {info['points']} points"
            )
    print(f"# wrote report.md + SVGs to {result['out']}")
    return 0


def _generate_workload(args, parser) -> int:
    if args.save is None:
        parser.error("the 'workload' target requires --save PATH")
    args.script_path = None  # this target always generates afresh
    script = _build_or_load_workload(args, parser)
    params = script.params
    script.save(args.save)
    print(
        f"wrote {args.save}: mode={script.mode} dims={params.dims} "
        f"m={params.m} tau={params.tau} ops={script.operation_count()} "
        f"expected maturities={len(script.expected_maturities)}"
    )
    return 0


def _build_or_load_workload(args, parser):
    from ..streams.scale import paper_params
    from ..streams.workload import (
        WorkloadScript,
        build_fixed_load_workload,
        build_static_workload,
        build_stochastic_workload,
    )

    if args.script_path is not None:
        return WorkloadScript.load(args.script_path)
    params = paper_params(args.dims, args.scale)
    if args.mode == "static":
        return build_static_workload(params, seed=args.seed)
    if args.mode == "stochastic":
        return build_stochastic_workload(params, seed=args.seed, p_ins=args.p_ins)
    return build_fixed_load_workload(params, seed=args.seed)


def _run_obs(args, parser) -> int:
    """Replay a workload with observability enabled; dump the report."""
    import json

    from ..obs import Observability
    from .harness import run_cell

    script = _build_or_load_workload(args, parser)
    obs = Observability()
    started = time.perf_counter()
    try:
        result = run_cell(script, args.engine, observability=obs)
    except AssertionError as exc:
        print(f"ERROR: {args.engine}: replay failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    spans = obs.spans
    print(
        f"# {args.engine} on {script.mode!r} workload "
        f"(dims={script.params.dims}, ops={result.op_count}): "
        f"{result.n_matured} maturities in {elapsed:.2f}s"
    )
    print(
        f"# spans: {spans.active_count} active, "
        f"{spans.finished_count} finished retained "
        f"(matured={len(spans.finished('matured'))}, "
        f"terminated={len(spans.finished('terminated'))}); "
        f"trace: {len(obs.trace)} events retained, {obs.trace.dropped} dropped"
    )
    if args.obs_format in ("prom", "all"):
        print(obs.metrics.to_prometheus(), end="")
    if args.obs_format in ("json", "all"):
        report = obs.report()
        del report["prometheus"]  # the text exposition is not JSON
        print(json.dumps(report, indent=2, default=str))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report = obs.report()
        (args.out / "metrics.prom").write_text(report["prometheus"])
        for name in ("metrics", "spans", "trace"):
            (args.out / f"{name}.json").write_text(
                json.dumps(report[name], indent=2, default=str) + "\n"
            )
        print(f"# wrote metrics.prom, metrics.json, spans.json, trace.json to {args.out}")
    return 0


def _verify_workload(args, parser) -> int:
    from ..core.system import RTSSystem
    from ..streams.workload import WorkloadScript

    if args.script_path is None:
        parser.error("the 'verify' target requires a workload file path")
    script = WorkloadScript.load(args.script_path)
    system = RTSSystem(dims=script.params.dims, engine=args.engine)
    started = time.perf_counter()
    try:
        script.verify(system)
    except AssertionError as exc:
        print(f"ERROR: {args.engine}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(
        f"{args.engine}: verified exact on {script.mode!r} workload "
        f"({script.operation_count()} ops, "
        f"{len(script.expected_maturities)} maturities) in {elapsed:.2f}s"
    )
    return 0


def _run_sanitize(args, parser) -> int:
    """Replay a workload with invariant checks on; report violations.

    Exits 0 only when every requested engine replays the whole workload
    without a single invariant violation *and* agrees with the oracle.
    """
    import json

    from ..core.system import RTSSystem, available_engines
    from ..sanitize import SanitizeError

    script = _build_or_load_workload(args, parser)
    dims = script.params.dims
    engines = available_engines() if args.engine == "all" else [args.engine]
    report: dict = {}
    ok = True
    for engine in engines:
        started = time.perf_counter()
        try:
            system = RTSSystem(dims=dims, engine=engine, sanitize=args.level)
        except ValueError as exc:
            # Engine/dimensionality mismatch (e.g. seg-intv-tree is 2-D
            # only): skipped, not failed.
            report[engine] = {"status": "skipped", "reason": str(exc)}
            continue
        try:
            observed = script.replay(system)
        except SanitizeError as exc:
            elapsed = time.perf_counter() - started
            report[engine] = {
                "status": "violations",
                "elapsed_s": round(elapsed, 2),
                "violations": [v.to_json() for v in exc.violations],
            }
            ok = False
            continue
        elapsed = time.perf_counter() - started
        if observed != script.expected_maturities:
            report[engine] = {
                "status": "wrong-results",
                "elapsed_s": round(elapsed, 2),
                "observed": len(observed),
                "expected": len(script.expected_maturities),
            }
            ok = False
        else:
            report[engine] = {
                "status": "clean",
                "elapsed_s": round(elapsed, 2),
                "ops": script.operation_count(),
                "maturities": len(observed),
            }
    if args.obs_format == "json":
        print(
            json.dumps(
                {"level": args.level, "mode": script.mode, "engines": report},
                indent=2,
            )
        )
    else:
        print(
            f"# sanitize level={args.level} on {script.mode!r} workload "
            f"(dims={dims}, ops={script.operation_count()})"
        )
        for engine, info in report.items():
            status = info["status"]
            if status == "clean":
                print(
                    f"{engine}: clean ({info['maturities']} maturities, "
                    f"{info['elapsed_s']}s)"
                )
            elif status == "skipped":
                print(f"{engine}: skipped ({info['reason']})")
            elif status == "wrong-results":
                print(
                    f"{engine}: WRONG RESULTS ({info['observed']} observed "
                    f"vs {info['expected']} expected maturities)"
                )
            else:
                print(f"{engine}: {len(info['violations'])} violation(s)")
                for v in info["violations"]:
                    ctx = (
                        " {" + ", ".join(f"{k}={val!r}" for k, val in v["context"].items()) + "}"
                        if v["context"]
                        else ""
                    )
                    print(
                        f"  - [{v['invariant']}] ({v['section']}) "
                        f"{v['message']} on {v['subject']}{ctx}"
                    )
    return 0 if ok else 1


def _run_chaos(args, parser) -> int:
    """Replay a workload under seeded crash/recover chaos; verify exactly.

    Every requested engine is crash/recovered through the checkpoint +
    WAL path and must match the workload oracle element for element
    (see docs/ROBUSTNESS.md).  Exits 0 only when every run is clean.
    """
    import json

    from .chaos import chaos_engines, run_system_chaos

    if args.level == "shard":
        return _run_shard_chaos(args, parser)

    script = _build_or_load_workload(args, parser)
    report: dict = {"engines": {}}
    ok = True
    for engine in chaos_engines(args.engine):
        started = time.perf_counter()
        result = run_system_chaos(
            script,
            engine,
            crashes=args.crashes,
            checkpoint_every=args.checkpoint_every,
            seed=args.seed,
            sanitize=args.level,
        )
        elapsed = time.perf_counter() - started
        ok = ok and result.ok
        report["engines"][engine] = {
            "status": result.status,
            "elapsed_s": round(elapsed, 2),
            "crashes": result.crashes,
            "checkpoints": result.checkpoints,
            "replayed_ops": result.replayed_ops,
            "maturities": result.maturities,
            "detail": result.detail,
        }

    if args.obs_format == "json":
        print(
            json.dumps(
                {
                    "level": args.level,
                    "mode": script.mode,
                    "seed": args.seed,
                    **report,
                },
                indent=2,
            )
        )
    else:
        print(
            f"# chaos on {script.mode!r} workload (dims={script.params.dims}, "
            f"ops={script.operation_count()}, seed={args.seed}): "
            f"crashes={args.crashes}"
        )
        for engine, info in report["engines"].items():
            if info["status"] == "ok":
                print(
                    f"{engine}: exact after {info['crashes']} crash/recover "
                    f"({info['checkpoints']} checkpoints, "
                    f"{info['replayed_ops']} WAL ops replayed, "
                    f"{info['maturities']} maturities, {info['elapsed_s']}s)"
                )
            elif info["status"] == "skipped":
                print(f"{engine}: skipped ({info['detail']})")
            else:
                print(f"{engine}: {info['status'].upper()}: {info['detail']}")
    return 0 if ok else 1


def _run_shard_chaos(args, parser) -> int:
    """Supervised shard crash/replay chaos; verify against the oracle.

    Every requested engine × shard count drives the workload through a
    SupervisedExecutor whose workers crash at seeded batch ordinals; the
    run must reproduce the serial-executor oracle's maturity-event
    sequence exactly, restart once per injected crash, and replay with
    zero orphan events (docs/ROBUSTNESS.md, "Shard supervision").
    Exits 0 only when every run is clean.
    """
    import json

    from .chaos import chaos_engines, run_shard_chaos

    try:
        shard_counts = [int(s) for s in args.shards.split(",") if s]
    except ValueError:
        parser.error(f"--shards must be comma-separated ints, got {args.shards!r}")
    if any(s < 1 for s in shard_counts):
        parser.error("--shards values must be positive")
    if not shard_counts:
        shard_counts = [2]

    script = _build_or_load_workload(args, parser)
    report: dict = {"runs": []}
    ok = True
    for engine in chaos_engines(args.engine):
        for shards in shard_counts:
            started = time.perf_counter()
            result = run_shard_chaos(
                script,
                engine,
                shards=shards,
                crashes=args.crashes,
                seed=args.seed,
            )
            elapsed = time.perf_counter() - started
            ok = ok and result.ok
            report["runs"].append(
                {
                    "engine": engine,
                    "shards": shards,
                    "status": result.status,
                    "elapsed_s": round(elapsed, 2),
                    "crashes": result.crashes,
                    "restarts": result.restarts,
                    "replayed_batches": result.replayed,
                    "batches": result.batches,
                    "maturities": result.maturities,
                    "detail": result.detail,
                }
            )

    if args.obs_format == "json":
        print(
            json.dumps(
                {
                    "level": "shard",
                    "mode": script.mode,
                    "seed": args.seed,
                    "crashes": args.crashes,
                    **report,
                },
                indent=2,
            )
        )
    else:
        print(
            f"# shard chaos on {script.mode!r} workload "
            f"(dims={script.params.dims}, ops={script.operation_count()}, "
            f"seed={args.seed}, crashes={args.crashes})"
        )
        for info in report["runs"]:
            tag = f"{info['engine']} x{info['shards']}"
            if info["status"] == "ok":
                print(
                    f"{tag}: exact after {info['restarts']} worker restarts "
                    f"({info['replayed_batches']} batches replayed, "
                    f"{info['batches']} routed, "
                    f"{info['maturities']} maturities, {info['elapsed_s']}s)"
                )
            elif info["status"] == "skipped":
                print(f"{tag}: skipped ({info['detail']})")
            else:
                print(f"{tag}: {info['status'].upper()}: {info['detail']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
