"""RTS benchmark through the public path: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-1d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced and a traced phase and prints the per-layer ledger metrics,
writing the full ledger (tables plus every span) to
``perfbench/out/<workload>-seed<seed>-trace.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any maturity event,
progress answer or terminate result disagrees with the oracle, and 2
when the program cannot be imported or a public call raises.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run at least; workloads with few passes add set-up-only
#: repetitions so the setup_s median has enough samples.
MIN_SETUPS = 9


def load_metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    )


def p99(samples: List[float]) -> float:
    """Interpolated 99th percentile (the inclusive method)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def pooled_median(passes, attr: str) -> Tuple[float, str]:
    """Median of every call of the run, in ms, with the call count."""
    samples = [x for p in passes for x in getattr(p, attr)]
    return statistics.median(samples) * 1e3, f"n={len(samples)}"


def pass_p99(passes, attr: str) -> Tuple[float, str]:
    """Median over passes of each pass's p99, in ms, with the counts.

    The VM has slow phases lasting seconds.  Calls in a phase that
    covers one or two passes fill the top percent of a pooled sample:
    on sharded-1d a pooled p99 spread 37-56% over eight seeds, against
    11-24% for the median of per-pass p99s.  Medians need no such care,
    and pooled ones spread least.  A pass with fewer than 100 calls has
    no call beyond its p99, which is then an interpolation between its
    two largest calls.
    """
    per_pass = [getattr(p, attr) for p in passes if len(getattr(p, attr)) > 1]
    value = statistics.median(p99(s) for s in per_pass) * 1e3
    sizes = sorted({len(s) for s in per_pass})
    per = "/".join(str(n) for n in sizes)
    return value, f"{len(per_pass)} passes x n={per}"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(wl, seconds: float, units: Dict[str, str]):
    from client import peak_heap_mb, run_pass, run_phase

    warmup = run_pass(wl, limit_elements=wl.warmup_elements)
    phase = run_phase(wl, seconds)
    # Set-up-only passes (no elements) top up the set-up samples.
    extra = [
        run_pass(wl, limit_elements=0)
        for _ in range(MIN_SETUPS - len(phase.passes))
    ]
    setups = [p.setup_s for p in phase.passes + extra]
    heap, heap_pass = peak_heap_mb(wl)
    checked = [warmup, heap_pass] + phase.passes + extra
    passes = phase.passes
    values = {
        "throughput_eps": (phase.throughput(), f"n={sum(len(p.ops) for p in passes)}"),
        "batch_p50_ms": pooled_median(passes, "batch_s"),
        "batch_p99_ms": pass_p99(passes, "batch_s"),
        "register_p50_ms": pooled_median(passes, "register_s"),
        "register_p99_ms": pass_p99(passes, "register_s"),
        "terminate_p50_ms": pooled_median(passes, "terminate_s"),
        "terminate_p99_ms": pass_p99(passes, "terminate_s"),
        "setup_s": (statistics.median(setups), f"n={len(setups)}"),
        "peak_heap_mb": (heap, "n=1"),
    }
    print(f"# {wl.name}: {len(phase.passes)} passes, "
          f"{sum(p.elements for p in phase.passes)} elements")
    for name, unit in units.items():
        value, count = values[name]
        print(f"{name:<20} {value:>14.4f} {unit:<7} ({count})")
    metrics = {name: (values[name][0], unit) for name, unit in units.items()}
    return (
        metrics,
        sum(p.attempted for p in checked),
        sum(p.failed for p in checked),
    )


def traced(wl, seconds: float, seed: int, units: Dict[str, str]):
    from repro import Observability

    from client import run_pass, run_phase
    from ledger import Ledger

    warmup = run_pass(wl, limit_elements=wl.warmup_elements)
    plain = run_phase(wl, seconds / 2, cycle=False)
    ledger = Ledger()
    per_pass: List[Dict[str, float]] = []
    tables = []
    shards = 2 if wl.sharded else 0

    def on_pass(p):
        per_pass.append(
            ledger.pass_metrics(
                p.wall, p.elements, p.work, p.obs_totals, shards, wl.in_process
            )
        )
        tables.append({"wall_s": p.wall, "layers": ledger.table(p.wall)})

    ledger.install(wl.sharded, wl.in_process)
    try:
        phase = run_phase(
            wl,
            seconds / 2,
            cycle=False,
            ledger=ledger,
            make_obs=Observability,
            on_pass=on_pass,
        )
    finally:
        ledger.uninstall()
    # Counts repeat exactly pass to pass (fresh system, same inputs), so
    # the median is that count; times get the median of the passes.
    layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layer["trace.overhead_frac"] = 1.0 - phase.throughput() / plain.throughput()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{seed}-trace.json"
    ledger.dump(path, {"workload": wl.name, "seed": seed, "metrics": layer,
                       "passes": tables})
    print(f"# {wl.name}: traced {len(phase.passes)} passes; ledger of pass 1 "
          f"(wall {tables[0]['wall_s']:.4f} s):")
    for row in tables[0]["layers"]:
        print(f"  {row['layer']:<22} calls={row['calls']:<7} "
              f"self={row['self_s']:.4f}s ({row['self_share']:.1%})")
    for name, unit in units.items():
        print(f"{name:<28} {layer[name]:>14.6g} {unit}")
    print(f"# ledger written to {path.relative_to(ROOT)}")
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    checked = [warmup] + plain.passes + phase.passes
    return (
        metrics,
        sum(p.attempted for p in checked),
        sum(p.failed for p in checked),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        e2e_units, layer_units = load_metric_units()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the checkout it sits in.
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401  (the program under test, from source)
        import workloads
        from client import BenchFailure
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        wl = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The inputs live as long as the run; keep full collections from
    # rescanning them (see client.py's noise hygiene).
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            result = traced(wl, args.seconds, args.seed, layer_units)
        else:
            result = end_to_end(wl, args.seconds, e2e_units)
        metrics, attempted, failed = result
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"error_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
