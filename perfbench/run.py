"""Verdict benchmark for nullag: one closed-loop client, four seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-closed --seed 1 --seconds 25 --trace 0

The client runs in one process and starts the next verdict only after the
previous one returns.  It imports `nullag` from `src/` of the checkout it
sits in, generates its inputs from `--seed`, and checks every verdict
against the verdict known by construction.

`--trace 0` runs whole cycles of the workload for about `--seconds`
seconds (and at least 100 verdicts) and reports the end-to-end metrics.
Their times are scaled to a fixed machine speed by probes of a reference
kernel run between verdicts (see speed.py); the unscaled values are printed
next to them.
`--trace 1` runs a fixed number of cycles, timing each verdict untraced and
traced back to back, so that its counts repeat exactly for a seed; it
reports the per-layer metrics and the tracing overhead and writes the spans
to `.perfbench/traces/`.  The last line of standard output is one JSON
object.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 5  # fresh set-up-only interpreters timed for setup_s


def load_program() -> None:
    """Import nullag from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nullag

    if Path(nullag.__file__).resolve().parent != src / "nullag":
        raise ImportError(f"nullag was imported from {nullag.__file__}, not from {src}")


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _report_errors(tally) -> None:
    for (label, detail, known), n in sorted(tally.errors.items()):
        print(f"  error x{n}: {label}: {detail} [{'known seed defect' if known else 'UNEXPECTED'}]")


def _traced(args, workload, pool, rng) -> tuple[dict, object]:
    import harness
    import tracing

    items = harness.trace_items(pool, workload.trace_cycles, rng)
    result = harness.traced_run(items)
    path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    harness.write_trace(result, path, {"workload": args.workload, "seed": args.seed})
    print(f"workload {args.workload}, seed {args.seed}: traced {len(items)} verdicts "
          f"({workload.trace_cycles} cycles), spans in {path}")
    print(f"  verdict_p50_ms untraced {1e3 * result.p50_untraced:.3f}, traced {1e3 * result.p50_traced:.3f}")
    for name, (unit, _, _) in tracing.METRICS.items():
        mark = "  [absent]" if name in result.absent else ""
        print(f"  {name} = {result.values[name]:.6g} {unit}{mark}")
    print("  self-time share of traced verdict time: "
          + ", ".join(f"{k} {v:.1%}" for k, v in result.shares.items() if v >= 0.0005))
    metrics = {name: {"value": result.values[name], "unit": unit}
               for name, (unit, _, _) in tracing.METRICS.items()}
    return metrics, result.tally


def _timing_metrics(times: list[float], setup: float) -> dict:
    p90 = statistics.quantiles(times, n=10)[-1]
    return {
        "setup_s": (setup, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_ms": (1e3 * statistics.median(times), "ms"),
        "verdict_p90_ms": (1e3 * p90, "ms"),
    }


def _timed(args, pool, rng, setup_own) -> tuple[dict, object]:
    import harness
    import speed

    tally, cycle_walls, log = harness.timed_run(pool, args.seconds, rng)
    setups = [speed.timed_scaled(lambda: _probe_setup(args.workload, args.seed)) for _ in range(SETUP_RUNS)]
    times = log.scale(tally.starts, tally.times)
    n = len(times)
    errors = min(tally.failed, n)
    metrics = _timing_metrics(times, statistics.median(s for _, s in setups))
    metrics["correct_rate"] = (1.0 - errors / n, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = _timing_metrics(tally.times, statistics.median(r for r, _ in setups))
    p90 = metrics["verdict_p90_ms"][0] / 1e3
    beyond = sum(t > p90 for t in times)
    print(f"workload {args.workload}, seed {args.seed}: {n} verdicts in {len(cycle_walls)} cycles, "
          f"{sum(cycle_walls):.2f} s, {tally.failed} errors (error rate {errors / n:.4f})")
    print(f"  times scaled to the reference speed ({1e3 * speed.REFERENCE_S:g} ms per probe); "
          f"median probe {1e3 * statistics.median(log.took):.4f} ms over {len(log.took)} probes")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={n}, {beyond} beyond)" if name == "verdict_p90_ms" else ""
        unscaled = f"  (unscaled {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name} = {value:.6g} {unit}{unscaled}{extra}")
    print(f"  set-up samples, scaled (s): {', '.join(f'{s:.3f}' for _, s in setups)}; "
          f"this interpreter unscaled {setup_own:.3f}")
    print(f"  cycle walls (s): {', '.join(f'{w:.3f}' for w in cycle_walls)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, tally


def main(argv=None) -> int:
    t0 = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import nullag from this checkout: {exc}", file=sys.stderr)
        return 2
    # Imported only now: these modules import nullag from the path set above.
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"work-{os.getpid()}"
    try:
        pool = workloads.build_pool(args.workload, args.seed, workdir)
        setup_own = perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        rng = np.random.default_rng([args.seed, 7])
        print(f"{args.workload}: {workload.why}")
        if args.trace:
            metrics, tally = _traced(args, workload, pool, rng)
        else:
            metrics, tally = _timed(args, pool, rng, setup_own)
        _report_errors(tally)
        print(json.dumps({"correct": tally.unexpected == 0, "attempted": len(tally.times),
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
