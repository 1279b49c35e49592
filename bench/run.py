#!/usr/bin/env python3
"""kedsum benchmark: accuracy-table rows, timed end to end and per layer.

Usage, from the root of a checkout (kedsum is imported from ./src):

    python3 bench/run.py --workload atoms|hooke|tabulated|all \
        [--seed N] [--seconds S] [--trace 0|1]

An untraced run (--trace 0) repeats whole passes over the workload's
rows, as many as fit in S seconds and at least one, and reports the
end-to-end metrics.  A traced run (--trace 1) alternates untraced and
traced passes the same way and reports the per-layer metrics and the
tracing overhead.  Either way the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
full record, with rows, checks and spans, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One worker thread: numpy's BLAS must not start its own pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SETUP_REPEATS = 3
# A fresh interpreter that imports kedsum.cli, loads one workload's
# inputs and prints the wall clock when done.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import run, workloads
import kedsum.cli
workloads.load_inputs(sys.argv[2], int(sys.argv[3]))
print(repr(time.time()))
"""
END_TO_END = (("setup_s", "s"), ("row_s", "s"), ("pass_s", "s"),
              ("peak_rss_mb", "MB"))
# What a failing row raises: kedsum's numerical and data errors.
ROW_ERRORS = (ArithmeticError, RuntimeError, ValueError)


def _require_checkout():
    package = SRC / "kedsum" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a kedsum checkout")
    import kedsum
    if Path(kedsum.__file__).resolve() != package.resolve():
        sys.exit(f"error: kedsum imported from {kedsum.__file__}, "
                 f"not {package}")


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting an interpreter to its inputs loaded."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(BENCH), workload, str(seed)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_pass(rows, row_seconds: list, tracer=None):
    """One pass over the rows; returns its wall time, rows and failures."""
    produced, failed = [], 0
    start = time.perf_counter()
    for key, compute in rows:
        if tracer is not None:
            tracer.row = key
        began = time.perf_counter()
        try:
            row = compute()
        except ROW_ERRORS as exc:
            print(f"row {key} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        row_seconds.append(time.perf_counter() - began)
        produced.append(row)
    return time.perf_counter() - start, produced, failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import tracing
    import workloads

    setup_tracer = tracing.Tracer()
    if trace:
        with setup_tracer.installed():
            rows = workloads.load_inputs(workload, seed)
    else:
        setup_s = statistics.median(fresh_setup_seconds(workload, seed)
                                    for _ in range(SETUP_REPEATS))
        rows = workloads.load_inputs(workload, seed)

    tracer = tracing.Tracer()
    plain_passes, traced_passes, row_seconds = [], [], []
    produced, failed = [], 0
    start = time.perf_counter()
    while True:
        took, got, lost = run_pass(rows, row_seconds)
        plain_passes.append(took)
        produced += got
        failed += lost
        if trace:
            with tracer.installed():
                took, got, lost = run_pass(rows, [], tracer)
            traced_passes.append(took)
            produced += got
            failed += lost
        # Whole rounds only: stop unless one more round of average length
        # still ends within the run time.
        rounds = len(plain_passes)
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = checks.workload_checks(workload, produced)
    attempted = len(rows) * (len(plain_passes) + len(traced_passes))
    if trace:
        metrics = tracer.layer_metrics(len(traced_passes))
        metrics["atoms.load.busy_s"] = setup_tracer.busy["atoms.load"]
        plain = statistics.median(plain_passes)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced_passes) - plain) / plain)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {"setup_s": setup_s,
                   "row_s": statistics.median(row_seconds),
                   "pass_s": statistics.median(plain_passes),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    summary = {
        "correct": bool(results) and all(c.passed for c in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "result": summary,
        "passes_s": plain_passes, "traced_passes_s": traced_passes,
        "row_seconds": row_seconds,
        "rows": [list(row.values) for row in produced],
        "checks": [c.describe() for c in results],
        "spans": tracer.spans,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")

    for row in produced[:len(rows)]:
        print("row " + "  ".join(f"{v:.10g}" if isinstance(v, float)
                                 else str(v) for v in row.values))
    failing = [c for c in results if not c.passed]
    for c in failing:
        print("check " + c.describe())
    print(f"checks: {len(results) - len(failing)} of {len(results)} passed")
    for name, entry in summary["metrics"].items():
        print(f"{workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"attempted {attempted}, failed {failed}; written to {path}")
    return summary


def main(argv=None) -> int:
    _require_checkout()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, so each reports its own peak memory.
        for workload in workloads.WORKLOADS:
            subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=True)
        return 0
    summary = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
