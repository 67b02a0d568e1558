#!/usr/bin/env python3
"""Summary over runs: run the benchmark once per seed and print each metric's spread.

From the repository root:

    python3 perfbench/summary.py                       # every workload, one run each
    python3 perfbench/summary.py --workload mc-desk --runs 10 --first-seed 1
    python3 perfbench/summary.py --trace 1             # per-layer metrics

For every metric it prints the median, the quartiles, their distance as a
share of the median (the spread, computed as statistics.quantiles(n=4)
gives it), the highest percentile with at least ten samples beyond it, and
the sample count.  For the end-to-end metrics BENCHMARK.json bounds, it
marks a spread at or above a third of the bound.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# end-to-end metrics in BENCHMARK.json: every workload reports them
CONTRACT_E2E = ("setup_s", "cycle_ref", "peak_rss_mb", "work_per_ref")

# end-to-end metrics every workload reports, and the workload-specific ones
# that appear only on the workloads that run the operation they time
COMMON_E2E = CONTRACT_E2E + ("wall_s", "reference_s", "error_rate", "ops")
E2E_UNITS = {
    "setup_s": "s", "cycle_ref": "ref", "wall_s": "s", "reference_s": "s",
    "peak_rss_mb": "MB", "error_rate": "ratio", "ops": "count", "work_per_ref": "1/ref",
    "cells_per_s": "1/s", "surface_s": "s", "verify_s": "s",
    "simulate_s": "s", "value_s": "s", "probe_s": "s", "simulate_bs_s": "s",
    "path_steps_per_s": "1/s",
    "value_dev_se": "se",
}
WORKLOAD_E2E = {
    "surface-sweep": ("cells_per_s", "surface_s", "verify_s"),
    "mc-desk": ("simulate_s", "value_s", "probe_s", "simulate_bs_s", "path_steps_per_s",
                "value_dev_se"),
}


def tail(values):
    """(p, value) for the highest of p50 ... p99.9 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def describe(values, what="cycles") -> str:
    n = len(values)
    text = f"median of {n} {what}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g} .. {q3:.6g}"
    top = tail(values)
    text += f", p{top[0]:g} {top[1]:.6g}" if top else ", no percentile with 10 samples beyond"
    return text


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = proc.stdout.strip().splitlines()[-2].removeprefix("record: ")
    with open(record_path, encoding="utf-8") as fh:
        return {"result": result, "record": json.load(fh)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOAD_E2E))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=2024)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    for workload in args.workload or WORKLOAD_E2E:
        runs = [run_once(workload, args.first_seed + i, seconds, args.trace)
                for i in range(args.runs)]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds:g} s, trace {args.trace}; "
              f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted})")
        key = "layers" if args.trace else "end_to_end"
        table = {name: [r["record"][key][name]["value"] for r in runs]
                 for name in runs[0]["record"][key]}
        units = {name: e["unit"] for name, e in runs[0]["record"][key].items()}
        print(f"  {'metric':<36s} {'unit':<14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}  bound")
        for name, values in table.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / abs(med) if med else math.nan
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = f"{bound:g}" + ("" if spread < bound / 3 else "  WIDE")
            top = tail(values)
            extra = f"  p{top[0]:g} {top[1]:.6g}" if top else ""
            print(f"  {name:<36s} {units[name]:<14s} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f}  {flag}{extra}")
        for name, hashes in runs[0]["record"]["csv_sha256"].items():
            print(f"  csv sha256 {name} (seed {args.first_seed}): {' '.join(hashes)}")
        for r in runs:
            for failure in r["record"]["failures"]:
                print(f"  FAILED seed {r['record']['seed']}: {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
