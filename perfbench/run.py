#!/usr/bin/env python3
"""liqzone benchmark: one workload, run from a single process.

Run from the repository root:

    python3 perfbench/run.py --workload mc-desk --seed 2024 --seconds 45 --trace 0

The run repeats the workload's cycle of operations (see workloads.py) for
--seconds and checks every output outside the timed region.  With --trace 0
the last line of stdout is the end-to-end result; with --trace 1 the run
alternates untraced and traced cycles and the last line holds the per-layer
metrics, including the tracing overhead.  The lines before it are the full
human-readable report.  Outputs (configs, CSVs, run.json, trace.json) go to
.bench_out/ under the repository root.

BLAS is pinned to one thread: the single-threaded baseline, and the
steadier one on a small machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from summary import CONTRACT_E2E, WORKLOAD_E2E

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = {"full": 15, "smoke": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_E2E))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny paths, steps and grids: checks the wiring, not the speed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_liqzone():
    """Import liqzone from this checkout's src/, never from an installed copy."""
    if not (SRC / "liqzone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no liqzone source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import liqzone
    if Path(liqzone.__file__).resolve().parent != SRC / "liqzone":
        sys.exit(f"perfbench: imported liqzone from {liqzone.__file__}, not {SRC}")


def main() -> int:
    argv = sys.argv[1:]
    args = parse_args(argv)
    import_liqzone()
    import workloads
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    smoke = "-smoke" if args.smoke else ""
    out_dir = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}{smoke}"
    ops = workloads.build_ops(args.workload, sizes, args.seed, str(out_dir))
    if args.setup_probe:
        for op in ops:
            workloads.set_up(op)
        print("ready", flush=True)
        return 0

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for op in ops:
        workloads.write_config(op)
        op.objects = workloads.set_up(op)

    import numpy as np
    from cycles import Runner
    runner = Runner(ops, args.seed, np.random.default_rng(args.seed))
    # set-up probes are spread over the run, so a slow spell of a shared
    # host weighs on few of them.  Their time does not count towards
    # --seconds, which is spent on cycles alone.
    n_setup = SETUP_SAMPLES["smoke" if args.smoke else "full"]
    setup = []
    elapsed = 0.0
    while True:
        traced = bool(args.trace) and len(runner.untraced) > len(runner.traced)
        start = time.perf_counter()
        runner.cycle(traced)
        elapsed += time.perf_counter() - start
        while len(setup) < min(n_setup, math.ceil(n_setup * elapsed / max(args.seconds, 1.0))):
            setup.append(time_setup(argv))
        if elapsed >= args.seconds and (runner.traced or not args.trace):
            break
    while len(setup) < n_setup:
        setup.append(time_setup(argv))

    e2e = runner.end_to_end(setup, peak_rss_mb())
    layers = runner.layers() if args.trace else None
    env = environment(np)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "ops": [{"name": op.name, "kind": op.kind, "paths": op.paths, "steps": op.steps,
                 "cells": op.cells} for op in ops],
        "cycles": {"untraced": len(runner.untraced), "traced": len(runner.traced)},
        "op_seconds": {"untraced": runner.untraced, "traced": [t for _, t in runner.traced]},
        "op_reference_seconds": runner.reference,
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures, "csv_sha256": runner.csv_hashes,
        "setup_samples": setup, "end_to_end": e2e, "layers": layers,
    }
    with open(out_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        runner.tracer.write(str(out_dir / "trace.json"))
    report(record, out_dir)

    if args.trace:
        metrics = layers
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in CONTRACT_E2E}
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def time_setup(argv) -> float:
    """Interpreter start to ready (imports, configs, objects) in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, *argv, "--setup-probe"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(np) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def report(record: dict, out_dir: Path) -> None:
    env = record["env"]
    print(f"liqzone benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}{', smoke' if record['smoke'] else ''}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for op in record["ops"]:
        print(f"op {op['name']}: {op['kind']}, paths {op['paths']}, steps {op['steps']}, "
              f"cells {op['cells']}")
    print(f"cycles: {record['cycles']['untraced']} untraced, {record['cycles']['traced']} traced")
    print("end to end (untraced cycles):")
    for name, entry in record["end_to_end"].items():
        print(f"  {name:<18s} {entry['value']:<14.6g} {entry['unit']:<6s} {entry['note']}")
    if record["layers"]:
        print("per layer (median over traced cycles):")
        for name, entry in record["layers"].items():
            print(f"  {name:<36s} {entry['value']:<14.6g} {entry['unit']}")
    for name, hashes in record["csv_sha256"].items():
        print(f"csv sha256 {name}: {' '.join(hashes)}")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")
    if len(record["failures"]) > 20:
        print(f"... {len(record['failures']) - 20} more failures in run.json")
    print(f"record: {out_dir / 'run.json'}")


if __name__ == "__main__":
    sys.exit(main())
