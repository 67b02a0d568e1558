"""Smoke test of the benchmark: tiny paths, steps and grids, every workload.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

It checks the wiring, not the speed: every workload runs, its outputs pass
their checks, and each metric BENCHMARK.json names is reported with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from summary import COMMON_E2E, CONTRACT_E2E, E2E_UNITS, WORKLOAD_E2E  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# a layer each workload must exercise, and one it must leave alone
EXERCISED = {
    "surface-sweep": (("signals.cells", "oracle.unknowns", "signals.v1_curve_s"),
                      "montecarlo.policy_calls"),
    "mc-desk": (("montecarlo.table_build_ms.bachelier", "montecarlo.table_build_ms.bs",
                 "montecarlo.v0_s", "montecarlo.sim_s", "montecarlo.policy_s.ac"),
                "signals.cells"),
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2024",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_and_record(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(Path(lines[-2].removeprefix("record: ")).read_text(encoding="utf-8"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        record["failures"]
    return result, record


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_code_and_benchmark_json_name_the_same_metrics():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(CONTRACT_E2E)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(LAYER_METRICS)
    assert WORKLOADS == list(WORKLOAD_E2E)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = result_and_record(workload, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    names = set(COMMON_E2E) | set(WORKLOAD_E2E[workload])
    assert units(record["end_to_end"]) == {name: E2E_UNITS[name] for name in names}
    assert record["end_to_end"]["error_rate"]["value"] == 0
    assert record["env"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, record = result_and_record(workload, 1)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert record["cycles"]["traced"] >= 1 and record["cycles"]["untraced"] >= 1
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    used, unused = EXERCISED[workload]
    assert all(result["metrics"][name]["value"] > 0 for name in used)
    assert result["metrics"][unused]["value"] == 0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
