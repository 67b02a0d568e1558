"""In-memory spans and the per-layer metrics derived from them.

A span is [name, parent index, start, end, attrs]; times are
time.perf_counter() seconds.  Spans are recorded only around public liqzone
calls the benchmark makes and around the policy callables it passes in, so
the library itself is unchanged.

Inside a Monte Carlo call the policy spans give the layer split:

* sim time: the gap that ends at each batch's first policy call at t = 0
  (the path simulation of that batch, plus the previous batch's totals);
* table-build time: first-batch optimal-policy call time minus the median
  later-batch time at the same step (tables are cached after batch one);
* loop time: call time minus sim and policy time (the goal loop's self time).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from workloads import NODES_PER_CELL

# (name, unit) of every per-layer metric, in report order.  Units ending in
# ".computed" mark values computed from counts and shapes, not measured.
LAYER_METRICS = (
    ("cli.load_config_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.csv_bytes", "count"),
    ("signals.rate_surface_s", "s"),
    ("signals.cells", "count"),
    ("signals.cell_us.bachelier", "us"),
    ("signals.cell_us.bs", "us"),
    ("signals.node_evals", "count.computed"),
    ("signals.node_evals_per_s", "1/s.computed"),
    ("signals.v1_curve_s", "s"),
    ("schedule.trajectory_s", "s"),
    ("oracle.solve_s", "s"),
    ("oracle.unknowns", "count"),
    ("oracle.unknowns_per_s", "1/s"),
    ("montecarlo.table_builds", "count"),
    ("montecarlo.table_build_s", "s"),
    ("montecarlo.table_build_ms.bachelier", "ms"),
    ("montecarlo.table_build_ms.bs", "ms"),
    ("montecarlo.sim_s", "s"),
    ("montecarlo.normals_per_s", "1/s"),
    ("montecarlo.policy_s.optimal", "s"),
    ("montecarlo.policy_s.ac", "s"),
    ("montecarlo.lookup_s", "s"),
    ("montecarlo.loop_s", "s"),
    ("montecarlo.policy_calls", "count"),
    ("montecarlo.batches", "count"),
    ("montecarlo.v0_s", "s"),
    ("montecarlo.batch_mb", "MB.computed"),
    ("montecarlo.value_dev_se", "se"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

# time-major (n_steps + 1) x batch arrays a batch holds at once: m and p;
# the probe's collect pass adds positions and rates
_ARRAYS_HELD = {"simulate": 2, "value": 2, "probe": 4}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap_policy(self, policy, label: str):
        """The policy, with a span around every call; the span keeps t and the path count."""
        spans, stack, name = self.spans, self._stack, "policy." + label

        def traced(t, x, state):
            start = perf_counter()
            out = policy(t, x, state)
            spans.append([name, stack[-1], start, perf_counter(), {"t": t, "paths": len(x)}])
            return out

        return traced

    def cost(self, n: int = 20_000) -> tuple[float, float]:
        """Seconds the tracer adds per context span and per policy span.

        Each is the mean over n spans around a no-op, less the same no-op
        without the span.
        """
        probe, x = Tracer(), (0.0,)

        def noop(t, x, state):
            return None

        def per_call(body) -> float:
            start = perf_counter()
            body()
            return (perf_counter() - start) / n

        def spans():
            for _ in range(n):
                with probe.span("noop"):
                    pass

        def bare():
            for _ in range(n):
                pass

        def calls(policy):
            return lambda: [policy(0.0, x, None) for _ in range(n)]

        with probe.span("calibration"):
            span_s = per_call(spans) - per_call(bare)
            call_s = per_call(calls(probe.wrap_policy(noop, "noop"))) - per_call(calls(noop))
        return max(span_s, 0.0), max(call_s, 0.0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def cycle_layers(spans: list[list], cycle_index: int) -> dict:
    """Per-layer metrics of one traced cycle (the span at cycle_index).

    cli.overhead_s, cli.csv_bytes and trace.overhead_ratio need the
    untraced cycles too; the runner fills them in.
    """
    inside = _descendants(spans, cycle_index)
    dur = {}
    for i in inside:
        s = spans[i]
        dur[s[0]] = dur.get(s[0], 0.0) + s[3] - s[2]

    def named(name):
        return [spans[i] for i in inside if spans[i][0] == name]

    out = {name: 0.0 for name, _ in LAYER_METRICS}
    out["trace.spans"] = len(inside) + 1

    out["cli.load_config_s"] = dur.get("cli.load_config", 0.0)
    surfaces = named("signals.rate_surface")
    cells = sum(s[4]["cells"] for s in surfaces)
    out["signals.rate_surface_s"] = dur.get("signals.rate_surface", 0.0)
    out["signals.cells"] = cells
    for tag in ("bachelier", "bs"):
        mine = [s for s in surfaces if s[4]["model"] == tag]
        n = sum(s[4]["cells"] for s in mine)
        if n:
            out[f"signals.cell_us.{tag}"] = sum(s[3] - s[2] for s in mine) / n * 1e6
    out["signals.node_evals"] = cells * NODES_PER_CELL
    if cells:
        out["signals.node_evals_per_s"] = cells * NODES_PER_CELL / out["signals.rate_surface_s"]
    out["signals.v1_curve_s"] = dur.get("signals.v1_curve", 0.0)
    out["schedule.trajectory_s"] = dur.get("schedule.trajectory", 0.0)
    out["oracle.solve_s"] = dur.get("oracle.solve", 0.0)
    out["oracle.unknowns"] = sum(s[4]["unknowns"] for s in named("oracle.solve"))
    if out["oracle.unknowns"]:
        out["oracle.unknowns_per_s"] = out["oracle.unknowns"] / out["oracle.solve_s"]

    out["montecarlo.v0_s"] = dur.get("montecarlo.estimate_v0", 0.0)
    build = {"bachelier": [0.0, 0], "bs": [0.0, 0]}
    normals = batch = 0
    for i in inside:
        call = spans[i]
        if call[0] not in _WRAPPED_CALLS:
            continue
        mc = _mc_call(spans, i, call)
        for key in ("sim_s", "loop_s", "policy_calls", "batches", "table_builds",
                    "table_build_s"):
            out["montecarlo." + key] += mc[key]
        for label, seconds in mc["policy_s"].items():
            out["montecarlo.policy_s." + label] += seconds
        normals += mc["normals"]
        batch = max(batch, mc["batch"])
        acc = build[call[4]["model"]]
        acc[0] += mc["table_build_s"]
        acc[1] += mc["table_builds"]
    if out["montecarlo.sim_s"]:
        out["montecarlo.normals_per_s"] = normals / out["montecarlo.sim_s"]
    out["montecarlo.lookup_s"] = (out["montecarlo.policy_s.optimal"]
                                  - out["montecarlo.table_build_s"])
    for tag, (seconds, builds) in build.items():
        if builds:
            out[f"montecarlo.table_build_ms.{tag}"] = seconds / builds * 1e3
    # the probe's batches are not observable; they use the same batch size
    out["montecarlo.batch_mb"] = max(
        [_ARRAYS_HELD[s[4]["op"]] * (s[4]["steps"] + 1) * min(batch, s[4]["paths"]) * 8 / 2**20
         for s in (spans[i] for i in inside) if s[0] in _MC_CALLS] or [0.0])
    devs = [s[4]["value_dev_se"] for s in named("op.value")]
    if devs:
        out["montecarlo.value_dev_se"] = devs[-1]
    return out


def tracer_seconds(spans: list[list], cycle_index: int, cost: tuple[float, float]) -> float:
    """The tracer's own time in one traced cycle: its spans of each kind times their cost."""
    inside = _descendants(spans, cycle_index)
    calls = sum(spans[i][0].startswith("policy.") for i in inside)
    return (len(inside) + 1 - calls) * cost[0] + calls * cost[1]


_WRAPPED_CALLS = ("montecarlo.paired_value_difference", "montecarlo.estimate_value")
_MC_CALLS = _WRAPPED_CALLS + ("montecarlo.estimate_v0", "montecarlo.probe_optimality")


def _descendants(spans, index) -> list[int]:
    """Indices of every span below spans[index]; children follow their parent."""
    found, frontier = [], {index}
    for i in range(index + 1, len(spans)):
        if spans[i][1] in frontier:
            frontier.add(i)
            found.append(i)
    return found


def _mc_call(spans, index, call) -> dict:
    """Split one wrapped-policy Monte Carlo call into sim, policy, build and loop time."""
    calls = sorted((s for s in spans[index + 1:] if s[1] == index), key=lambda s: s[2])
    first_label = calls[0][0] if calls else None
    sim = 0.0
    policy_s: dict[str, float] = {}
    batches = []            # per batch: {label: [durations by step]}
    normals = batch = 0
    prev_end = call[2]
    for s in calls:
        label = s[0].split(".", 1)[1]
        if s[0] == first_label and s[4]["t"] == 0.0:
            sim += s[2] - prev_end
            batches.append({})
            normals += s[4]["paths"] * call[4]["steps"]
            batch = max(batch, s[4]["paths"])
        batches[-1].setdefault(label, []).append(s[3] - s[2])
        policy_s[label] = policy_s.get(label, 0.0) + s[3] - s[2]
        prev_end = s[3]
    builds, build_s = 0, 0.0
    if batches and "optimal" in batches[0]:
        first = batches[0]["optimal"]
        builds = len(first)
        later = [b["optimal"] for b in batches[1:]]
        if later:
            build_s = max(0.0, sum(d - statistics.median(col)
                                   for d, col in zip(first, zip(*later))))
    total = call[3] - call[2]
    return {
        "sim_s": sim,
        "policy_s": policy_s,
        "loop_s": total - sim - sum(policy_s.values()),
        "policy_calls": len(calls),
        "batches": len(batches),
        "normals": normals,
        "batch": batch,
        "table_builds": builds,
        "table_build_s": build_s,
    }
