"""Untraced and traced cycles of a workload, and the metrics they yield.

An untraced cycle issues each operation as a user would: ``liqzone.cli.main``
in-process (stdout captured), or ``probe_optimality`` for the probe.  A
traced cycle replays each operation through the public library calls the
CLI makes for the same config, with a span around each call and around
every policy call.  Only untraced cycles give end-to-end metrics.  In both
kinds of cycle an operation's checks run after it, outside its timed region.

Untraced cycles also time a fixed pure-Python loop (``reference_seconds``)
right before and right after each operation, and every 50 ms during it from
a SIGALRM handler; the operation's time excludes the samples it hosted.  An
operation's time over the mean of those samples is its cost in reference
units: a change to the library moves it, while a shift in the shared host's
speed, which slows the loop and the operation alike, largely cancels.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import statistics
import traceback
from collections.abc import Callable
from time import perf_counter

import numpy as np

from liqzone import (
    CappedBlackScholes,
    DiscreteProblem,
    TargetZoneState,
    ac_policy,
    estimate_v0,
    estimate_value,
    optimal_policy,
    paired_value_difference,
    probe_optimality,
    rate_surface,
    solve_discrete,
    trajectory_from_signal,
    v1_curve_deterministic,
    v1_target_zone,
    value_formula,
)
from liqzone.cli import load_config, main as cli_main

import checks
from summary import describe
from tracing import LAYER_METRICS, Tracer, cycle_layers, tracer_seconds
from workloads import objects_from

# a replay's output check, called after the replay's span has closed
Check = Callable[[], list[str]]

# the CLI's verify threshold on the finest trajectory error
_VERIFY_TRAJ_TOL = 1e-3


# iterations of the reference loop, about 1.5 ms on a 2-vCPU Intel Xeon, and
# the period of the samples taken during an operation: about 3 % of its time
_REFERENCE_ITERATIONS = 20_000
_SAMPLE_PERIOD_S = 0.05


def reference_seconds() -> float:
    """Time of a fixed pure-Python integer loop, the yardstick of host speed."""
    start = perf_counter()
    acc = 0
    for i in range(_REFERENCE_ITERATIONS):
        acc += i * i
    return perf_counter() - start


class HostSpeed:
    """Reference-loop samples taken by SIGALRM while an operation runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0                # seconds the handler took

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _SAMPLE_PERIOD_S, _SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _attempt(fn):
    """fn(), or the last line of the exception it raised, as a string."""
    try:
        return fn()
    except Exception:
        return traceback.format_exc(limit=2).strip().splitlines()[-1]


class Runner:
    def __init__(self, ops, seed: int, rng):
        self.ops = ops
        self.seed = seed
        self.rng = rng                  # draws the surface spot-check cells
        self.untraced: list[list[float]] = []               # op seconds per cycle
        self.reference: list[list[float]] = []              # op reference seconds per cycle
        self.host = HostSpeed()
        self.traced: list[tuple[int, list[float]]] = []     # (cycle span, op seconds)
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_hashes: dict[str, list[str]] = {}
        self.csv_bytes = 0
        self.value_dev: list[float] = []
        self.tracer = Tracer()

    def cycle(self, traced: bool) -> None:
        if traced:
            self._traced_cycle()
        else:
            self._untraced_cycle()

    # -- untraced ----------------------------------------------------------

    def _untraced_cycle(self) -> None:
        times, reference = [], []
        self.csv_bytes = 0
        for op in self.ops:
            before = reference_seconds()
            start = perf_counter()
            with self.host.sampling():
                result = _attempt(lambda: self._issue(op))
            times.append(perf_counter() - start - self.host.spent)
            samples = [before, *self.host.samples, reference_seconds()]
            reference.append(statistics.mean(samples))
            problems = result if isinstance(result, str) else self._check_issued(op, result)
            self._judge(op, [problems] if isinstance(problems, str) else problems)
        self.untraced.append(times)
        self.reference.append(reference)

    def _issue(self, op):
        if op.kind == "probe":
            o = op.objects
            return probe_optimality(o["model"], o["kernel"], o["costs"], op.paths, op.steps,
                                    self.seed)
        argv = [op.kind, "--config", op.cfg_path]
        if op.csv_path:
            argv += ["--output", op.csv_path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def _check_issued(self, op, result) -> list[str]:
        if op.kind == "probe":
            return checks.check_probe(result)
        code, text = result
        if op.kind == "verify":
            return checks.check_verify(code, text)
        if code != 0:
            return [f"exit code {code}: {text.strip()}"]
        with open(op.csv_path, "rb") as fh:
            data = fh.read()
        self.csv_bytes += len(data)
        hashes = self.csv_hashes.setdefault(op.name + ".csv", [])
        digest = hashlib.sha256(data).hexdigest()
        if digest not in hashes:
            hashes.append(digest)
        cfg = op.objects["cfg"]
        if op.kind == "surface":
            surf = checks.surface_from_csv(op.csv_path, cfg.tau_count, cfg.money_count)
            return checks.check_surface(surf, cfg, op.small_costs, self.rng)
        if op.kind == "simulate":
            return checks.check_simulate_csv(op.csv_path)
        problems, dev = checks.check_value_csv(op.csv_path, cfg.lam)
        self.value_dev.append(dev)
        return problems

    def _judge(self, op, problems: list[str]) -> None:
        self.attempted += 1
        for problem in problems:
            self.failures.append(f"{op.name}: {problem}")

    # -- traced ------------------------------------------------------------

    def _traced_cycle(self) -> None:
        tr = self.tracer
        times = []
        index = len(tr.spans)
        with tr.span("cycle"):
            for op in self.ops:
                # the replay returns its check, which runs after the op span closes
                with tr.span("op." + op.kind, op=op.name) as rec:
                    check = _attempt(lambda: getattr(self, "_replay_" + op.kind)(op, rec))
                times.append(rec[3] - rec[2])
                problems = check if isinstance(check, str) else _attempt(check)
                self._judge(op, [problems] if isinstance(problems, str) else problems)
        self.traced.append((index, times))

    def _load(self, op) -> dict:
        with self.tracer.span("cli.load_config"):
            cfg = load_config(op.cfg_path)
        return objects_from(cfg)

    def _replay_surface(self, op, rec) -> Check:
        o = self._load(op)
        cfg = o["cfg"]
        taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_count)
        money = np.linspace(cfg.money_min, cfg.money_max, cfg.money_count)
        bs_m = cfg.bs_m if cfg.bs_m is not None else cfg.p_bar
        tag = "bs" if cfg.model == "bs-capped" else "bachelier"
        with self.tracer.span("signals.rate_surface", model=tag, cells=taus.size * money.size):
            surf = rate_surface(o["kernel"], o["costs"], o["model"], taus, money,
                                x=cfg.x0, bs_m=bs_m)

        def check():
            grid = np.broadcast_arrays(taus[:, None], money[None, :])
            arrays = {"tau": grid[0], "moneyness": grid[1], "rate": surf.rate,
                      "rate_ac": surf.rate_ac, "rate_extra": surf.rate_extra,
                      "relative_increase": surf.relative_increase}
            return checks.check_surface(arrays, cfg, op.small_costs, self.rng)

        return check

    def _replay_verify(self, op, rec) -> Check:
        o = self._load(op)
        cfg, costs, kernel = o["cfg"], o["costs"], o["kernel"]
        drift = cfg.drift if cfg.model == "drift" else 0.0
        n = cfg.n_steps
        for steps in sorted({max(2, n // 100), max(2, n // 10), n}):
            with self.tracer.span("oracle.solve", unknowns=steps):
                plan = solve_discrete(DiscreteProblem.uniform(costs, steps, drift))
            if drift:
                with self.tracer.span("signals.v1_curve"):
                    v1 = v1_curve_deterministic(o["model"], kernel, costs.lam, plan.grid)
            else:
                v1 = np.zeros(plan.grid.size)
            with self.tracer.span("schedule.trajectory"):
                exact = trajectory_from_signal(kernel, costs.x0, v1, plan.grid)

        def check():
            error = float(np.max(np.abs(plan.positions - exact.positions))) / costs.x0
            if error <= _VERIFY_TRAJ_TOL:
                return []
            return [f"trajectory error {error:.3e} > {_VERIFY_TRAJ_TOL}"]

        return check

    def _mc_span(self, name, op, model):
        tag = "bs" if isinstance(model, CappedBlackScholes) else "bachelier"
        return self.tracer.span(name, op=op.kind, model=tag, paths=op.paths, steps=op.steps)

    def _replay_simulate(self, op, rec) -> Check:
        o = self._load(op)
        cfg, costs, kernel, model = o["cfg"], o["costs"], o["kernel"], o["model"]
        optimal = self.tracer.wrap_policy(optimal_policy(model, kernel, costs), "optimal")
        ac = self.tracer.wrap_policy(ac_policy(kernel), "ac")
        with self._mc_span("montecarlo.paired_value_difference", op, model):
            cmp = paired_value_difference(model, optimal, ac, costs, n_paths=cfg.n_paths,
                                          n_steps=cfg.n_steps, master_seed=cfg.seed)
        return lambda: checks.check_difference(cmp.difference.mean, cmp.difference.std_error)

    def _replay_value(self, op, rec) -> Check:
        o = self._load(op)
        cfg, costs, kernel, model = o["cfg"], o["costs"], o["kernel"], o["model"]
        with self.tracer.span("signals.v1_target_zone"):
            v1_0 = v1_target_zone(kernel, costs, model,
                                  TargetZoneState(t=0.0, m=model.m0, p=model.m0))
        with self._mc_span("montecarlo.estimate_v0", op, model):
            v0 = estimate_v0(model, kernel, costs, n_paths=cfg.n_paths, n_steps=cfg.n_steps,
                             master_seed=cfg.seed)
        value = value_formula(kernel, costs, model.m0, v0.mean, v1_0)
        optimal = self.tracer.wrap_policy(optimal_policy(model, kernel, costs), "optimal")
        with self._mc_span("montecarlo.estimate_value", op, model):
            mc = estimate_value(model, optimal, costs, n_paths=cfg.n_paths, n_steps=cfg.n_steps,
                                master_seed=cfg.seed)

        def check():
            problems, dev = checks.check_value(value, mc.mean, v0.std_error, mc.std_error,
                                               costs.lam)
            rec[4]["value_dev_se"] = dev
            return problems

        return check

    def _replay_probe(self, op, rec) -> Check:
        o = op.objects
        with self._mc_span("montecarlo.probe_optimality", op, o["model"]):
            probe = probe_optimality(o["model"], o["kernel"], o["costs"], op.paths, op.steps,
                                     self.seed)
        return lambda: checks.check_probe(probe)

    # -- metrics -----------------------------------------------------------

    def _group_seconds(self, pick) -> list[float]:
        """Per untraced cycle, the summed time of the ops pick(op) selects."""
        return [sum(t for t, op in zip(times, self.ops) if pick(op)) for times in self.untraced]

    def end_to_end(self, setup: list[float], rss_mb: float) -> dict:
        """Every end-to-end metric of the workload: {name: {value, unit, note}}.

        cycle_ref and work_per_ref take each operation's median cost in
        reference units over the run's cycles.  On a shared host whose speed
        swings by tens of per cent, within a run and between runs, they are
        far steadier from run to run than seconds, and they still scale with
        the cost of the code.  The seconds are reported beside them.
        """
        out = {}

        def put(name, values, unit, note=None):
            out[name] = {"value": statistics.median(values), "unit": unit,
                         "note": note or describe(values)}

        cost = [statistics.median(t / r for t, r in zip(times, refs))
                for times, refs in zip(zip(*self.untraced), zip(*self.reference))]
        ref_note = (f"each operation's median time over the reference loop's, "
                    f"over {len(self.untraced)} cycles")
        put("setup_s", setup, "s", describe(setup, "set-ups"))
        put("cycle_ref", [sum(cost)], "ref", ref_note + ", summed")
        put("wall_s", [sum(times) for times in self.untraced], "s")
        refs = [r for cycle in self.reference for r in cycle]
        put("reference_s", refs, "s",
            "the reference loop's time, the host's speed: " + describe(refs, "operations"))
        put("peak_rss_mb", [rss_mb], "MB", "peak resident memory of the run's process")
        put("error_rate", [len(self.failures) / self.attempted], "ratio",
            f"{len(self.failures)} failed of {self.attempted} operations")
        put("ops", [self.attempted], "count", "operations attempted, checks included")
        for metric in dict.fromkeys(op.metric for op in self.ops):
            put(metric, self._group_seconds(lambda op: op.metric == metric), "s")
        # the work metric: surface cells, or path-steps of the MC operations
        cells = sum(op.cells for op in self.ops)
        work = cells or sum(op.path_steps for op in self.ops)
        does_work = (lambda op: op.cells > 0) if cells else (lambda op: op.path_steps > 0)
        put("cells_per_s" if cells else "path_steps_per_s",
            [work / s for s in self._group_seconds(does_work)], "1/s")
        work_cost = sum(c for c, op in zip(cost, self.ops) if does_work(op))
        put("work_per_ref", [work / work_cost], "1/ref",
            f"{'cells' if cells else 'path-steps'} over {ref_note}")
        if self.value_dev:
            put("value_dev_se", self.value_dev, "se",
                "informational, not a failure: the grid-sampled running max biases it")
        return out

    def layers(self) -> dict:
        """Per-layer metrics, median over traced cycles: {name: {value, unit}}."""
        per_cycle = [cycle_layers(self.tracer.spans, index) for index, _ in self.traced]
        values = {name: statistics.median(c[name] for c in per_cycle) for name, _ in LAYER_METRICS}
        untraced = [statistics.median(col) for col in zip(*self.untraced)]
        traced = [statistics.median(col) for col in zip(*(t for _, t in self.traced))]
        values["cli.overhead_s"] = sum(u - t for u, t, op in zip(untraced, traced, self.ops)
                                       if op.kind != "probe")
        values["cli.csv_bytes"] = self.csv_bytes
        cost = self.tracer.cost()
        values["trace.overhead_ratio"] = statistics.median(
            sum(times) / (sum(times) - tracer_seconds(self.tracer.spans, index, cost))
            for index, times in self.traced)
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
