"""Monte Carlo simulation of capped prices and strategy evaluation.

Paths are driven by the Philox 4x64-10 counter-based generator (numpy's
np.random.Philox, Salmon et al. round constants), one stream per path keyed
by the 128-bit value (master_seed << 64) | path_index.  Streams make every
estimate bit-for-bit reproducible for a given (seed, n_paths, n_steps,
model) regardless of batch size, and common random numbers across policies
come free: the same master seed replays the same paths.

The realized goal of a strategy on a path is accumulated with left-endpoint
Riemann sums and a forward-Euler inventory update,

    total = sum_i (P_i - lam u_i) u_i dt + P_N X_N
            - gamma sum_i X_i^2 dt - big_gamma X_N^2,

which is exactly the discrete objective the verification oracle maximizes:
oracle.discrete_goal at the path's prices gives a run's total from its rates.
GoalBreakdown sums its total from its parts and PathSample takes m_star
from m.  Reductions over paths always run in path-index order.

Policies are callables (t, x, state) -> selling rate u, and every one
runs through the same inventory update x_{i+1} = x_i - u_i dt.  ac_policy
and optimal_policy are one feedback class, u = urgency(t) * x + extra,
whose extra is the engine's lookup of the model's signal table
(liqzone.signals); the signal-free policy has no table.  Any other callable
is called at every step with a read-only x and a MarketState, as arrays
with one entry per path.  For the capped models the table is one per
policy, built on its first query (_CappedSignalTable states its error).

One engine serves every entry point.  _simulate draws a batch's normals;
_plan fixes what a call shares across its batches (each signal table's rows
at the step times, each feedback policy's urgencies, and the signal-free
policy's positions, rates and running penalty, which no path changes);
_run_batch runs every policy of a call down a batch, _STEP_BLOCK steps at a
time, summing each block's levels from the normals and capping them (the
model's _cap_rows) just before it runs the block, so it holds one block of
levels, prices, and positions and rates per policy; _one_pass walks the
paths _BATCH_DEFAULT at a time, freeing each batch before the next is
simulated.  What else reads the prices, positions and rates (the probe's
linear functionals, run_strategy's plan) is handed each block by a fold.
Each estimator is one pass, and each table is looked up once per block for
both the optimal policy's rate and the v1^2 sum, so estimate_v0_and_value
equals estimate_v0 plus estimate_value bit for bit.  Every sum is added in
step order, so each output is bit for bit the step-by-step loop's.
simulate_path(model, T, n, path_stream(seed, j)) is bit for bit column j
of every batch, and run_strategy is the batch runner on one path's given
levels and prices (it needs a uniform grid, and calls no policy at its
last point).  What differs between market models (start level, increment
map, cap map, signal table) lives on the model classes in liqzone.signals.

A batch holds its normals, time-major, shape (n_steps + 1, n_paths): a
block of steps is then a contiguous slab of rows, which is what makes 10^5
paths at 4096 steps affordable; a batch holds no other full-size array.
The normals are drawn a cache-sized block of paths at a time (about 2^17
doubles, _path_block) and copied into the batch transposed, by one Philox
generator re-keyed per path from a state of plain ints (_simulate_batch).

A call whose policies are all library feedback policies splits its paths
into contiguous ranges over forked worker processes (liqzone._workers),
each of at least _FORK_MIN_PATH_STEPS path-steps; the plan is formed before
the fork, and each process writes its rows of the per-path outputs into
shared arrays.  Every path has its own stream and the results do not
depend on the batch size, so no output depends on the worker count.  A
plain callable policy is always run in the calling process, so its side
effects are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import _workers
from .schedule import (
    CostParams,
    GKernel,
    TradePlan,
    _check_count,
    _check_grid,
    _check_kernel,
    _finite_array,
    _positive,
    _urgencies,
    urgency,
)

__all__ = [
    "MarketState",
    "PathSample",
    "GoalBreakdown",
    "MCEstimate",
    "PairedComparison",
    "OptimalityProbe",
    "path_stream",
    "simulate_path",
    "run_strategy",
    "estimate_value",
    "paired_value_difference",
    "estimate_v0",
    "estimate_v0_and_value",
    "probe_optimality",
    "ac_policy",
    "optimal_policy",
]

_BATCH_DEFAULT = 2048
# steps run at a time: each table is looked up once per block
_STEP_BLOCK = 8
# path-steps a forked worker gets at least.  Two workers against one (2 vCPUs,
# capped Bachelier, two policies, 1024 steps) took 1.14 times as long at 2^17
# path-steps each, where the call's fixed costs dominate, and 0.91 at 2^18
_FORK_MIN_PATH_STEPS = 2**18


def _path_block(n_steps: int) -> int:
    """Paths drawn and transposed at a time: about 2^17 doubles (1 MB), at least 64."""
    return max(64, 2**17 // n_steps)


class MarketState(NamedTuple):
    """Per-path market info handed to policies: capped price p, uncapped level m."""

    p: object
    m: object


@dataclass(frozen=True)
class PathSample:
    """One simulated path: uncapped level m, capped price p, and m's running max m_star."""

    grid: np.ndarray
    m: np.ndarray
    p: np.ndarray
    m_star: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", _check_grid("grid", self.grid))
        for name in ("m", "p"):
            arr = _finite_array(name, getattr(self, name))
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "m_star", np.maximum.accumulate(self.m))
        if np.any(self.p > self.m):
            raise ValueError("p must not exceed m")


@dataclass(frozen=True)
class GoalBreakdown:
    """Realized goal of a strategy run; total is the exact signed sum of the parts.

    run_strategy returns floats; inside the engine each part is an array
    with one entry per path.
    """

    cash: float
    terminal_asset: float
    running_penalty: float
    terminal_penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.cash + self.terminal_asset
                           - self.running_penalty - self.terminal_penalty)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class PairedComparison:
    """Two policies on common random numbers, and their per-path difference."""

    value_a: MCEstimate
    value_b: MCEstimate
    difference: MCEstimate


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """The Philox stream of one path: 128-bit key (master_seed << 64) | path_index."""
    master_seed = _check_count("master_seed", master_seed, 0, bits=64)
    path_index = _check_count("path_index", path_index, 0, bits=64)
    # the key is passed as its little-endian 64-bit words, identical to the
    # int form but cheaper to build (unit-tested equivalence)
    key = np.array([path_index, master_seed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(model, horizon, n_steps, count, draw):
    """(grid, paths): paths(lo, end, M, P) -> (M, P), the uncapped levels and
    capped prices at steps lo .. end - 1, time-major, formed in M and P
    (end - lo rows each; an uncapped model's prices are M itself).

    draw(block, offset) fills row k of a (rows <= _path_block(n_steps), n_steps)
    block with the standard normals of path offset + k, held time-major; paths
    sums them a step at a time, carrying each path's unscaled sum and running
    max from call to call, so its rows must be asked for in step order, each once.
    draw is not called when sigma is 0: every path is the expected levels.
    """
    grid = np.linspace(0.0, horizon, n_steps + 1)
    if model.sigma == 0.0:
        expected = model._expected_levels(grid)[:, None]

        def levels(lo, end, M):
            M[:] = expected[lo:end]
    else:
        # the normals, time-major, a block of _path_block paths at a time:
        # each is drawn into a cache-sized scratch array and copied in
        # transposed.  Row 0 is zero: step 0's level is the start level
        z = np.empty((n_steps + 1, count))
        z[0] = 0.0
        block = np.empty((min(_path_block(n_steps), count), n_steps))
        for start in range(0, count, block.shape[0]):
            rows = block[:count - start]
            draw(rows, start)
            z[1:, start:start + rows.shape[0]] = rows.T
        total = np.zeros(count)
        scale = model.sigma * math.sqrt(horizon / n_steps)

        def levels(lo, end, M):
            # one add per row, in step order: bit for bit each path's running sum
            prev = total
            for r in range(end - lo):
                prev = np.add(prev, z[lo + r], out=M[r])
            total[:] = prev
            M *= scale
            model._to_levels(M, grid[lo:end])

    run = np.full(count, -np.inf)

    def paths(lo, end, M, P):
        levels(lo, end, M)
        return M, model._cap_rows(M, run, P)

    return grid, paths


def simulate_path(model, horizon: float, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Simulate one path of the model on a uniform grid over [0, horizon].

    Gaussian increments are exact for the arithmetic models and exact in log
    space for the geometric one; the running maximum is taken over grid
    points only (no continuous-time correction).  With rng =
    path_stream(seed, j) the path is bit for bit column j of every batch.
    """
    n_steps = _check_count("n_steps", n_steps, 1)
    horizon = _positive("horizon", horizon)
    grid, paths = _simulate(model, horizon, n_steps, 1,
                            lambda block, offset: rng.standard_normal(out=block[0]))
    m, p = paths(0, n_steps + 1, np.empty((n_steps + 1, 1)), np.empty((n_steps + 1, 1)))
    return PathSample(grid=grid, m=m.ravel(), p=p.ravel())


def _simulate_batch(model, horizon, n_steps, master_seed, first_index, count):
    """(grid, paths) of _simulate for paths first_index .. first_index + count - 1
    of master_seed.

    One Philox generator serves the batch: Philox is counter based, so loading
    path j's key (word 0 of path_stream's key is the path index) with a zero
    counter and an empty buffer gives exactly path_stream(seed, j).  Its state
    is plain ints, which the setter reads 2.5 times as fast as uint64 arrays.
    """
    rng = path_stream(master_seed, first_index)
    bits = rng.bit_generator
    key = [first_index, master_seed]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def draw(block, offset):
        for k, row in enumerate(block):
            key[0] = first_index + offset + k
            bits.state = fresh
            rng.standard_normal(out=row)

    return _simulate(model, horizon, n_steps, count, draw)


# ---------------------------------------------------------------------------
# policies


class _FeedbackPolicy:
    """u = urgency(t) * x + extra, with extra the signal table's value at (t, state).

    With no table it is the signal-free policy.  The engine does not call
    it: it forms the rate from the urgencies and the table's value itself,
    and looks each table up once per block of steps for all that read it.
    """

    def __init__(self, kernel: GKernel, signal_table):
        self.kernel = kernel
        self.signal_table = signal_table

    def __call__(self, t, x, state):
        x = _finite_array("x", x)
        u = urgency(self.kernel, t) * x
        if self.signal_table is None:
            return u
        p, m = _finite_array("state.p", state.p), _finite_array("state.m", state.m)
        return u + self.signal_table.extra_values(t, p, m)


def ac_policy(kernel: GKernel) -> Callable:
    """Signal-free policy u = urgency(t) * x."""
    return _FeedbackPolicy(kernel, None)


def optimal_policy(model, kernel: GKernel, costs: CostParams) -> Callable:
    """Feedback policy u = urgency(t) * x + extra(t, state) for the given model.

    The kernel must be GKernel.from_costs(costs), else ValueError.
    """
    _check_kernel(kernel, costs)
    return _FeedbackPolicy(kernel, model._signal_table(kernel, costs.lam))


# ---------------------------------------------------------------------------
# strategy evaluation


def run_strategy(path: PathSample, policy: Callable, costs: CostParams):
    """Run a policy down one path; returns (TradePlan, GoalBreakdown).

    This is the batch runner on a single path.  Inventory follows forward
    Euler with step grid[1] - grid[0], so the grid must be uniform, and it
    must span [0, costs.horizon] (both up to relative 1e-9), where the
    terminal penalty is charged; all goal integrals use left-endpoint Riemann
    sums on the path grid.
    """
    grid = path.grid
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniformly spaced")
    if not np.allclose(grid[[0, -1]], (0.0, costs.horizon), rtol=0.0, atol=1e-9 * costs.horizon):
        raise ValueError(f"grid must span [0, horizon = {costs.horizon!r}], "
                         f"got [{grid[0]!r}, {grid[-1]!r}]")
    positions, rates = np.empty(grid.size), np.empty(steps.size)

    def fold(k, lo, P, X, U):
        positions[lo:lo + X.shape[0]] = X[:, 0]
        rates[lo:lo + U.shape[0]] = U[:, 0]

    # the path's levels and prices are given, not recomputed from normals
    m, p = path.m[:, None], path.p[:, None]
    bk, = _run_batch(_plan(grid, [policy], costs), 1,
                     lambda lo, end, M, P: (m[lo:end], p[lo:end]), fold).goals
    parts = (bk.cash, bk.terminal_asset, bk.running_penalty, bk.terminal_penalty)
    return (TradePlan(grid=grid, positions=positions, rates=rates),
            GoalBreakdown(*(float(part[0]) for part in parts)))


class _BatchRun(NamedTuple):
    """What one step loop over a batch produced."""

    goals: list                     # GoalBreakdown of per-path arrays, per policy
    v1_squared: np.ndarray | None   # per-path sum of v1^2 dt, when asked


class _Plan(NamedTuple):
    """What a call fixes once for all its batches."""

    grid: np.ndarray
    costs: CostParams
    policies: list
    square: object      # the table whose v1^2 is summed, or None
    tables: dict        # id(table) -> (table, its step rows)
    urgencies: list     # per policy: urgency at each step, None for a plain callable
    signals: list       # per policy: its signal table, None if it has none
    signal_free: list   # per policy: _signal_free's schedule, None unless signal-free


def _plan(grid, policies, costs, square=None) -> _Plan:
    """Each policy's urgencies, signal table and signal-free schedule, and the
    step rows of each table in play (square's and the policies') at grid[:-1]."""
    times = grid[:-1]
    feedback = [policy if isinstance(policy, _FeedbackPolicy) else None for policy in policies]
    signals = [None if policy is None else policy.signal_table for policy in feedback]
    tables = {}
    for table in (square, *signals):
        if table is not None and id(table) not in tables:
            tables[id(table)] = (table, table.step_rows(times))
    urgencies = [None if policy is None else _urgencies(policy.kernel, times)
                 for policy in feedback]
    signal_free = [None if a is None or table is not None else _signal_free(grid, a, costs)
                   for a, table in zip(urgencies, signals)]
    return _Plan(grid, costs, list(policies), square, tables, urgencies, signals, signal_free)


def _signal_free(grid, urgencies, costs):
    """The signal-free policy's positions (n_steps + 1, 1), rates (n_steps, 1),
    read-only, and running penalty: the step loop's float64 steps, in order."""
    dt, x, pen, rates = float(grid[1] - grid[0]), np.float64(costs.x0), 0.0, []
    positions = [x]
    for a in urgencies:
        pen += costs.gamma * (x * x) * dt
        rates.append(x * a)
        x -= rates[-1] * dt
        positions.append(x)
    X, U = np.array(positions)[:, None], np.array(rates)[:, None]
    X.flags.writeable = U.flags.writeable = False
    return X, U, pen


def _run_batch(plan, count, paths, fold=None) -> _BatchRun:
    """Run the plan's policies down one batch of count paths, _STEP_BLOCK
    steps at a time.

    Each block first forms its levels and prices: paths(lo, end, M, P)
    returns the time-major level and price rows lo to end - 1, in M and P
    (block + 1 rows each) or as views of rows the caller holds.  It is
    called once per block, in step order, and the last block's rows take in
    the terminal row n_steps, so a batch holds its normals and one block of
    levels and prices (_simulate).  In each block, each table of the plan
    is looked up once for the block's prices and levels.  The values feed
    the feedback policies' rates and, for square's table, the left Riemann
    sum of v1^2 with the step dt, T / n_steps bit for bit.  Every policy
    then runs one inventory update step by step: U_i is its rate at X_i,
    and X_{i+1} = X_i - U_i dt.  A feedback policy's rate is a_i X_i with
    the plan's urgencies a_i, plus its table's value; the signal-free
    policy's positions, rates and running penalty are the plan's, formed
    once per call.  Any other callable's rate is what it returns when called
    with t, a read-only X_i and a MarketState of the block's rows.  Cash,
    running penalty and v1^2 are computed for the whole block and added into
    their per-path sums one step at a time, in step order, so every sum is
    the step-by-step one bit for bit.  Each policy holds one block of
    positions and rates: with fold, fold(k, lo, P, X, U) is handed policy
    k's block of b steps from step lo once it is run, P[r], X[r] and U[r]
    the price, position and rate at step lo + r (one read-only column for
    the signal-free policy), X[b] the position after the block and, in the
    last block, P[b] the terminal price.  The next block overwrites them.
    """
    grid, costs, policies = plan.grid, plan.costs, plan.policies
    n_steps = grid.size - 1
    dt = float(grid[1] - grid[0])
    block = min(_STEP_BLOCK, n_steps)
    x = [float(costs.x0)] * len(policies)
    cash = [0.0] * len(policies)
    run_pen = [0.0 if free is None else free[2] for free in plan.signal_free]
    # a block's positions (one more row: the next block's start) and rates
    xs = [None if free else np.empty((block + 1, count)) for free in plan.signal_free]
    us = [None if free else np.empty((block, count)) for free in plan.signal_free]
    work, step = np.empty((block, count)), np.empty(count)
    level_rows, price_rows = np.empty((block + 1, count)), np.empty((block + 1, count))
    v1_squared = None if plan.square is None else np.zeros(count)
    for lo in range(0, n_steps, block):
        hi = min(lo + block, n_steps)
        b, rows = hi - lo, slice(lo, hi)
        end = hi + 1 if hi == n_steps else hi
        M, P = paths(lo, end, level_rows[:end - lo], price_rows[:end - lo])
        extra = {key: table.block_values(step_rows, rows, P[:b], M[:b])
                 for key, (table, step_rows) in plan.tables.items()}
        if v1_squared is not None:
            sq = np.square(extra[id(plan.square)], out=work[:b])
            sq *= dt
            for r in range(b):
                v1_squared += sq[r]
        for k, policy in enumerate(policies):
            a, table, free = plan.urgencies[k], plan.signals[k], plan.signal_free[k]
            if free is not None:
                X, U = free[0][lo:hi + 1], free[1][rows]
            else:
                X, U = xs[k][:b + 1], us[k][:b]
                X[0] = x[k]
                for r in range(b):
                    if a is None:
                        U[r] = policy(float(grid[lo + r]), np.broadcast_to(X[r], (count,)),
                                      MarketState(p=P[r], m=M[r]))
                    else:
                        np.multiply(X[r], a[lo + r], out=U[r])
                        U[r] += extra[id(table)][r]
                    np.multiply(U[r], dt, out=step)
                    np.subtract(X[r], step, out=X[r + 1])
            x[k] = X[b]
            # cash (p - lam u) u dt and running penalty gamma x^2 dt
            np.multiply(U, costs.lam, out=work[:b])
            gain = np.subtract(P[:b], work[:b], out=work[:b])
            gain *= U
            gain *= dt
            for r in range(b):
                cash[k] += gain[r]
            if free is None:
                pen = np.multiply(np.square(X[:b], out=work[:b]), costs.gamma, out=work[:b])
                pen *= dt
                for r in range(b):
                    run_pen[k] += pen[r]
            if fold is not None:
                fold(k, lo, P, X, U)
    goals = [GoalBreakdown(*(np.broadcast_to(part, (count,)) for part in
                             (c, P[-1] * x_end, r, costs.big_gamma * np.square(x_end))))
             for c, x_end, r in zip(cash, x, run_pen)]
    return _BatchRun(goals, v1_squared)


def _check_mc_args(n_paths, n_steps) -> tuple[int, int]:
    return _check_count("n_paths", n_paths, 2), _check_count("n_steps", n_steps, 1)


def _one_pass(model, costs, n_paths, n_steps, master_seed, policies=(), square=None,
              fold=None) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Simulate each batch once and run it once; (totals, v1_squared) in path-index order.

    totals holds each policy's per-path realized goals, v1_squared the
    per-path v1^2 sums of square's table (None without square).  The plan
    (step rows, urgencies, the signal-free schedule) is formed once for all
    batches.  The paths are split into contiguous ranges over worker
    processes (_workers.run), each with at least _FORK_MIN_PATH_STEPS
    path-steps: each range is walked _BATCH_DEFAULT paths at a time from
    its start, and nothing of a batch is held while the next is simulated.
    Every path has its own stream and the results do not depend on the batch
    size, so they are bit for bit the one-process results.  Each range's
    rows of the outputs are written in place into shared arrays
    (_workers.shared).  With fold, fold(first, k, lo, P, X, U) is handed
    every block _run_batch runs for the batch of paths from index first; it
    may run in a forked worker, so it must write only into shared arrays.
    """
    n_paths, n_steps = _check_mc_args(n_paths, n_steps)
    plan = _plan(np.linspace(0.0, costs.horizon, n_steps + 1), policies, costs, square)
    totals = [_workers.shared((n_paths,)) for _ in policies]
    v1_squared = None if square is None else _workers.shared((n_paths,))

    def work(lo, hi):
        for first in range(lo, hi, _BATCH_DEFAULT):
            count = min(_BATCH_DEFAULT, hi - first)
            _, paths = _simulate_batch(model, costs.horizon, n_steps, master_seed, first, count)
            run = _run_batch(plan, count, paths, None if fold is None else partial(fold, first))
            del paths
            for out, goal in zip(totals, run.goals):
                out[first:first + count] = goal.total
            if v1_squared is not None:
                v1_squared[first:first + count] = run.v1_squared

    workers = (1 if any(a is None for a in plan.urgencies) else
               _workers.count(n_paths, n_paths * n_steps, _FORK_MIN_PATH_STEPS))
    _workers.run(work, n_paths, workers)
    return totals, v1_squared


def _estimate(totals: np.ndarray, seed: int) -> MCEstimate:
    """Mean and standard error of one sample per path; FloatingPointError names
    the first path whose sample is not finite."""
    n = totals.size
    bad = np.flatnonzero(~np.isfinite(totals))
    if bad.size:
        raise FloatingPointError(f"path {bad[0]} of {n} (seed {seed}) gives the non-finite "
                                 f"Monte Carlo sample {float(totals[bad[0]])!r}")
    # equal samples have no spread, though their np.mean may be an ulp off them
    spread = 0.0 if np.all(totals == totals[0]) else np.std(totals, ddof=1)
    return MCEstimate(
        mean=float(np.mean(totals)),
        std_error=float(spread / math.sqrt(n)),
        n_paths=n,
        seed=int(seed),
    )


def estimate_value(model, policy, costs, n_paths, n_steps, master_seed) -> MCEstimate:
    """Mean realized goal of a policy over n_paths streams of master_seed."""
    (totals,), _ = _one_pass(model, costs, n_paths, n_steps, master_seed, policies=[policy])
    return _estimate(totals, master_seed)


def paired_value_difference(model, policy_a, policy_b, costs, n_paths, n_steps,
                            master_seed) -> PairedComparison:
    """Both policies on the same paths; difference = per-path (a - b)."""
    (tot_a, tot_b), _ = _one_pass(model, costs, n_paths, n_steps, master_seed,
                                  policies=[policy_a, policy_b])
    return PairedComparison(
        value_a=_estimate(tot_a, master_seed),
        value_b=_estimate(tot_b, master_seed),
        difference=_estimate(tot_a - tot_b, master_seed),
    )


def estimate_v0(model, kernel, costs, n_paths, n_steps, master_seed) -> MCEstimate:
    """Estimate v0(0) = E int_0^T v1(t)^2 dt along simulated paths.

    v1 at each left grid point is the state's signal term (zero for a
    martingale, deterministic for a drift curve); left-endpoint Riemann sum.
    The kernel must be GKernel.from_costs(costs), else ValueError.
    """
    _check_kernel(kernel, costs)
    _, v1_squared = _one_pass(model, costs, n_paths, n_steps, master_seed,
                              square=model._signal_table(kernel, costs.lam))
    return _estimate(v1_squared, master_seed)


def estimate_v0_and_value(model, kernel, costs, n_paths, n_steps,
                          master_seed) -> tuple[MCEstimate, MCEstimate]:
    """(estimate_v0, estimate_value of optimal_policy) from one pass over the paths.

    Both read the one signal lookup per block of steps, and each equals its
    separate call bit for bit.
    """
    policy = optimal_policy(model, kernel, costs)
    (totals,), v1_squared = _one_pass(model, costs, n_paths, n_steps, master_seed,
                                      policies=[policy], square=policy.signal_table)
    return _estimate(v1_squared, master_seed), _estimate(totals, master_seed)


# ---------------------------------------------------------------------------
# perturbation probes


@dataclass(frozen=True)
class OptimalityProbe:
    """Goal changes from perturbing the optimal control by eps * alpha(t).

    mean_gain[d, e] estimates V(u + eps_e * alpha_d) - V(u); a probe passes
    when the gain does not exceed 3 standard errors.  value is the Monte
    Carlo estimate of V(u) on the same paths.
    """

    epsilons: np.ndarray
    mean_gain: np.ndarray
    std_error: np.ndarray
    curvature: np.ndarray
    value: MCEstimate

    @property
    def margins(self) -> np.ndarray:
        """mean_gain - 3 * std_error; all entries <= 0 when every probe passes."""
        return self.mean_gain - 3.0 * self.std_error

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.margins <= 0.0))


_PROBE_KNOTS = 8
_PROBE_SEED = 7
_PROBE_EPSILONS = (-0.2, -0.05, 0.05, 0.2)


def _probe_alphas(n_directions: int) -> np.ndarray:
    """Bounded piecewise-constant directions: _PROBE_KNOTS values in [-1, 1] each."""
    rng = np.random.Generator(np.random.Philox(key=_PROBE_SEED))
    return rng.uniform(-1.0, 1.0, size=(n_directions, _PROBE_KNOTS))


def probe_optimality(model, kernel, costs, n_paths, n_steps, master_seed,
                     n_directions=20) -> OptimalityProbe:
    """Test first-order optimality of the model's policy by perturbation.

    For each random direction alpha (piecewise constant on _PROBE_KNOTS equal
    time intervals, drawn from the stream keyed by _PROBE_SEED) and each eps
    in _PROBE_EPSILONS, the realized goal of the open-loop control u + eps *
    alpha is compared with u on common paths.  The goal is exactly
    quadratic in the control, so the per-path difference

        D = eps * L + eps^2 * Q

    is evaluated from the linear path functional L (price, rate and position
    inner products with deterministic weights) and the deterministic
    curvature Q = -lam int alpha^2 - gamma int da^2 - big_gamma da_T^2 < 0,
    where da(t) = -int_0^t alpha.  This is algebraically identical to
    rerunning the perturbed control, and is unit-tested to be.

    The probe needs a fine step grid.  The continuous-time policy is only
    near-optimal for the discrete goal, and its discretisation bias is a
    real first-order gain.  At 2100 paths the probe failed on all of 8 seeds
    at 16 and 32 steps and on 6 of 8 at 64; it passed on all 16 seeds tried
    at 1024.  Use 1024 steps or more; the 3-standard-error rule is the test.
    """
    n_paths, n_steps = _check_mc_args(n_paths, n_steps)
    n_directions = _check_count("n_directions", n_directions, 1)
    policy = optimal_policy(model, kernel, costs)
    dt = costs.horizon / n_steps
    alphas = _probe_alphas(n_directions)
    # sample each direction on the step grid (left endpoints)
    knot_of_step = np.minimum((np.arange(n_steps) * _PROBE_KNOTS) // n_steps, _PROBE_KNOTS - 1)
    alpha_steps = alphas[:, knot_of_step]                        # (D, n_steps)
    da = -dt * np.concatenate((np.zeros((n_directions, 1)), np.cumsum(alpha_steps, axis=1)), axis=1)
    curvature = (
        -costs.lam * dt * np.sum(alpha_steps**2, axis=1)
        - costs.gamma * dt * np.sum(da[:, :-1]**2, axis=1)
        - costs.big_gamma * da[:, -1]**2
    )
    # L's weights on the price, rate and position at each step; the terminal
    # price and position (row n_steps) join the last block
    w_price = np.vstack((dt * alpha_steps.T, da[:, -1]))         # (n_steps + 1, D)
    w_rate = -2.0 * costs.lam * dt * alpha_steps.T               # (n_steps, D)
    w_pos = np.vstack((-2.0 * costs.gamma * dt * da[:, :-1].T, -2.0 * costs.big_gamma * da[:, -1]))
    lin = _workers.shared((n_paths, n_directions))

    def fold(first, k, lo, P, X, U):
        hi, end = lo + U.shape[0], lo + P.shape[0]
        block = np.concatenate((P, U, X[:end - lo]))
        weights = np.concatenate((w_price[lo:end], w_rate[lo:hi], w_pos[lo:end]))
        lin[first:first + P.shape[1]] += block.T @ weights

    (totals,), _ = _one_pass(model, costs, n_paths, n_steps, master_seed, policies=[policy],
                             fold=fold)

    eps = np.array(_PROBE_EPSILONS)
    lin_mean = lin.mean(axis=0)
    lin_se = lin.std(axis=0, ddof=1) / math.sqrt(n_paths)
    mean_gain = eps[None, :] * lin_mean[:, None] + eps[None, :]**2 * curvature[:, None]
    std_error = np.abs(eps)[None, :] * lin_se[:, None]
    return OptimalityProbe(
        epsilons=eps,
        mean_gain=mean_gain,
        std_error=std_error,
        curvature=curvature,
        value=_estimate(totals, master_seed),
    )
