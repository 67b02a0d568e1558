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

Policies are callables (t, x, state) -> selling rate.  ac_policy and
optimal_policy are one feedback class, u = urgency(t) * x + extra, whose
extra is the engine's lookup of the model's signal table (liqzone.signals);
the signal-free policy has no table.  Any other callable is called at every
step with x and a MarketState as arrays with one entry per path.  For the
capped models the table is one per policy, built on its first query
(_CappedSignalTable in liqzone.signals states its error).

One engine serves every entry point: _simulate turns per-path normals into
levels and capped prices, _batches walks the paths _BATCH_DEFAULT at a time,
_run_batch runs every policy of a call down a batch in one step loop, and
_one_pass folds each batch into per-path rows with a list of reductions
(policy totals, the v1^2 sum, the probe's linear functionals).  Each
estimator is one pass: each batch is simulated once, and each signal table
is looked up once per step, its value feeding both the optimal policy's
rate and the v1^2 sum.  So estimate_v0_and_value costs one simulation and
one lookup per step, and equals estimate_v0 plus estimate_value of the
optimal policy bit for bit.  simulate_path(model, T, n, path_stream(seed,
j)) is bit for bit column j of every batch, and run_strategy is the batch
runner on one path (it needs a uniform grid, and calls no policy at its
last point).  What differs between market models (start level, increment
map, cap map, signal table) lives on the model classes in liqzone.signals.

Batch arrays are laid out time-major, shape (n_steps + 1, n_paths): the
per-step loop then touches contiguous rows, which is what makes 10^5 paths
at 4096 steps affordable on one core.  A batch is drawn from one Philox
generator re-keyed per path (_simulate_batch), a cache-sized block of paths
at a time that is summed along each path and copied into the batch
(_fill_sums), so no full-size array of normals is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .schedule import (
    CostParams,
    GKernel,
    TradePlan,
    _check_count,
    _check_grid,
    _check_kernel,
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
# paths drawn and summed at a time: 64 x 1024 steps is 0.5 MB, cache resident
_PATH_BLOCK = 64


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "m_star", np.maximum.accumulate(self.m))
        if np.any(self.p > self.m):
            raise ValueError("capped price cannot exceed the uncapped level")


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


def _check_seed(master_seed: int) -> int:
    master_seed = _check_count("master_seed", master_seed, 0)
    if master_seed >= 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    return master_seed


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """The Philox stream of one path: 128-bit key (master_seed << 64) | path_index."""
    master_seed = _check_seed(master_seed)
    path_index = _check_count("path_index", path_index, 0)
    if path_index >= 2**64:
        raise ValueError("path_index must fit in 64 bits")
    # the key is passed as its little-endian 64-bit words, identical to the
    # int form but cheaper to build (unit-tested equivalence)
    key = np.array([path_index, master_seed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(model, horizon, n_steps, count, draw):
    """(grid, m, p): levels and capped prices, time-major (n_steps + 1, count).

    draw(block, offset) fills each row k of a (rows, n_steps) block with the
    standard normals of path offset + k; it is not called when sigma is 0,
    where every path is the model's expected level path.
    """
    grid = np.linspace(0.0, horizon, n_steps + 1)
    if model.sigma == 0.0:
        m = np.broadcast_to(model._expected_levels(grid)[:, None], (n_steps + 1, count)).copy()
        return grid, m, m
    m = np.empty((n_steps + 1, count))
    m[0] = 0.0
    _fill_sums(m, draw)
    m *= model.sigma * math.sqrt(horizon / n_steps)
    model._to_levels(m, grid)
    return grid, m, model._cap(m)


def _fill_sums(m, draw):
    """Fill m[1:] with each path's running sums of its normals, a block of paths at a time.

    Each block of _PATH_BLOCK paths is drawn into one cache-sized scratch
    array, summed along each path (a sequential accumulate, so bit for bit
    the step-by-step running sum) and copied transposed into m.  The scratch
    array is freed on return, before the capped prices are allocated.
    """
    n_steps, count = m.shape[0] - 1, m.shape[1]
    block = np.empty((min(_PATH_BLOCK, count), n_steps))
    for start in range(0, count, _PATH_BLOCK):
        rows = block[:min(_PATH_BLOCK, count - start)]
        draw(rows, start)
        np.cumsum(rows, axis=1, out=rows)
        m[1:, start:start + rows.shape[0]] = rows.T


def simulate_path(model, horizon: float, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Simulate one path of the model on a uniform grid over [0, horizon].

    Gaussian increments are exact for the arithmetic models and exact in log
    space for the geometric one; the running maximum is taken over grid
    points only (no continuous-time correction).  With rng =
    path_stream(seed, j) the path is bit for bit column j of every batch.
    """
    n_steps = _check_count("n_steps", n_steps, 1)
    if horizon <= 0.0:
        raise ValueError("horizon must be strictly positive")
    grid, m, p = _simulate(model, horizon, n_steps, 1,
                           lambda block, offset: rng.standard_normal(out=block[0]))
    return PathSample(grid=grid, m=m.ravel(), p=p.ravel())


def _simulate_batch(model, horizon, n_steps, master_seed, first_index, count):
    """(grid, m, p) for paths first_index .. first_index + count - 1 of master_seed.

    One Philox generator serves the batch: Philox is counter based, so
    loading path j's key (word 0 of path_stream's key is the path index)
    with a zero counter and an empty buffer gives exactly path_stream(seed,
    j), without building a generator per path.
    """
    rng = path_stream(master_seed, first_index)
    bits = rng.bit_generator
    fresh = bits.state
    key = fresh["state"]["key"]

    def draw(block, offset):
        for k, row in enumerate(block):
            key[0] = first_index + offset + k
            bits.state = fresh
            rng.standard_normal(out=row)

    return _simulate(model, horizon, n_steps, count, draw)


def _batches(model, horizon, n_steps, master_seed, n_paths):
    """Yield (slice of path indices, grid, m, p) over consecutive batches of _BATCH_DEFAULT."""
    done = 0
    while done < n_paths:
        count = min(_BATCH_DEFAULT, n_paths - done)
        grid, m, p = _simulate_batch(model, horizon, n_steps, master_seed, done, count)
        yield slice(done, done + count), grid, m, p
        done += count


# ---------------------------------------------------------------------------
# policies


class _FeedbackPolicy:
    """u = urgency(t) * x + extra, with extra the signal table's value at (t, state).

    With no table it is the signal-free policy.  The engine looks each table
    up itself, once per step for all that read it, and hands the value to
    rate().
    """

    def __init__(self, kernel: GKernel, signal_table):
        self.kernel = kernel
        self.signal_table = signal_table

    def rate(self, t, x, extra):
        u = urgency(self.kernel, t) * x
        return u if self.signal_table is None else u + extra

    def __call__(self, t, x, state):
        table = self.signal_table
        extra = None if table is None else table.extra_values(t, state.p, state.m)
        return self.rate(t, np.asarray(x, dtype=float), extra)


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
    p, m = path.p[:, None], path.m[:, None]
    run = _run_batch(grid, p, m, [policy], costs, collect=True)
    bk, (xs, us) = run.goals[0], run.paths[0]
    parts = (bk.cash, bk.terminal_asset, bk.running_penalty, bk.terminal_penalty)
    return (TradePlan(grid=grid, positions=xs[:, 0], rates=us[:, 0]),
            GoalBreakdown(*(float(part[0]) for part in parts)))


class _BatchRun(NamedTuple):
    """What one step loop over a batch produced, for the reductions to fold."""

    p: np.ndarray                   # capped prices, time-major
    goals: list                     # GoalBreakdown of per-path arrays, per policy
    paths: list                     # (X, U) per policy when collected, else empty
    v1_squared: np.ndarray | None   # per-path sum of v1^2 dt, when asked


def _run_batch(grid, p, m, policies, costs, square=None, collect=False) -> _BatchRun:
    """Run the policies down one time-major batch in one step loop.

    Each signal table in play, square's and each feedback policy's, is looked
    up once per step.  The value feeds the policy's rate and, for square,
    the left Riemann sum of v1^2 with the step dt, T / n_steps bit for bit.  Any
    other callable is called with a MarketState.  Inventory, cash and running
    penalty start as scalars, so the signal-free inventory stays one number
    per step.  With collect, the positions X and rates U of every policy are
    kept.
    """
    n_grid, count = p.shape
    n_steps = n_grid - 1
    dt = float(grid[1] - grid[0])
    signals = [policy.signal_table for policy in policies if isinstance(policy, _FeedbackPolicy)]
    tables = {id(table): table for table in (square, *signals) if table is not None}
    x = [float(costs.x0)] * len(policies)
    cash = [0.0] * len(policies)
    run_pen = [0.0] * len(policies)
    xs = [np.empty((n_grid, count)) for _ in policies] if collect else []
    us = [np.empty((n_steps, count)) for _ in policies] if collect else []
    v1_squared = None if square is None else np.zeros(count)
    for i in range(n_steps):
        t, p_i, m_i = float(grid[i]), p[i], m[i]
        extra = {key: table.extra_values(t, p_i, m_i) for key, table in tables.items()}
        if v1_squared is not None:
            v1_squared += np.square(extra[id(square)]) * dt
        for k, policy in enumerate(policies):
            if isinstance(policy, _FeedbackPolicy):
                # a policy with no table finds no extra and ignores it
                u = policy.rate(t, x[k], extra.get(id(policy.signal_table)))
            else:
                u = policy(t, np.broadcast_to(x[k], (count,)), MarketState(p=p_i, m=m_i))
                u = np.broadcast_to(np.asarray(u, dtype=float), (count,))
            if collect:
                xs[k][i] = x[k]
                us[k][i] = u
            cash[k] += (p_i - costs.lam * u) * u * dt
            run_pen[k] += costs.gamma * np.square(x[k]) * dt
            x[k] = x[k] - u * dt
    for k in range(len(xs)):
        xs[k][n_steps] = x[k]
    goals = [GoalBreakdown(*(np.broadcast_to(part, (count,)) for part in
                             (c, p[-1] * x_end, r, costs.big_gamma * np.square(x_end))))
             for c, x_end, r in zip(cash, x, run_pen)]
    return _BatchRun(p, goals, list(zip(xs, us)), v1_squared)


def _check_mc_args(n_paths, n_steps) -> tuple[int, int]:
    return _check_count("n_paths", n_paths, 2), _check_count("n_steps", n_steps, 1)


def _one_pass(model, costs, n_paths, n_steps, master_seed, reductions,
              policies=(), square=None, collect=False) -> list[np.ndarray]:
    """Simulate each batch once, run it once and fold it with every reduction.

    A reduction maps a _BatchRun to one row per path (shape (count,) or
    (count, k)); the result stacks each reduction's rows in path-index order.
    """
    n_paths, n_steps = _check_mc_args(n_paths, n_steps)
    out = [None] * len(reductions)
    for sl, grid, m, p in _batches(model, costs.horizon, n_steps, master_seed, n_paths):
        run = _run_batch(grid, p, m, policies, costs, square, collect)
        for k, reduce in enumerate(reductions):
            rows = reduce(run)
            if out[k] is None:
                out[k] = np.empty((n_paths,) + rows.shape[1:])
            out[k][sl] = rows
        del run, rows  # free this batch's arrays before the next one is simulated
    return out


def _total(k: int) -> Callable:
    """The reduction to per-path realized goals of the k-th policy."""
    return lambda run: run.goals[k].total


def _v1_squared(run: _BatchRun) -> np.ndarray:
    return run.v1_squared


def _estimate(totals: np.ndarray, seed: int) -> MCEstimate:
    n = totals.size
    return MCEstimate(
        mean=float(np.mean(totals)),
        std_error=float(np.std(totals, ddof=1) / math.sqrt(n)),
        n_paths=n,
        seed=int(seed),
    )


def estimate_value(model, policy, costs, n_paths, n_steps, master_seed) -> MCEstimate:
    """Mean realized goal of a policy over n_paths streams of master_seed."""
    totals, = _one_pass(model, costs, n_paths, n_steps, master_seed,
                        [_total(0)], policies=[policy])
    return _estimate(totals, master_seed)


def paired_value_difference(model, policy_a, policy_b, costs, n_paths, n_steps,
                            master_seed) -> PairedComparison:
    """Both policies on the same paths; difference = per-path (a - b)."""
    tot_a, tot_b = _one_pass(model, costs, n_paths, n_steps, master_seed,
                             [_total(0), _total(1)], policies=[policy_a, policy_b])
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
    totals, = _one_pass(model, costs, n_paths, n_steps, master_seed,
                        [_v1_squared], square=model._signal_table(kernel, costs.lam))
    return _estimate(totals, master_seed)


def estimate_v0_and_value(model, kernel, costs, n_paths, n_steps,
                          master_seed) -> tuple[MCEstimate, MCEstimate]:
    """(estimate_v0, estimate_value of optimal_policy) from one pass over the paths.

    Both read the one signal lookup per step, and each equals its separate
    call bit for bit.
    """
    policy = optimal_policy(model, kernel, costs)
    v1_squared, totals = _one_pass(model, costs, n_paths, n_steps, master_seed,
                                   [_v1_squared, _total(0)], policies=[policy],
                                   square=policy.signal_table)
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

    w_price = dt * alpha_steps.T                                  # (n_steps, D)
    w_rate = -2.0 * costs.lam * dt * alpha_steps.T
    w_pos = -2.0 * costs.gamma * dt * da[:, :-1].T
    c_price = da[:, -1]                                           # (D,)
    c_pos = -2.0 * costs.big_gamma * da[:, -1]
    curvature = (
        -costs.lam * dt * np.sum(alpha_steps**2, axis=1)
        - costs.gamma * dt * np.sum(da[:, :-1]**2, axis=1)
        - costs.big_gamma * da[:, -1]**2
    )

    def functionals(run):
        xs, us = run.paths[0]
        return (run.p[:-1].T @ w_price + np.outer(run.p[-1], c_price)
                + us.T @ w_rate
                + xs[:-1].T @ w_pos + np.outer(xs[-1], c_pos))

    totals, lin = _one_pass(model, costs, n_paths, n_steps, master_seed,
                            [_total(0), functionals], policies=[policy], collect=True)

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
