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

which is exactly the discrete objective the verification oracle maximizes.
Reductions over paths always run in path-index order.

Policies are callables (t, x, state) -> selling rate; the engine passes x
and the state components as aligned arrays (one entry per path).  The
optimal policy takes its signal term from the model's signal table
(liqzone.signals); for the capped models these are per-time-step tables in
a scaled moneyness variable, built with the quadrature's Gauss-Legendre
panel scheme and interpolated linearly on a uniform grid, which keeps the
rate error below ~1e-4 relative.

One engine serves every entry point: _simulate turns per-path normals into
levels and capped prices, _run_batch runs a policy down a batch, and
_batches walks the paths batch_size at a time.  So simulate_path(model, T,
n, path_stream(seed, j)) is bit for bit column j of every batch, and
run_strategy is the batch runner on one path (it needs a uniform grid).
What differs between market models (start level, increment map, cap map,
signal table) lives on the model classes in liqzone.signals.

Batch arrays are laid out time-major, shape (n_steps + 1, n_paths): the
per-step loop then touches contiguous rows, which is what makes 10^5 paths
at 4096 steps affordable on one core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .schedule import CostParams, GKernel, TradePlan, _check_grid, urgency

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
    "probe_optimality",
    "ac_policy",
    "optimal_policy",
]

_BATCH_DEFAULT = 2048


class MarketState(NamedTuple):
    """Per-path market info handed to policies: capped price p, uncapped level m."""

    p: object
    m: object


@dataclass(frozen=True)
class PathSample:
    """One simulated path: uncapped level m, its running max, and capped price p."""

    grid: np.ndarray
    m: np.ndarray
    m_star: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", _check_grid("grid", self.grid))
        for name in ("m", "m_star", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            object.__setattr__(self, name, arr)
        if not np.array_equal(np.maximum.accumulate(self.m), self.m_star):
            raise ValueError("m_star must be the running maximum of m")
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
    total: float

    @classmethod
    def build(cls, cash, terminal_asset, running_penalty, terminal_penalty):
        total = cash + terminal_asset - running_penalty - terminal_penalty
        return cls(cash, terminal_asset, running_penalty, terminal_penalty, total)


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
    master_seed = int(master_seed)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    return master_seed


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """The Philox stream of one path: 128-bit key (master_seed << 64) | path_index."""
    master_seed = _check_seed(master_seed)
    path_index = int(path_index)
    if not 0 <= path_index < 2**64:
        raise ValueError("path_index must fit in 64 bits")
    # the key is passed as its little-endian 64-bit words, identical to the
    # int form but cheaper to build (unit-tested equivalence)
    key = np.array([path_index, master_seed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(model, horizon, n_steps, count, draw):
    """(grid, m, p): levels and capped prices, time-major (n_steps + 1, count).

    draw fills a (count, n_steps) array with each path's standard normals;
    it is not called for a noiseless model.
    """
    grid = np.linspace(0.0, horizon, n_steps + 1)
    fixed = model._fixed_levels(grid)
    if fixed is not None:
        m = np.broadcast_to(fixed[:, None], (n_steps + 1, count)).copy()
        return grid, m, m
    z = np.empty((count, n_steps))
    draw(z)
    m = np.empty((n_steps + 1, count))
    m[0] = 0.0
    m[1:] = z.T
    del z
    # running sums row by row: each row is one contiguous, cache-resident
    # vector, much faster than an axis-0 ufunc accumulate
    for i in range(1, n_steps + 1):
        m[i] += m[i - 1]
    m *= model.sigma * math.sqrt(horizon / n_steps)
    model._to_levels(m, grid)
    return grid, m, model._cap(m)


def simulate_path(model, horizon: float, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Simulate one path of the model on a uniform grid over [0, horizon].

    Gaussian increments are exact for the arithmetic models and exact in log
    space for the geometric one; the running maximum is taken over grid
    points only (no continuous-time correction).  With rng =
    path_stream(seed, j) the path is bit for bit column j of every batch.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be strictly positive")
    grid, m, p = _simulate(model, horizon, n_steps, 1, lambda z: rng.standard_normal(out=z[0]))
    m = m.ravel()
    return PathSample(grid=grid, m=m, m_star=np.maximum.accumulate(m), p=p.ravel())


def _simulate_batch(model, horizon, n_steps, master_seed, first_index, count):
    """(grid, m, p) for paths first_index .. first_index + count - 1 of master_seed."""
    _check_seed(master_seed)

    def draw(z):
        for j in range(count):
            path_stream(master_seed, first_index + j).standard_normal(out=z[j])

    return _simulate(model, horizon, n_steps, count, draw)


def _batches(model, horizon, n_steps, master_seed, n_paths, batch_size):
    """Yield (slice of path indices, grid, m, p) over consecutive batches."""
    done = 0
    while done < n_paths:
        count = min(batch_size, n_paths - done)
        grid, m, p = _simulate_batch(model, horizon, n_steps, master_seed, done, count)
        yield slice(done, done + count), grid, m, p
        done += count


# ---------------------------------------------------------------------------
# policies


def ac_policy(kernel: GKernel) -> Callable:
    """Signal-free policy u = urgency(t) * x."""

    def policy(t, x, state):
        return urgency(kernel, t) * np.asarray(x, dtype=float)

    return policy


def optimal_policy(model, kernel: GKernel, costs: CostParams) -> Callable:
    """Feedback policy u = urgency(t) * x + extra(t, state) for the given model."""
    table = model._signal_table(kernel, costs.lam)

    def policy(t, x, state):
        return urgency(kernel, t) * np.asarray(x, dtype=float) + table.extra_values(t, state.p, state.m)

    policy.signal_table = table
    return policy


# ---------------------------------------------------------------------------
# strategy evaluation


def run_strategy(path: PathSample, policy: Callable, costs: CostParams):
    """Run a policy down one path; returns (TradePlan, GoalBreakdown).

    This is the batch runner on a single path.  Inventory follows forward
    Euler with step grid[1] - grid[0], so the grid must be uniform; all goal
    integrals use left-endpoint Riemann sums on the path grid.
    """
    grid = path.grid
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniformly spaced")
    p, m = path.p[:, None], path.m[:, None]
    bk, xs, us = _run_batch(grid, p, m, policy, costs, collect=True)
    u_end = policy(float(grid[-1]), xs[-1], MarketState(p=p[-1], m=m[-1]))
    rates = np.append(us[:, 0], np.asarray(u_end, dtype=float))
    parts = (bk.cash, bk.terminal_asset, bk.running_penalty, bk.terminal_penalty)
    return (TradePlan(grid=grid, positions=xs[:, 0], rates=rates),
            GoalBreakdown.build(*(float(part[0]) for part in parts)))


def _run_batch(grid, p, m, policy, costs, collect=False):
    """GoalBreakdown of per-path arrays for one time-major batch; optionally keep (X, U)."""
    n_grid, count = p.shape
    n_steps = n_grid - 1
    dt = float(grid[1] - grid[0])
    x = np.full(count, float(costs.x0))
    cash = np.zeros(count)
    run_pen = np.zeros(count)
    xs = np.empty((n_grid, count)) if collect else None
    us = np.empty((n_steps, count)) if collect else None
    for i in range(n_steps):
        p_i = p[i]
        u = np.asarray(policy(float(grid[i]), x, MarketState(p=p_i, m=m[i])), dtype=float)
        if u.shape != x.shape:
            u = np.broadcast_to(u, x.shape)
        if collect:
            xs[i] = x
            us[i] = u
        cash += (p_i - costs.lam * u) * u * dt
        run_pen += costs.gamma * np.square(x) * dt
        x = x - u * dt
    if collect:
        xs[n_steps] = x
    breakdown = GoalBreakdown.build(cash, p[-1] * x, run_pen, costs.big_gamma * np.square(x))
    return (breakdown, xs, us) if collect else breakdown


def _check_mc_args(n_paths, n_steps):
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")


def _batched_totals(model, policies, costs, n_paths, n_steps, master_seed, batch_size):
    """Per-path totals for each policy on common paths, in path-index order."""
    out = [np.empty(n_paths) for _ in policies]
    for sl, grid, m, p in _batches(model, costs.horizon, n_steps, master_seed, n_paths, batch_size):
        for totals, policy in zip(out, policies):
            totals[sl] = _run_batch(grid, p, m, policy, costs).total
    return out


def _estimate(totals: np.ndarray, seed: int) -> MCEstimate:
    n = totals.size
    return MCEstimate(
        mean=float(np.mean(totals)),
        std_error=float(np.std(totals, ddof=1) / math.sqrt(n)),
        n_paths=n,
        seed=int(seed),
    )


def estimate_value(model, policy, costs, n_paths, n_steps, master_seed,
                   batch_size=_BATCH_DEFAULT) -> MCEstimate:
    """Mean realized goal of a policy over n_paths streams of master_seed."""
    _check_mc_args(n_paths, n_steps)
    totals, = _batched_totals(model, [policy], costs, n_paths, n_steps, master_seed, batch_size)
    return _estimate(totals, master_seed)


def paired_value_difference(model, policy_a, policy_b, costs, n_paths, n_steps,
                            master_seed, batch_size=_BATCH_DEFAULT) -> PairedComparison:
    """Both policies on the same paths; difference = per-path (a - b)."""
    _check_mc_args(n_paths, n_steps)
    tot_a, tot_b = _batched_totals(model, [policy_a, policy_b], costs, n_paths, n_steps,
                                   master_seed, batch_size)
    return PairedComparison(
        value_a=_estimate(tot_a, master_seed),
        value_b=_estimate(tot_b, master_seed),
        difference=_estimate(tot_a - tot_b, master_seed),
    )


def estimate_v0(model, kernel, costs, n_paths, n_steps, master_seed,
                batch_size=_BATCH_DEFAULT) -> MCEstimate:
    """Estimate v0(0) = E int_0^T v1(t)^2 dt along simulated paths.

    v1 at each left grid point is the state's signal term (zero for a
    martingale, deterministic for a drift curve); left-endpoint Riemann sum.
    """
    _check_mc_args(n_paths, n_steps)
    table = model._signal_table(kernel, costs.lam)
    dt = costs.horizon / n_steps
    totals = np.empty(n_paths)
    for sl, grid, m, p in _batches(model, costs.horizon, n_steps, master_seed, n_paths, batch_size):
        acc = np.zeros(p.shape[1])
        for i in range(n_steps):
            e = np.asarray(table.extra_values(float(grid[i]), p[i], m[i]), dtype=float)
            acc += np.square(e) * dt
        totals[sl] = acc
    return _estimate(totals, master_seed)


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


def _probe_alphas(probe_seed: int, n_directions: int, n_knots: int) -> np.ndarray:
    """Bounded piecewise-constant directions: n_knots values in [-1, 1] each."""
    rng = np.random.Generator(np.random.Philox(key=int(probe_seed)))
    return rng.uniform(-1.0, 1.0, size=(n_directions, n_knots))


def probe_optimality(model, kernel, costs, n_paths, n_steps, master_seed,
                     n_directions=20, n_knots=8, epsilons=(-0.2, -0.05, 0.05, 0.2),
                     probe_seed=7, batch_size=_BATCH_DEFAULT) -> OptimalityProbe:
    """Test first-order optimality of the model's policy by perturbation.

    For each random direction alpha (piecewise constant on n_knots equal time
    intervals) and each eps, the realized goal of the open-loop control
    u + eps * alpha is compared with u on common paths.  The goal is exactly
    quadratic in the control, so the per-path difference

        D = eps * L + eps^2 * Q

    is evaluated from the linear path functional L (price, rate and position
    inner products with deterministic weights) and the deterministic
    curvature Q = -lam int alpha^2 - gamma int da^2 - big_gamma da_T^2 < 0,
    where da(t) = -int_0^t alpha.  This is algebraically identical to
    rerunning the perturbed control, and is unit-tested to be.
    """
    _check_mc_args(n_paths, n_steps)
    policy = optimal_policy(model, kernel, costs)
    dt = costs.horizon / n_steps
    alphas = _probe_alphas(probe_seed, n_directions, n_knots)
    # sample each direction on the step grid (left endpoints)
    knot_of_step = np.minimum((np.arange(n_steps) * n_knots) // n_steps, n_knots - 1)
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

    lin = np.empty((n_paths, n_directions))
    totals = np.empty(n_paths)
    for sl, grid, m, p in _batches(model, costs.horizon, n_steps, master_seed, n_paths, batch_size):
        bk, xs, us = _run_batch(grid, p, m, policy, costs, collect=True)
        totals[sl] = bk.total
        lin[sl] = (
            p[:-1].T @ w_price + np.outer(p[-1], c_price)
            + us.T @ w_rate
            + xs[:-1].T @ w_pos + np.outer(xs[-1], c_pos)
        )

    eps = np.asarray(epsilons, dtype=float)
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
