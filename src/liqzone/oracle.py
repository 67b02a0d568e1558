"""Independent discrete-time verifier for the closed-form schedules.

The continuous problem with a deterministic price path has an exact
discrete analogue on n steps of length delta = T / n: given the prices
P_0 .. P_n at the n + 1 grid points, maximize over rate vectors u in R^n

    sum_i (P_i - lam u_i) u_i delta + P_n X_n
    - gamma sum_i X_i^2 delta - big_gamma X_n^2,

with X_0 = x0, X_{i+1} = X_i - u_i delta (left-endpoint sums and forward
Euler, exactly the accumulation rule used by the Monte Carlo engine, so the
two modules optimize the same discrete function).  The objective is a
strictly concave quadratic, so it has exactly one maximizer.

solve_discrete finds it by backward dynamic programming, the discrete
Riccati recursion of a linear-quadratic control problem.  The best goal
from step i on is a concave quadratic in the position,
V_i(x) = -a_i x^2 + b_i x + c_i with V_n(x) = P_n x - big_gamma x^2, and
maximizing one step back over the rate gives

    a_i = gamma delta + lam a_{i+1} / (lam + a_{i+1} delta),
    b_i = (lam b_{i+1} + a_{i+1} delta P_i) / (lam + a_{i+1} delta);

a forward pass from X_0 = x0 then reads off the rates

    u_i = (2 a_{i+1} X_i + P_i - b_{i+1}) / (2 (lam + a_{i+1} delta)).

This runs in O(n) on plain floats.  Nothing here reuses the kernel
machinery, which is the point: agreement with the closed form is evidence
for both sides.

The reference the recursion is unit-tested against solves the stationarity
system directly: the maximizer is the solution of H u = b with the dense
SPD matrix

    H[k, j] = 2 lam 1{k=j} + 2 gamma delta^2 min(rev_k, rev_j)
              + 2 big_gamma delta,        rev_k = n - 1 - k,

obtained by differentiating through the position recursion, and
_solve_dense solves it in O(n^3).

A constant price shift adds exactly level * x0 to the goal (everything
sold plus the remainder is marked at the shifted price) and leaves the
maximizer unchanged, so solve_discrete runs the recursion at level 0, on
P_i - P_0.  discrete_goal scores rates at the problem's own prices, which is
what the Monte Carlo engine realizes on a path with those prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import CostParams, TradePlan, _check_count

__all__ = [
    "DiscreteProblem",
    "solve_discrete",
    "discrete_goal",
]


@dataclass(frozen=True)
class DiscreteProblem:
    """Discrete deterministic schedule problem: n uniform steps over the cost horizon.

    prices holds the price at each of the n + 1 grid points i * T / n.
    """

    prices: np.ndarray
    costs: CostParams

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or prices.size < 3:
            raise ValueError(f"prices must be a 1-d array of n_steps + 1 >= 3 grid-point prices, "
                             f"got shape {prices.shape}")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        object.__setattr__(self, "prices", prices)

    @property
    def n_steps(self) -> int:
        """The number of steps, one fewer than the grid points."""
        return self.prices.size - 1

    @property
    def delta(self) -> float:
        """The step length T / n_steps."""
        return self.costs.horizon / self.n_steps

    @classmethod
    def uniform(cls, costs: CostParams, n_steps: int, drift_level: float = 0.0):
        """Problem on n uniform steps with a constant drift a(t) = drift_level, from price 0."""
        n_steps = _check_count("n_steps", n_steps, 2)
        prices = np.zeros(n_steps + 1)
        np.cumsum(np.full(n_steps, drift_level * (costs.horizon / n_steps)), out=prices[1:])
        return cls(prices, costs)


def _hessian(costs: CostParams, n: int, delta: float) -> np.ndarray:
    rev = np.arange(n - 1, -1, -1, dtype=float)
    h = np.minimum.outer(rev, rev)
    h *= 2.0 * costs.gamma * delta * delta
    h += 2.0 * costs.big_gamma * delta
    h[np.diag_indices(n)] += 2.0 * costs.lam
    return h


def _rhs(problem: DiscreteProblem) -> np.ndarray:
    costs = problem.costs
    n, delta = problem.n_steps, problem.delta
    prices = problem.prices
    rev = np.arange(n - 1, -1, -1, dtype=float)
    return (prices[:n] - prices[n]
            + 2.0 * costs.gamma * delta * rev * costs.x0
            + 2.0 * costs.big_gamma * costs.x0)


def _positions(problem: DiscreteProblem, u: np.ndarray) -> np.ndarray:
    """Positions X_0 .. X_n of the rates u: X_0 = x0, X_{i+1} = X_i - u_i delta."""
    x = np.empty(problem.n_steps + 1)
    x[0] = problem.costs.x0
    np.cumsum(u, out=x[1:])
    x[1:] *= -problem.delta
    x[1:] += problem.costs.x0
    return x


def _plan_from_rates(problem: DiscreteProblem, u: np.ndarray) -> TradePlan:
    grid = np.linspace(0.0, problem.costs.horizon, problem.n_steps + 1)
    return TradePlan(grid=grid, positions=_positions(problem, u), rates=u)


def solve_discrete(problem: DiscreteProblem) -> TradePlan:
    """Exact maximizer of the discrete objective, in O(n).

    The backward pass computes the coefficients a_i, b_i of the goal to go
    V_i (module docstring); the forward pass reads off the rates from X_0.
    """
    costs = problem.costs
    n, delta, lam = problem.n_steps, problem.delta, costs.lam
    gamma_delta = costs.gamma * delta
    prices = (problem.prices - problem.prices[0]).tolist()
    a = [0.0] * (n + 1)
    b = [0.0] * (n + 1)
    a[n], b[n] = costs.big_gamma, prices[n]
    for i in range(n - 1, -1, -1):
        a_next_delta = a[i + 1] * delta
        denom = lam + a_next_delta
        a[i] = gamma_delta + lam * a[i + 1] / denom
        b[i] = (lam * b[i + 1] + a_next_delta * prices[i]) / denom
    u = [0.0] * n
    x = costs.x0
    for i in range(n):
        rate = (2.0 * a[i + 1] * x + prices[i] - b[i + 1]) / (2.0 * (lam + a[i + 1] * delta))
        u[i] = rate
        x -= rate * delta
    return _plan_from_rates(problem, np.array(u))


def _solve_dense(problem: DiscreteProblem) -> TradePlan:
    """Reference solver: a dense solve of H u = b itself.

    O(n^3); kept as the independent route the recursion is tested against.
    """
    h = _hessian(problem.costs, problem.n_steps, problem.delta)
    return _plan_from_rates(problem, np.linalg.solve(h, _rhs(problem)))


def discrete_goal(problem: DiscreteProblem, rates) -> float:
    """Discrete objective of a rate vector (length n_steps) at the problem's prices."""
    u = np.asarray(rates, dtype=float)
    if u.shape != (problem.n_steps,):
        raise ValueError(
            f"rates must have exactly n_steps={problem.n_steps} entries, got shape {u.shape}"
        )
    costs = problem.costs
    delta = problem.delta
    prices = problem.prices
    x = _positions(problem, u)
    cash = float(np.dot(prices[:-1] - costs.lam * u, u)) * delta
    running = costs.gamma * float(np.dot(x[:-1], x[:-1])) * delta
    return cash + prices[-1] * x[-1] - running - costs.big_gamma * x[-1] ** 2
