"""Independent discrete-time verifier for the closed-form schedules.

The continuous problem with a deterministic price path has an exact
discrete analogue: maximize over rate vectors u in R^n

    sum_i (P_i - lam u_i) u_i delta + P_n X_n
    - gamma sum_i X_i^2 delta - big_gamma X_n^2,

with X_0 = x0, X_{i+1} = X_i - u_i delta (left-endpoint sums and forward
Euler, exactly the accumulation rule used by the Monte Carlo engine, so the
two modules optimize the same discrete function).  The objective is a
strictly concave quadratic; its unique maximizer solves the linear system
H u = b with the dense SPD matrix

    H[k, j] = 2 lam 1{k=j} + 2 gamma delta^2 min(rev_k, rev_j)
              + 2 big_gamma delta,        rev_k = n - 1 - k,

obtained by differentiating through the position recursion.  Nothing here
reuses the kernel machinery, which is the point: agreement with the closed
form is evidence for both sides.

Two equivalent solvers are kept, each solving one problem.  The production
path (solve_discrete) subtracts consecutive stationarity rows twice, which
cancels the min kernel into a tridiagonal stencil (the last row keeps a
rank-one sum term, absorbed by a Sherman-Morrison correction); this is row
elimination on the same linear system, runs in O(n), and is unit-tested
against the O(n^3) dense Cholesky of H itself, which remains as the
reference (_solve_dense).  solve_discrete_many solves a list of problems one
by one, whatever their geometries.

Price levels enter the objective only through the drift increments; a
constant price shift adds exactly level * x0 (everything sold plus the
remainder is marked at the shifted price), so prices are carried at level 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schedule import CostParams, TradePlan

__all__ = [
    "DiscreteProblem",
    "solve_discrete",
    "solve_discrete_many",
    "discrete_goal",
    "concavity_probe",
    "ConcavityReport",
]


@dataclass(frozen=True)
class DiscreteProblem:
    """Discrete deterministic schedule problem: n uniform steps of length delta.

    drift holds the per-step price increments dA_i, so the level-0 price at
    grid point i is the partial sum of drift[:i].
    """

    n_steps: int
    delta: float
    drift: np.ndarray
    costs: CostParams

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be strictly positive, got {self.delta!r}")
        drift = np.asarray(self.drift, dtype=float)
        if drift.shape != (self.n_steps,):
            raise ValueError(
                f"drift must have exactly n_steps={self.n_steps} entries, got shape {drift.shape}"
            )
        if not np.all(np.isfinite(drift)):
            raise ValueError("drift increments must be finite")
        if abs(self.n_steps * self.delta - self.costs.horizon) > 1e-9 * self.costs.horizon:
            raise ValueError("n_steps * delta must equal the cost horizon")
        object.__setattr__(self, "drift", drift)

    @classmethod
    def uniform(cls, costs: CostParams, n_steps: int, drift_level: float = 0.0):
        """Problem on n uniform steps with a constant drift a(t) = drift_level."""
        delta = costs.horizon / n_steps
        return cls(
            n_steps=n_steps,
            delta=delta,
            drift=np.full(n_steps, drift_level * delta),
            costs=costs,
        )

    def prices(self) -> np.ndarray:
        """Level-0 prices at all n_steps + 1 grid points."""
        out = np.empty(self.n_steps + 1)
        out[0] = 0.0
        np.cumsum(self.drift, out=out[1:])
        return out


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
    prices = problem.prices()
    rev = np.arange(n - 1, -1, -1, dtype=float)
    return (prices[:n] - prices[n]
            + 2.0 * costs.gamma * delta * rev * costs.x0
            + 2.0 * costs.big_gamma * costs.x0)


def _plan_from_rates(problem: DiscreteProblem, u: np.ndarray) -> TradePlan:
    costs = problem.costs
    n, delta = problem.n_steps, problem.delta
    grid = np.linspace(0.0, costs.horizon, n + 1)
    positions = np.empty(n + 1)
    positions[0] = costs.x0
    np.cumsum(u, out=positions[1:])
    positions[1:] *= -delta
    positions[1:] += costs.x0
    # the plan stores one rate per grid point; the final slot repeats the
    # last traded rate (no trade happens at t = T itself)
    rates = np.append(u, u[-1])
    return TradePlan(grid=grid, positions=positions, rates=rates)


def _difference_bands(costs: CostParams, n: int, delta: float) -> np.ndarray:
    """Banded matrix of the twice-differenced stationarity system.

    Subtracting row i+1 of H u = b from row i replaces the min kernel by a
    prefix sum; differencing once more leaves -2 lam u_{i-1}
    + (4 lam + 2 gamma delta^2) u_i - 2 lam u_{i+1}.  The first row keeps its
    single difference (prefix sum collapses to u_0) and the last row is the
    undifferenced terminal condition 2 lam u_{n-1} + 2 big_gamma delta sum u,
    whose sum term is handled by a rank-one correction in the solver.
    """
    lam, gamma = costs.lam, costs.gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = -2.0 * lam
    ab[1, :] = 4.0 * lam + 2.0 * gamma * delta * delta
    ab[1, 0] = 2.0 * lam + 2.0 * gamma * delta * delta
    ab[1, -1] = 2.0 * lam
    ab[2, : n - 2] = -2.0 * lam
    return ab


def solve_discrete(problem: DiscreteProblem) -> TradePlan:
    """Exact maximizer of the discrete objective, in O(n).

    The differenced tridiagonal system is equivalent to H u = b by invertible
    row operations; the rank-one sum term of the terminal row is removed with
    one extra banded solve (Sherman-Morrison).
    """
    from scipy.linalg import solve_banded  # not at module load: only oracle solves need it

    costs = problem.costs
    n, delta = problem.n_steps, problem.delta
    ab = _difference_bands(costs, n, delta)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    z = solve_banded((1, 1), ab, e_last, check_finite=False)
    coeff = 2.0 * costs.big_gamma * delta
    denom = 1.0 + coeff * float(np.sum(z))
    b = _rhs(problem)
    c = np.empty(n)
    c[0] = b[0] - b[1]
    c[1 : n - 1] = 2.0 * b[1 : n - 1] - b[: n - 2] - b[2:]
    c[n - 1] = b[n - 1]
    y = solve_banded((1, 1), ab, c, check_finite=False)
    u = y - z * (coeff * float(np.sum(y)) / denom)
    return _plan_from_rates(problem, u)


def solve_discrete_many(problems: Sequence[DiscreteProblem]) -> list[TradePlan]:
    """solve_discrete of each problem; the problems may differ in n_steps, delta and costs."""
    return [solve_discrete(p) for p in problems]


def _solve_dense(problem: DiscreteProblem) -> TradePlan:
    """Reference solver: dense Cholesky of H itself.

    O(n^3); kept as the independent route the fast solver is tested against.
    """
    from scipy.linalg import cho_factor, cho_solve

    h = _hessian(problem.costs, problem.n_steps, problem.delta)
    try:
        factor = cho_factor(h, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # unreachable for positive costs
        raise RuntimeError("discrete Hessian lost positive definiteness") from exc
    return _plan_from_rates(problem, cho_solve(factor, _rhs(problem), check_finite=False))


def discrete_goal(problem: DiscreteProblem, rates) -> float:
    """Discrete objective of a rate vector (length n_steps) at price level 0."""
    u = np.asarray(rates, dtype=float)
    if u.shape != (problem.n_steps,):
        raise ValueError(
            f"rates must have exactly n_steps={problem.n_steps} entries, got shape {u.shape}"
        )
    costs = problem.costs
    delta = problem.delta
    prices = problem.prices()
    x = np.empty(problem.n_steps + 1)
    x[0] = costs.x0
    np.cumsum(u, out=x[1:])
    x[1:] *= -delta
    x[1:] += costs.x0
    cash = float(np.dot(prices[:-1] - costs.lam * u, u)) * delta
    running = costs.gamma * float(np.dot(x[:-1], x[:-1])) * delta
    return cash + prices[-1] * x[-1] - running - costs.big_gamma * x[-1] ** 2


@dataclass(frozen=True)
class ConcavityReport:
    """Line-probe summary: quadratic fit residual and any ascent directions found."""

    n_directions: int
    max_quadratic_residual: float
    max_gain: float
    ascent_directions: int

    @property
    def is_maximum(self) -> bool:
        return self.ascent_directions == 0


def concavity_probe(problem: DiscreteProblem, plan, n_directions: int = 16,
                    seed: int = 0, eps: float = 1e-3) -> ConcavityReport:
    """Probe a plan along random lines in rate space.

    Along each unit direction d the objective is a quadratic in the step
    size; three evaluations (0, +eps, -eps) determine it and the value at
    +2 eps must match the extrapolation (relative residual reported).  A
    direction counts as ascent when either single-step move beats the
    plan's value by more than an absolute tolerance tied to the value scale.
    """
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    u0 = np.asarray(plan.rates if isinstance(plan, TradePlan) else plan, dtype=float)
    if u0.size == problem.n_steps + 1:
        u0 = u0[:-1]
    base = discrete_goal(problem, u0)
    rng = np.random.default_rng(seed)
    gain_tol = 1e-10 * max(1.0, abs(base))
    max_resid = 0.0
    max_gain = -math.inf
    ascents = 0
    for _ in range(n_directions):
        d = rng.standard_normal(problem.n_steps)
        d /= np.linalg.norm(d)
        f_plus = discrete_goal(problem, u0 + eps * d)
        f_minus = discrete_goal(problem, u0 - eps * d)
        f_two = discrete_goal(problem, u0 + 2.0 * eps * d)
        # quadratic through (-eps, 0, +eps) extrapolated to +2 eps
        predicted = 3.0 * f_plus - 3.0 * base + f_minus
        scale = max(abs(base), abs(f_plus), abs(f_minus), abs(f_two), 1.0)
        max_resid = max(max_resid, abs(f_two - predicted) / scale)
        gain = max(f_plus, f_minus) - base
        max_gain = max(max_gain, gain)
        if gain > gain_tol:
            ascents += 1
    return ConcavityReport(
        n_directions=n_directions,
        max_quadratic_residual=max_resid,
        max_gain=max_gain,
        ascent_directions=ascents,
    )
