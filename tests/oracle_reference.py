"""The dense reference the oracle's backward recursion is tested against.

The maximizer of the discrete objective (liqzone.oracle) solves the
stationarity system H u = b with the dense SPD matrix

    H[k, j] = 2 lam 1{k=j} + 2 gamma delta^2 min(rev_k, rev_j)
              + 2 big_gamma delta,        rev_k = n - 1 - k,

obtained by differentiating through the position recursion; dense_rates
solves it in O(n^3), independently of the recursion.
"""

import numpy as np


def _hessian(costs, n: int, delta: float) -> np.ndarray:
    rev = np.arange(n - 1, -1, -1, dtype=float)
    h = np.minimum.outer(rev, rev)
    h *= 2.0 * costs.gamma * delta * delta
    h += 2.0 * costs.big_gamma * delta
    h[np.diag_indices(n)] += 2.0 * costs.lam
    return h


def _rhs(problem) -> np.ndarray:
    costs = problem.costs
    n, delta = problem.n_steps, problem.delta
    prices = problem.prices
    rev = np.arange(n - 1, -1, -1, dtype=float)
    return (prices[:n] - prices[n]
            + 2.0 * costs.gamma * delta * rev * costs.x0
            + 2.0 * costs.big_gamma * costs.x0)


def dense_rates(problem) -> np.ndarray:
    """The maximizing rates of a DiscreteProblem, by a dense solve of H u = b."""
    return np.linalg.solve(_hessian(problem.costs, problem.n_steps, problem.delta),
                           _rhs(problem))
